"""Append-only JSONL: byte-exact appends, tolerant replay, torn tails."""

import json

import numpy as np
import pytest

from repro.service import EnrollmentRecord, HelperStore, default_extractor
from repro.service.audit import AuditTrail, read_audit
from repro.service.store import key_digest
from repro.telemetry import (
    LedgerEntry,
    PerfEntry,
    PerfLedger,
    ProgressEmitter,
    RunLedger,
    RunManifest,
    parse_events,
)
from repro.telemetry import jsonl

#: what a killed writer leaves behind: half a record, no newline
FRAGMENT = '{"format": 1, "exper'


class TestAppend:
    def test_bytes_match_one_dumps_line(self, tmp_path):
        path = tmp_path / "sub" / "dir" / "f.jsonl"  # parents are created
        jsonl.append(path, {"b": 1, "a": [1.5, None]})
        jsonl.append(path, {"b": 2, "a": "x"}, sort_keys=True)
        assert path.read_bytes() == (
            json.dumps({"b": 1, "a": [1.5, None]}) + "\n"
            + json.dumps({"b": 2, "a": "x"}, sort_keys=True) + "\n"
        ).encode()

    def test_torn_tail_gets_its_own_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"n": 1}\n' + FRAGMENT)
        jsonl.append(path, {"n": 2})
        assert path.read_text() == '{"n": 1}\n' + FRAGMENT + '\n{"n": 2}\n'

    def test_open_append_repairs_once_and_keeps_clean_files(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(FRAGMENT)
        with jsonl.open_append(path) as fh:
            fh.write('{"n": 1}\n')
        with jsonl.open_append(path) as fh:  # clean tail: nothing added
            fh.write('{"n": 2}\n')
        assert path.read_text() == FRAGMENT + '\n{"n": 1}\n{"n": 2}\n'


class TestReplay:
    def test_absent_file_is_empty(self, tmp_path):
        records = jsonl.replay(tmp_path / "missing.jsonl")
        assert list(records) == [] and records.n_skipped == 0

    def test_skips_and_counts_rejected_lines(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"n": 1}\n\n  \nnot json\n[1, 2]\n{"n": 2}\n')

        def parse(record):
            return record["n"]  # a list raises TypeError, skipped

        records = jsonl.replay(path, parse)
        assert list(records) == [1, 2]
        assert records.n_skipped == 2

    def test_strict_names_the_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"n": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"f\.jsonl:2: bad thing line"):
            list(jsonl.replay(path, strict=True, what="thing"))

    def test_lines_source(self):
        records = jsonl.replay(['{"n": 1}\n', "oops\n"])
        assert list(records) == [{"n": 1}]
        assert records.n_skipped == 1


# ---- the torn-tail regression, one case per append-only writer -----------


@pytest.fixture(scope="module")
def manifest():
    return RunManifest.collect(seed=5, config={"n_chips": 4})


@pytest.fixture(scope="module")
def enrolled():
    extractor = default_extractor()
    rng = np.random.default_rng(7)
    reference = rng.integers(0, 2, extractor.response_bits, dtype=np.uint8)
    helper, key = extractor.enroll(reference, rng=rng)
    return reference, helper, key


def _run_ledger(path, manifest, enrolled):
    ledger = RunLedger(path)

    def write(i):
        ledger.append(LedgerEntry.collect("e2", {"flips": float(i)}, manifest))

    def read():
        return [e.scalars["flips"] for e in RunLedger(path).entries()], None

    return write, read


def _perf_ledger(path, manifest, enrolled):
    ledger = PerfLedger(path)

    def write(i):
        ledger.append(PerfEntry(bench="b", values={"wall_s": float(i)}))

    def read():
        return [e.values["wall_s"] for e in PerfLedger(path).entries()], None

    return write, read


def _helper_store(path, manifest, enrolled):
    reference, helper, key = enrolled

    def write(i):
        HelperStore(path).put(
            EnrollmentRecord(
                chip_id=i,
                reference=reference,
                helper=helper,
                key_digest=key_digest(key),
            )
        )

    def read():
        store = HelperStore(path)
        return [float(c) for c in store.chip_ids()], store.n_skipped

    return write, read


def _audit_trail(path, manifest, enrolled):
    def write(i):
        with AuditTrail(path) as trail:  # reopened for every record
            trail.append(endpoint="auth", outcome="ok", duration_ms=float(i))

    def read():
        return [r["duration_ms"] for r in read_audit(path)], None

    return write, read


def _progress_emitter(path, manifest, enrolled):
    def write(i):
        emitter = ProgressEmitter(path)
        emitter.emit(f"stage-{i}", done=i, force=True)
        emitter.close()

    def read():
        with path.open() as fh:
            state = parse_events(fh)
        done = [float(state.stages[name].done) for name in sorted(state.stages)]
        return done, state.n_skipped

    return write, read


@pytest.mark.parametrize(
    "writer",
    [_run_ledger, _perf_ledger, _helper_store, _audit_trail, _progress_emitter],
    ids=["run-ledger", "perf-ledger", "helper-store", "audit-trail", "events"],
)
def test_torn_tail_costs_only_the_fragment(writer, tmp_path, manifest, enrolled):
    """A writer killed mid-line must not take the next record with it."""
    path = tmp_path / "artefact.jsonl"
    write, read = writer(path, manifest, enrolled)
    write(1)
    with path.open("a") as fh:
        fh.write(FRAGMENT)  # the killed writer: no closing newline
    write(2)
    values, n_skipped = read()
    assert values == [1.0, 2.0]
    if n_skipped is not None:
        assert n_skipped == 1
    lines = path.read_text().splitlines()
    assert lines[1] == FRAGMENT and len(lines) == 3
