"""The library's instrumentation points, exercised through a real run."""

import numpy as np
import pytest

from repro import telemetry
from repro.core import aro_design, make_batch_study
from repro.ecc.bch import BchCode, BchDecodingError
from repro.ecc.concatenated import ConcatenatedCode, KeyCodec
from repro.ecc.repetition import RepetitionCode
from repro.keygen.fuzzy_extractor import FuzzyExtractor


@pytest.fixture(autouse=True)
def clean_slate():
    telemetry.uninstall()
    yield
    telemetry.uninstall()


class TestBatchEngineCounters:
    def test_sweep_records_kernel_and_memo_traffic(self):
        with telemetry.session() as tr:
            batch = make_batch_study(aro_design(n_ros=16), n_chips=3, rng=7)
            batch.responses()
            batch.responses(t_years=10.0)
            batch.responses(t_years=10.0)  # memo hit
        c = tr.counters
        assert c["batch.corner_memo_misses"] == 2
        assert c["batch.corner_memo_hits"] == 1
        assert c["batch.response_passes"] == 3
        assert c["freq.kernel_blocks"] >= 2
        assert c["aging.subtract_blocks"] >= 1
        # every clip decision is recorded one way or the other
        assert c.get("aging.clip_skipped", 0) + c.get("aging.clip_applied", 0) > 0

    def test_sweep_produces_spans_under_fabrication_and_frequencies(self):
        with telemetry.session() as tr:
            batch = make_batch_study(aro_design(n_ros=16), n_chips=3, rng=7)
            batch.frequencies(t_years=5.0)
        names = [root.name for root in tr.roots]
        assert "fabricate.batch_study" in names
        assert "batch.frequencies" in names

    def test_results_identical_with_and_without_tracer(self):
        batch_plain = make_batch_study(aro_design(n_ros=16), n_chips=3, rng=7)
        plain = batch_plain.responses(t_years=10.0)
        with telemetry.session():
            batch_traced = make_batch_study(aro_design(n_ros=16), n_chips=3, rng=7)
            traced = batch_traced.responses(t_years=10.0)
        assert np.array_equal(plain, traced)

    def test_delta_memo_counters(self):
        with telemetry.session() as tr:
            batch = make_batch_study(aro_design(n_ros=16), n_chips=3, rng=7)
            batch.aging.delta(10.0)
            batch.aging.delta(10.0)
        assert tr.counters["aging.delta_memo_misses"] == 1
        assert tr.counters["aging.delta_memo_hits"] == 1


class TestEccKeygenCounters:
    def test_bch_decode_counters(self):
        code = BchCode.design(m=5, t=3)
        msg = np.zeros(code.k, dtype=np.uint8)
        word = code.encode(msg)
        corrupted = word.copy()
        corrupted[:2] ^= 1
        with telemetry.session() as tr:
            code.decode(word)  # clean
            code.decode(corrupted)  # 2 corrected
        assert tr.counters["ecc.bch_decodes"] == 2
        assert tr.counters["ecc.bch_clean_words"] == 1
        assert tr.counters["ecc.bch_corrected_bits"] == 2

    def test_bch_failure_counter(self):
        """The failure counter is 1 exactly when ``decode`` raised."""
        code = BchCode.design(m=5, t=3)
        word = code.encode(np.zeros(code.k, dtype=np.uint8))
        for n_flips in (0, 2, 3, 4, 7):
            garbled = word.copy()
            garbled[:n_flips] ^= 1
            with telemetry.session() as tr:
                try:
                    code.decode(garbled)
                except BchDecodingError:
                    raised = True
                else:
                    raised = False
            assert raised == (n_flips > code.t)
            assert tr.counters.get("ecc.bch_decode_failures", 0) == int(raised)
            assert tr.counters["ecc.bch_decodes"] == 1

    def test_key_codec_counts_every_block(self):
        """One batched outer-code call per key still counts words."""
        codec = KeyCodec(
            code=ConcatenatedCode(
                outer=BchCode.design(m=5, t=3), inner=RepetitionCode(3)
            ),
            key_bits=64,
        )
        assert codec.n_blocks == 4
        encoded = codec.encode(np.zeros(codec.message_bits, dtype=np.uint8))
        with telemetry.session() as tr:
            codec.correct(encoded)
        assert tr.counters["ecc.bch_decodes"] == 4
        assert tr.counters["ecc.bch_clean_words"] == 4

    def test_keygen_counters(self):
        codec = KeyCodec(
            code=ConcatenatedCode(
                outer=BchCode.design(m=6, t=3), inner=RepetitionCode(3)
            ),
            key_bits=32,
        )
        extractor = FuzzyExtractor(codec)
        response = np.random.default_rng(3).integers(
            0, 2, extractor.response_bits
        ).astype(np.uint8)
        with telemetry.session() as tr:
            helper, key = extractor.enroll(response, rng=1)
            key2 = extractor.reproduce(response, helper)
        assert key == key2
        assert tr.counters["keygen.enrolls"] == 1
        assert tr.counters["keygen.reproduce_ok"] == 1


class TestExperimentSpans:
    def test_experiment_wrapped_in_stage_span(self):
        from repro.analysis import experiments as exp

        cfg = exp.ExperimentConfig(n_chips=2, n_ros=8)
        with telemetry.session() as tr:
            exp.uniqueness_experiment(cfg)
        assert tr.roots[0].name == "experiment.e3"
        child_names = {c.name for c in tr.roots[0].children}
        assert "fabricate.batch_study" in child_names

    def test_disabled_experiment_leaves_no_trace_state(self):
        from repro.analysis import experiments as exp

        cfg = exp.ExperimentConfig(n_chips=2, n_ros=8)
        exp.uniqueness_experiment(cfg)
        assert telemetry.active() is None
