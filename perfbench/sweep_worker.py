"""The measured process of the sweep workloads.

Run by ``run.py`` as a child process so that set-up (interpreter start
plus imports) and peak RSS belong to one process doing one workload.
Prints ``READY`` once the imports are done; with ``--probe`` it exits
there (the extra set-up samples).  Otherwise it runs whole sweep passes
through the public experiment entry points for ``--seconds``, checks the
results, and prints one JSON line with the measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import shutil
import sys
import time

from common import WORK, peak_rss_mb, use_checkout_sources

use_checkout_sources()

import numpy as np  # noqa: E402

from repro.analysis import (  # noqa: E402
    DEFAULT_YEARS,
    ExperimentConfig,
    aging_bitflips,
    uniqueness_experiment,
)
from repro.telemetry import check_anchors  # noqa: E402

#: per-workload population size, backing, experiments, and the nominal
#: pass time (s) that sets the number of passes a run makes
SWEEPS = {
    "paper_sweep": {"n_chips": 2000, "store": "ram", "e3": True, "pass_s": 12.0},
    "store_sweep": {"n_chips": 5000, "store": "mmap", "e3": False, "pass_s": 14.0},
}
N_ROS = 256
#: passes per run, at least: a median of two, and in a traced run one
#: untraced and one traced pass
MIN_PASSES = 2
#: chips compared between the store engine and the RAM engine
SAMPLE_CHIPS = 16


def run_pass(cfg: ExperimentConfig, with_e3: bool):
    """One sweep pass: E2 (and E3).  Returns (wall s, digest, scalars)."""
    t0 = time.perf_counter()
    e2 = aging_bitflips(cfg)
    e3 = uniqueness_experiment(cfg) if with_e3 else None
    wall = time.perf_counter() - t0
    scalars = {f"e2.{k}": v for k, v in e2.ledger_scalars().items()}
    h = hashlib.sha256()
    for name, series in sorted(e2.series.items()):
        h.update(name.encode())
        h.update(np.asarray([series.x, series.y, series.spread]).tobytes())
    if e3 is not None:
        scalars.update({f"e3.{k}": v for k, v in e3.ledger_scalars().items()})
        for name, (counts, edges) in sorted(e3.histograms.items()):
            h.update(name.encode())
            h.update(np.asarray(counts).tobytes() + np.asarray(edges).tobytes())
    h.update(json.dumps(scalars, sort_keys=True).encode())
    return wall, h.hexdigest(), scalars


def sampled_chip_check(cfg: ExperimentConfig, seed: int, scratch: pathlib.Path):
    """Bits of sampled chips from the store engine and the RAM engine.

    Both engines rebuild the same rows of the swept population from its
    persisted spawn keys; the rows must agree bit for bit at t=0 and at
    10 years.  Returns (identical, sha256 of the bits).
    """
    from repro.parallel import ShardSpec
    from repro.parallel.worker import fabricate_shard
    from repro.store import PopulationStore, StoreStudy

    rng = np.random.default_rng(seed)
    lo = int(rng.integers(0, cfg.n_chips - SAMPLE_CHIPS))
    hi = lo + SAMPLE_CHIPS
    h = hashlib.sha256()
    identical = True
    for name, design in cfg.designs().items():
        root = scratch / name
        store = PopulationStore.create(
            root, design, cfg.n_chips, mission=cfg.mission, rng=cfg.seed,
            block_size=SAMPLE_CHIPS,
        )
        try:
            window = StoreStudy(
                design, store, mission=cfg.mission, row_start=lo, row_stop=hi
            )
            fab_keys = np.load(root / "fab_keys.npy")[lo:hi]
            aging_keys = np.load(root / "aging_keys.npy")[lo:hi]
            ram = fabricate_shard(
                ShardSpec(
                    design=design,
                    mission=cfg.mission,
                    idle_policy=None,
                    chip_start=lo,
                    fab_keys=tuple(int(k) for k in fab_keys),
                    aging_keys=tuple(int(k) for k in aging_keys),
                )
            )
            for t in (0.0, 10.0):
                bits = ram.responses(t_years=t)
                identical &= bool(np.array_equal(bits, window.responses(t_years=t)))
                h.update(f"{name}:{t}:{lo}".encode() + bits.tobytes())
            window.close()
        finally:
            store.close()
            shutil.rmtree(root, ignore_errors=True)
    return identical, h.hexdigest()


def check_digest(key: str, digest: str) -> bool:
    """Record the digest for this workload and seed; an earlier run in
    this checkout with the same seed must have produced the same one."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.get(key, digest) != digest:
        return False
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(SWEEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scratch", type=pathlib.Path)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    print("READY", flush=True)
    if args.probe:
        return 0

    spec = SWEEPS[args.workload]
    cfg = ExperimentConfig(
        n_chips=spec["n_chips"], n_ros=N_ROS, seed=args.seed, store=spec["store"]
    )
    chip_years = len(cfg.designs()) * cfg.n_chips * sum(DEFAULT_YEARS)

    recorder = None
    if args.trace:
        from layers import install_sweep
        from spans import Recorder

        recorder = Recorder()
    # The pass count follows --seconds and the nominal pass time, never
    # the measured one: the first pass in a process is the slowest, so a
    # count that changed with the host's speed would change the median.
    n_passes = max(MIN_PASSES, int(args.seconds // spec["pass_s"]))
    passes = []  # (wall s, digest, scalars, traced)
    for index in range(n_passes):
        # traced runs alternate untraced and traced passes, so the two
        # can be compared for the tracing overhead
        traced = recorder is not None and index % 2 == 1
        if traced:
            install_sweep(recorder)
            with recorder.span("sweep.pass"):
                result = run_pass(cfg, spec["e3"])
            recorder.uninstall()
        else:
            result = run_pass(cfg, spec["e3"])
        passes.append(result + (traced,))
    rss_mb = peak_rss_mb()

    scalars = passes[0][2]
    verdicts = [v for v in check_anchors(scalars) if v.status != "missing"]
    identical, bits_digest = sampled_chip_check(cfg, args.seed, args.scratch)
    checks = {
        "anchors_within_bands": bool(verdicts)
        and all(v.status != "fail" for v in verdicts),
        "passes_identical": len({p[1] for p in passes}) == 1,
        "store_matches_ram": identical,
        "bits_digest_repeats": check_digest(f"{args.workload}:{args.seed}", bits_digest),
    }
    out = {
        "passes_s": [p[0] for p in passes],
        "traced": [p[3] for p in passes],
        "chip_years": chip_years,
        "peak_rss_mb": rss_mb,
        "checks": checks,
        "anchors": {v.anchor.name: [v.measured, v.status] for v in verdicts},
        "bits_digest": bits_digest,
        "result_digest": passes[0][1],
    }
    if recorder is not None:
        from spans import layer_totals, write_chrome

        n_traced = sum(p[3] for p in passes)
        out["layers"] = layer_totals(recorder.spans)
        out["traced_passes"] = n_traced
        write_chrome(
            WORK / "traces" / f"{args.workload}-{args.seed}.json",
            recorder.chrome_events(1, args.workload),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
