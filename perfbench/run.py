#!/usr/bin/env python3
"""The repository benchmark: the whole pipeline, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed; ``--trace 1`` is a separate run that wraps the public
functions of every layer it crosses and reports the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``; ``perfbench/README.md``
defines each metric per workload.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Each run also appends its numbers to the perf ledger
``.perfbench_work/perf_ledger.jsonl`` (``repro perf report
--perf-ledger`` reads it).
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import json
import os
import shutil
import subprocess
import sys
import time

from common import BENCH, ROOT, WORK, median, use_checkout_sources

SWEEPS = ("paper_sweep", "store_sweep")
FLEETS = ("fleet_auth", "fleet_key")
#: set-up samples for the sweeps: two import-only probes plus the worker
SWEEP_SETUPS = 3


def spawn_worker(args, scratch, probe: bool):
    cmd = [sys.executable, str(BENCH / "sweep_worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch / "verify")]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    # the mmap store's temporary directories stay inside the checkout
    env = dict(os.environ, TMPDIR=str(scratch / "tmp"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline().strip()
    ready = time.perf_counter() - t0
    if line != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"sweep worker did not start: {line!r}")
    return proc, ready


def run_sweep(args, scratch):
    (scratch / "tmp").mkdir(parents=True)
    setups = []
    for _ in range(SWEEP_SETUPS - 1):
        proc, ready = spawn_worker(args, scratch, probe=True)
        proc.wait(timeout=60)
        setups.append(ready)
    proc, ready = spawn_worker(args, scratch, probe=False)
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"sweep worker exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    untraced = [s for s, traced in zip(res["passes_s"], res["traced"]) if not traced]
    wall = median(untraced)
    report = {
        "setup_s": median(setups),
        "throughput_per_s": res["chip_years"] / wall,
        "latency_ms": wall * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    lines = [
        f"passes: {len(res['passes_s'])} ({', '.join(f'{s:.2f}' for s in res['passes_s'])} s)",
        f"chip_years_per_s: {report['throughput_per_s']:.1f} 1/s "
        f"({res['chip_years']:.0f} chip-years per pass, fabrication included)",
        "anchors: " + ", ".join(
            f"{name} {value:.3f} {status}" for name, (value, status) in res["anchors"].items()
        ),
        f"bits digest: {res['bits_digest'][:16]}  result digest: {res['result_digest'][:16]}",
    ]
    layers = {}
    if args.trace:
        from layers import fabrication_metrics

        layers = fabrication_metrics(res["layers"], res["traced_passes"])
        traced = [s for s, t in zip(res["passes_s"], res["traced"]) if t]
        layers["trace.overhead_pct"] = 100.0 * (median(traced) / wall - 1.0)
    n_passes = len(res["passes_s"])
    return {
        "correct": all(res["checks"].values()),
        "checks": res["checks"],
        "attempted": n_passes,
        "failed": 0,
        "e2e": report,
        "layers": layers,
        "lines": lines,
    }


def run_fleet_workload(args, scratch):
    from fleet import LIMIT_MS, client_loop, run_fleet

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
    with asyncio.Runner(loop_factory=client_loop) as runner:
        res = runner.run(
            run_fleet(args.workload, args.seed, args.seconds, bool(args.trace),
                      scratch, recorder)
        )
    tally = res["tally"]
    sums = res["summaries"]
    lines = [
        f"setups: {', '.join(f'{s:.2f}' for s in res['setups'])} s",
    ]
    for label, s in sums.items():
        lines.append(
            f"{label}: offered {s['rate']:.0f}/s  n={s['n']}  p50 {s['p50_ms']:.3f} ms  "
            f"windowed p99 {s['p99_ms']:.3f} ms  pooled p{s['tail_pct']:g} "
            f"{s['tail_ms']:.3f} ms  lateness p99 "
            f"{s['lateness_p99_ms']:.3f} ms  backlog max {s['backlog_max']:.0f}"
            f"{'  GROWING' if s['growing'] else ''}"
        )
    failed_share = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(
        f"failed_share: {failed_share:.6f} ({tally.failed}/{tally.attempted}); "
        f"outcomes {json.dumps(tally.outcomes, sort_keys=True)}"
    )
    if tally.genuine_keys:
        lines.append(
            f"keygen.recovered_ratio: {tally.recovered_keys / tally.genuine_keys:.4f} "
            f"({tally.recovered_keys}/{tally.genuine_keys})"
        )
    if res["enroll_n"]:
        lines.append(
            f"enroll_p{res['enroll_tail_pct']:g}_ms: {res['enroll_tail_ms']:.3f} ms "
            f"(n={res['enroll_n']})"
        )
    for problem in tally.wrong[:5]:
        lines.append(f"WRONG: {problem}")
    report, layers = {}, {}
    if not args.trace:
        lines.append(
            f"saturated_rps: {res['saturated_rps']:.1f} (closed loop; median of rounds "
            + ", ".join(f"{r:.0f}" for r in res["saturated_rounds"]) + ")"
        )
        lines.append(
            "low_rate p50 by round: "
            + ", ".join(f"{v:.3f}" for v in sums["low_rate"]["round_p50_ms"]) + " ms"
        )
        lines.append(
            f"unloaded p50 round trip: {res['unloaded_p50_ms']:.3f} ms (one connection, "
            "closed loop; median of rounds "
            + ", ".join(f"{v:.3f}" for v in res["unloaded_round_p50_ms"]) + " ms)"
        )
        lines.append(
            f"p99 <= {LIMIT_MS} ms with no growing backlog: "
            + ", ".join(f"{k} {'met' if ok else 'MISSED'}" for k, ok in res["limit_met"].items())
        )
        report = {
            "setup_s": median(res["setups"]),
            "throughput_per_s": res["saturated_rps"],
            "latency_ms": res["unloaded_p50_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    else:
        import numpy as np

        from layers import fabrication_metrics, loadgen_encode_us, service_metrics
        from spans import layer_totals, write_chrome

        client = layer_totals(recorder.spans)
        layers = fabrication_metrics(client, len(res["setups"]))
        layers.update(service_metrics(res["server_layers"]))
        # wire time at the low rate, where the other connection's request
        # seldom holds the server: client round trip minus server dispatch
        low = res["phases"]["traced_low_rate"]
        rtt_us = 1e6 * float(np.nanmean(np.concatenate([p.done - p.sent for p in low])))
        dispatch_us = service_metrics(res["server_layers_low"])["service.dispatch.busy_us"]
        layers["service.wire_us"] = rtt_us - dispatch_us
        layers["keygen.recovered_ratio"] = (
            tally.recovered_keys / tally.genuine_keys if tally.genuine_keys else 0.0
        )
        layers["loadgen.lateness_ms.p99"] = max(
            sums[k]["lateness_p99_ms"] for k in ("traced_low_rate", "traced_high_rate")
        )
        layers["loadgen.backlog_max"] = max(
            sums[k]["backlog_max"] for k in ("traced_low_rate", "traced_high_rate")
        )
        layers["loadgen.encode_us"] = loadgen_encode_us(client)
        layers["trace.overhead_pct"] = 100.0 * (
            sums["traced_low_rate"]["p50_ms"] / sums["low_rate"]["p50_ms"] - 1.0
        )
        for outcome in ("ok", "rejected", "key_recovery"):
            layers[f"service.requests.{outcome}"] = float(tally.outcomes.get(outcome, 0))
        layers["service.requests.error"] = float(
            sum(v for k, v in tally.outcomes.items() if k not in ("ok", "rejected", "key_recovery"))
        )
        write_chrome(
            WORK / "traces" / f"{args.workload}-{args.seed}-client.json",
            recorder.chrome_events(1, "client"),
        )
    return {
        "correct": all(res["checks"].values()),
        "checks": res["checks"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "e2e": report,
        "layers": layers,
        "lines": lines,
    }


def record_ledger(workload: str, trace: bool, values) -> None:
    """Append the run's metrics to the perf ledger as one PerfEntry."""
    from repro.telemetry import PerfEntry, PerfLedger, host_fingerprint

    entry = PerfEntry(
        bench=f"perfbench.{workload}" + (".layers" if trace else ""),
        values=values,
        host=host_fingerprint(),
        created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    PerfLedger(WORK / "perf_ledger.jsonl").append(entry)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=SWEEPS + FLEETS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        if args.workload in SWEEPS:
            result = run_sweep(args, scratch)
        else:
            result = run_fleet_workload(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        # a layer the workload never calls reads 0: the prediction for it
        # on this workload is "no change"
        values = {m["name"]: result["layers"].get(m["name"], 0.0) for m in wanted}
        values.update(result["layers"])
    else:
        values = result["e2e"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in wanted})
    if missing or extra:
        raise RuntimeError(f"metric mismatch: missing {missing}, unlisted {extra}")
    record_ledger(args.workload, bool(args.trace), values)

    for line in result["lines"]:
        print(f"[{args.workload}] {line}")
    print(f"[{args.workload}] checks: {json.dumps(result['checks'], sort_keys=True)}")
    for m in wanted:
        print(f"[{args.workload}] {m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
