"""Paths and small statistics shared by the benchmark's processes."""

from __future__ import annotations

import math
import pathlib
import statistics
import sys
from typing import Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
#: everything the benchmark writes lives here (git-ignored)
WORK = ROOT / ".perfbench_work"




def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout; exit 2 when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    ``VmHWM`` starts afresh at ``exec``; ``ru_maxrss`` can carry the
    parent's peak into a child started by fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``q`` in 0..100)."""
    if len(sorted_values) == 0:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def tail_percentile(n: int) -> float:
    """The highest of p99/p95/p90/p50 that leaves at least ten samples
    beyond it (p50 when fewer than twenty samples exist)."""
    for q in (99.0, 95.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0
