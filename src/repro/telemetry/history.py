"""Ledger history: per-metric trends, sparklines and drift verdicts.

A ledger is only useful if someone reads it.  ``repro history`` renders
every metric the ledger has accumulated as one row: a terminal sparkline
over the recorded values (file order == chronological order for an
append-only file), the latest value, and its verdict from the median+MAD
change-point detector (:mod:`repro.telemetry.changepoint`), the same one
the perf gate trusts.  The baseline is the trailing median of the
preceding ``window`` values; the flag fires only beyond the metric's own
measured noise (or the relative floor ``threshold``), so one outlier run
can neither fake drift nor hide it, and short series stay in warm-up
instead of flagging on two data points.

Drift flags are deliberately two-sided and informational: the ledger
does not know whether a metric is better when smaller (flip rates) or
when closer to a constant (uniqueness ~50 %), so it reports *movement*
and leaves the judgement to the anchor registry
(:mod:`repro.telemetry.anchors`), which does know.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import changepoint
from .ledger import LedgerEntry

#: eighths-block ramp used for terminal sparklines
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """A unicode sparkline over ``values`` (min .. max scaled)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        # a flat series renders mid-scale rather than all-minimum
        return SPARK_BLOCKS[3] * len(values)
    span = hi - lo
    top = len(SPARK_BLOCKS) - 1
    return "".join(
        SPARK_BLOCKS[min(top, int((v - lo) / span * len(SPARK_BLOCKS)))]
        for v in values
    )


@dataclass(frozen=True)
class TrendRow:
    """One metric's longitudinal summary across ledger entries."""

    metric: str
    values: Tuple[float, ...]
    latest: float
    baseline: Optional[float]  # trailing median; None in warm-up
    change: Optional[float]  # (latest - baseline) / |baseline|
    drift: bool
    verdict: str  # "warmup" | "stable" | "up" | "down"

    @property
    def n_runs(self) -> int:
        return len(self.values)


def metric_series(
    entries: Sequence[LedgerEntry],
) -> Dict[str, List[float]]:
    """``{"<exp>.<key>": [v0, v1, ...]}`` in entry (chronological) order."""
    series: Dict[str, List[float]] = {}
    for entry in entries:
        for key, value in entry.scalars.items():
            series.setdefault(f"{entry.experiment}.{key}", []).append(value)
    return series


def history_rows(
    entries: Sequence[LedgerEntry],
    *,
    metrics: Optional[Sequence[str]] = None,
    window: int = 5,
    threshold: float = 0.10,
    last: Optional[int] = None,
) -> List[TrendRow]:
    """Build trend rows for every (selected) metric in the ledger.

    ``metrics`` filters by substring match (so ``--metric e2`` selects
    every E2 scalar); ``last`` truncates each series to its newest N
    points before baselining.  ``threshold`` is the detector's relative
    floor; the detector needs ``min(window, 5)`` prior runs (at least 2)
    before it may fire.
    """
    if window < 1:
        raise ValueError("window must be positive")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    window = max(window, 2)
    rows: List[TrendRow] = []
    for metric, values in sorted(metric_series(entries).items()):
        if metrics and not any(m in metric for m in metrics):
            continue
        if last is not None:
            values = values[-last:]
        if not values:
            continue
        point = changepoint.detect(
            metric,
            values,
            window=window,
            min_history=min(changepoint.MIN_HISTORY, window),
            min_rel=threshold,
        )
        rows.append(
            TrendRow(
                metric=metric,
                values=tuple(values),
                latest=values[-1],
                baseline=point.median,
                change=point.change,
                drift=point.moved,
                verdict=point.status,
            )
        )
    return rows


def render_history(
    entries: Sequence[LedgerEntry],
    *,
    metrics: Optional[Sequence[str]] = None,
    window: int = 5,
    threshold: float = 0.10,
    last: Optional[int] = None,
) -> str:
    """The ``repro history`` terminal view."""
    if not entries:
        return "(empty ledger)"
    rows = history_rows(
        entries,
        metrics=metrics,
        window=window,
        threshold=threshold,
        last=last,
    )
    if not rows:
        return "(no matching metrics in ledger)"

    run_keys = list(dict.fromkeys(e.run_key() for e in entries))
    experiments = sorted({e.experiment for e in entries})
    stamps = [e.created_utc() for e in entries if e.created_utc()]
    header = [
        f"ledger: {len(entries)} entries, {len(run_keys)} run key(s), "
        f"experiments: {', '.join(experiments)}"
    ]
    if stamps:
        header.append(f"span  : {min(stamps)} .. {max(stamps)}")

    width = max(len(r.metric) for r in rows)
    spark_w = max(len(r.values) for r in rows)
    lines = []
    flagged = 0
    for r in rows:
        spark = sparkline(r.values).rjust(spark_w)
        base = "       --" if r.baseline is None else f"{r.baseline:9.4g}"
        delta = ""
        if r.change is not None:
            n_base = min(window, r.n_runs - 1)
            delta = f"  {r.change:+7.1%} vs median[{n_base}]"
        flag = ""
        if r.verdict == "warmup":
            flag = "  (warmup)"
        elif r.drift:
            flag = "  << drift"
            flagged += 1
        lines.append(
            f"{r.metric:<{width}}  {spark}  latest {r.latest:9.4g}  "
            f"base {base}{delta}{flag}"
        )
    footer = (
        f"{flagged} metric(s) moved beyond their median+MAD noise band"
        if flagged
        else "no drift beyond the median+MAD noise band"
    )
    return "\n".join(header + [""] + lines + ["", footer])
