"""The perf ledger: an append-only JSONL record of benchmark runs.

:mod:`repro.telemetry.ledger` made the *physics* longitudinal — every
experiment's headline scalars keyed by provenance.  This module does the
same for *performance*: every benchmark run appends one
:class:`PerfEntry` recording throughput (chips x years simulated per
second), wall time, peak RSS and the p50/p99 of every instrumented
histogram site, keyed ``git_sha:host-fingerprint:bench-id``.

The key's host component is :func:`~repro.telemetry.manifest.host_fingerprint`
— a digest of the platform triple, numpy version and CPU count, not the
hostname — so interchangeable CI runners contribute to one longitudinal
series per benchmark while a laptop and a CI box never get compared.

Two ingest paths cover both artefact shapes the repo produces:

* :func:`entry_from_bench_payload` — a ``benchmarks/results/*.json``
  payload (values / counters / memory / histograms sections), the shape
  :func:`benchmarks._common.emit` writes.  ``benchmarks/_common.py``
  calls this automatically when ``REPRO_PERF_LEDGER`` names a ledger
  file, so every bench run appends without per-bench changes.
* :func:`entry_from_metrics_payload` — a CLI ``--metrics-out``
  METRICS_FORMAT-3 payload: wall time from the root spans, peak RSS
  from ``peak_rss_kb``, and p50/p99 recomputed from the full histogram
  bucket states via :meth:`Histogram.from_dict`.

Storage is the run ledger's :class:`~repro.telemetry.ledger.Ledger`
with :class:`PerfEntry` lines: a truncated tail costs one entry, and
malformed lines are skipped unless ``strict`` — a perf gate must never
crash on the artefact it is guarding.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from .histogram import Histogram
from .ledger import Ledger, _clean_scalars
from .manifest import (
    execution_fields,
    git_sha,
    host_fingerprint,
    package_version,
)

#: format version of one perf-ledger line, bumped on layout changes
PERF_LEDGER_FORMAT = 1

#: environment variable naming the ledger file the benchmark harness
#: appends to (opt-in: unset means no perf-ledger writes at all)
PERF_LEDGER_ENV = "REPRO_PERF_LEDGER"

#: the histogram quantiles a perf entry records per instrumented site
ENTRY_QUANTILES = (("p50", 0.50), ("p99", 0.99))


@dataclass(frozen=True)
class PerfEntry:
    """One benchmark run's performance record plus host identity."""

    bench: str
    values: Dict[str, float]  # throughput / wall / rss scalars
    quantiles: Dict[str, float] = field(default_factory=dict)  # site.p50/.p99
    git_sha: Optional[str] = None
    host: str = ""
    created_utc: str = ""
    execution: Dict[str, Any] = field(default_factory=dict)
    version: str = field(default_factory=package_version)
    format: int = PERF_LEDGER_FORMAT

    def __post_init__(self):
        if not self.bench:
            raise ValueError("bench id must be non-empty")
        object.__setattr__(self, "values", _clean_scalars(self.values))
        object.__setattr__(self, "quantiles", _clean_scalars(self.quantiles))

    @classmethod
    def collect(
        cls,
        bench: str,
        values: Mapping[str, Any],
        quantiles: Optional[Mapping[str, Any]] = None,
    ) -> "PerfEntry":
        """Build an entry stamped with the current host and checkout."""
        return cls(
            bench=bench,
            values=dict(values),
            quantiles=dict(quantiles or {}),
            git_sha=git_sha(),
            host=host_fingerprint(),
            created_utc=datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(),
            execution=execution_fields(),
        )

    def run_key(self) -> str:
        """The comparability key: ``<git sha>:<host fingerprint>:<bench>``.

        Entries sharing a run key are repeats of the same measurement;
        entries differing only in SHA are the longitudinal series the
        change-point detector judges.
        """
        sha = (self.git_sha or "nogit")[:12]
        return f"{sha}:{self.host or 'nohost'}:{self.bench}"

    def metrics(self) -> Dict[str, float]:
        """All gateable numbers: scalars plus flattened quantiles."""
        out = dict(self.values)
        out.update(self.quantiles)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": self.format,
            "bench": self.bench,
            "values": dict(sorted(self.values.items())),
            "quantiles": dict(sorted(self.quantiles.items())),
            "git_sha": self.git_sha,
            "host": self.host,
            "created_utc": self.created_utc,
            "execution": self.execution,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PerfEntry":
        """Rebuild (and validate) an entry from its JSON form."""
        if not isinstance(data, Mapping):
            raise ValueError("perf entry must be a JSON object")
        bench = data.get("bench")
        if not isinstance(bench, str) or not bench:
            raise ValueError("perf entry has no bench id")
        values = data.get("values")
        if not isinstance(values, Mapping):
            raise ValueError(f"perf entry {bench!r} has no values mapping")
        quantiles = data.get("quantiles")
        if quantiles is None:
            quantiles = {}
        if not isinstance(quantiles, Mapping):
            raise ValueError(f"perf entry {bench!r} has bad quantiles")
        sha = data.get("git_sha")
        if sha is not None and not isinstance(sha, str):
            raise ValueError(f"perf entry {bench!r} has bad git_sha")
        execution = data.get("execution") or {}
        if not isinstance(execution, Mapping):
            raise ValueError(f"perf entry {bench!r} has bad execution block")
        return cls(
            bench=bench,
            values=dict(values),
            quantiles=dict(quantiles),
            git_sha=sha,
            host=str(data.get("host", "")),
            created_utc=str(data.get("created_utc", "")),
            execution=dict(execution),
            version=str(data.get("version", "")),
            format=int(data.get("format", PERF_LEDGER_FORMAT)),
        )


class PerfLedger(Ledger[PerfEntry]):
    """The perf ledger: :class:`PerfEntry` lines, ``record(bench, values,
    quantiles=None)``."""

    entry_type = PerfEntry
    what = "perf-ledger"


def _histogram_quantiles(summaries: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten ``{site: {p50, p99, ...}}`` summaries to ``site.p50`` keys."""
    out: Dict[str, float] = {}
    for site, summary in summaries.items():
        if not isinstance(summary, Mapping):
            continue
        for label, _q in ENTRY_QUANTILES:
            value = summary.get(label)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = float(value)
                if math.isfinite(value):
                    out[f"{site}.{label}"] = value
    return out


def entry_from_bench_payload(
    name: str, payload: Mapping[str, Any]
) -> PerfEntry:
    """A :class:`PerfEntry` from one ``benchmarks/results/*.json`` payload.

    Takes every finite scalar from the ``values`` section, peak RSS from
    the ``memory`` section, throughput metrics from the ``roofline``
    section (``chips_years_per_s`` keys — the changepoint detector knows
    their bigger-is-better direction by name), p50/p99 per site from
    the ``histograms`` summaries, and — for serving artefacts (``repro
    loadgen --out``) — the flat RED/SLO scalars of the ``service``
    section under a ``service.`` prefix, so availability and endpoint
    tail latency join the longitudinal series ``repro perf history``
    renders.  Whatever subset the artefact emitted; absent sections
    cost nothing.
    """
    values: Dict[str, Any] = dict(payload.get("values") or {})
    roofline = payload.get("roofline")
    if isinstance(roofline, Mapping):
        for key, value in roofline.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values.setdefault(key, float(value))
    service = payload.get("service")
    if isinstance(service, Mapping):
        metrics = service.get("metrics")
        if isinstance(metrics, Mapping):
            for key, value in metrics.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    values.setdefault(f"service.{key}", float(value))
    memory = payload.get("memory")
    if isinstance(memory, Mapping):
        rss = memory.get("peak_rss_bytes")
        if isinstance(rss, (int, float)) and not isinstance(rss, bool):
            values.setdefault("peak_rss_bytes", float(rss))
    histograms = payload.get("histograms")
    quantiles = (
        _histogram_quantiles(histograms)
        if isinstance(histograms, Mapping)
        else {}
    )
    return PerfEntry.collect(name, values, quantiles)


def entry_from_metrics_payload(
    bench: str, payload: Mapping[str, Any]
) -> PerfEntry:
    """A :class:`PerfEntry` from a CLI ``--metrics-out`` payload.

    METRICS_FORMAT-3 payloads carry *full histogram bucket states*, so
    p50/p99 are recomputed here via :meth:`Histogram.from_dict` rather
    than trusted from any pre-flattened summary.  Wall time is the sum
    of root-span durations; peak RSS comes from ``peak_rss_kb``.
    """
    values: Dict[str, float] = {}
    spans = payload.get("spans")
    if isinstance(spans, list):
        wall_ns = 0.0
        for root in spans:
            if isinstance(root, Mapping):
                dur = root.get("duration_ns")
                if isinstance(dur, (int, float)) and not isinstance(dur, bool):
                    wall_ns += float(dur)
        if wall_ns > 0:
            values["wall_s"] = wall_ns / 1e9
    rss_kb = payload.get("peak_rss_kb")
    if isinstance(rss_kb, (int, float)) and not isinstance(rss_kb, bool):
        values["peak_rss_bytes"] = float(rss_kb) * 1024.0
    quantiles: Dict[str, float] = {}
    histograms = payload.get("histograms")
    if isinstance(histograms, Mapping):
        for site, state in histograms.items():
            if not isinstance(state, Mapping):
                continue
            try:
                hist = Histogram.from_dict(dict(state))
            except (ValueError, TypeError, KeyError):
                continue
            if hist.count == 0:
                continue
            for label, q in ENTRY_QUANTILES:
                quantiles[f"{site}.{label}"] = hist.quantile(q)
    return PerfEntry.collect(bench, values, quantiles)


def metric_series(
    entries: List[PerfEntry], host: Optional[str] = None
) -> Dict[str, List[float]]:
    """Chronological per-metric series, ``{"bench:metric": [...]}``.

    ``host`` filters to one fingerprint; by default series mix hosts
    only when the ledger does — callers gating CI should pass the
    current :func:`~repro.telemetry.manifest.host_fingerprint` so a
    laptop append can never fire a CI gate.
    """
    series: Dict[str, List[float]] = {}
    for entry in entries:
        if host is not None and entry.host != host:
            continue
        for key, value in entry.metrics().items():
            series.setdefault(f"{entry.bench}:{key}", []).append(value)
    return series
