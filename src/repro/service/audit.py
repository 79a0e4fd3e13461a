"""Audit trail: one JSONL line per served request.

The compliance half of the observability stack: where RED metrics
aggregate, the audit trail *itemises* — every request's trace id,
endpoint, chip id, outcome and duration lands as one appended JSON line,
so an operator can join a latency spike seen in ``repro monitor`` back
to the exact requests (and from the trace id into the Perfetto
timeline).

Unlike the progress emitter this writer must not drop lines, so there is
no throttle; instead of paying an fsync-ish flush per request it buffers
and flushes every :data:`FLUSH_EVERY` records (and on :meth:`close`) —
at 10k+ auth/sec a per-line flush would dominate the serve loop.
Opening repairs a torn tail left by a killed server
(:func:`repro.telemetry.jsonl.open_append`), and reading back uses the
ledger discipline: malformed lines are skipped, never fatal.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Dict, Iterator, Optional, Union

from ..telemetry import jsonl

PathLike = Union[str, pathlib.Path]

#: schema version stamped on every line
AUDIT_FORMAT = 1

#: buffered records between explicit flushes
FLUSH_EVERY = 1000


class AuditTrail:
    """Append-only JSONL request log with buffered flushing."""

    def __init__(self, path: PathLike, *, flush_every: int = FLUSH_EVERY):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = pathlib.Path(path)
        self._fh = jsonl.open_append(self.path)
        self._flush_every = flush_every
        self._unflushed = 0
        self.n_records = 0

    def append(
        self,
        *,
        endpoint: str,
        outcome: str,
        duration_ms: float,
        chip_id: Optional[int] = None,
        trace_id: Optional[int] = None,
        **extra: Any,
    ) -> None:
        record: Dict[str, Any] = {
            "format": AUDIT_FORMAT,
            "t": time.time(),
            "endpoint": endpoint,
            "outcome": outcome,
            "duration_ms": float(duration_ms),
        }
        if chip_id is not None:
            record["chip_id"] = int(chip_id)
        if trace_id is not None:
            record["trace_id"] = int(trace_id)
        record.update(extra)
        self._fh.write(json.dumps(record) + "\n")
        self.n_records += 1
        self._unflushed += 1
        if self._unflushed >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        if self._unflushed:
            self._fh.flush()
            self._unflushed = 0

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "AuditTrail":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _audit_record(record: Any) -> Dict[str, Any]:
    if not isinstance(record, dict):
        raise ValueError("audit line is not a JSON object")
    return record


def read_audit(path: PathLike) -> Iterator[Dict[str, Any]]:
    """Yield audit records, skipping malformed lines (ledger discipline)."""
    return iter(jsonl.replay(path, _audit_record))
