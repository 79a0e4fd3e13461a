"""Span recording by wrapping public functions from outside the program.

A :class:`Recorder` replaces named attributes (functions, methods,
classmethods, coroutine functions) with thin wrappers that record one
span per call: name, start, end and the span that was open when the call
began.  The open span is tracked in a :class:`contextvars.ContextVar`, so
parents stay right across ``await`` in the asyncio server, where every
connection handler runs in its own task and context.

Spans stay in memory.  :meth:`Recorder.chrome_events` and
:func:`write_chrome` write them out as a Chrome trace-event file (the
format ``repro perf flame`` and ``repro perf report --trace`` read), and
:func:`layer_totals` reduces them to the per-layer busy time, self time
and call counts the benchmark reports.

Wrappers are installed only for traced runs and are removed by
:meth:`Recorder.uninstall`; timed runs never see them.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1  # index into Recorder.spans, -1 for a root span
    attrs: Dict[str, Any] = field(default_factory=dict)


class Recorder:
    """Install span wrappers on attributes and keep the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._installed: List[Tuple[Any, str, Any]] = []

    # ---- recording ---------------------------------------------------

    def _open(self, name: str, attrs: Dict[str, Any]) -> Tuple[int, Any]:
        index = len(self.spans)
        self.spans.append(Span(name, _now(), parent=self._current.get(), attrs=attrs))
        return index, self._current.set(index)

    def _close(self, index: int, token: Any) -> None:
        self.spans[index].end_ns = _now()
        self._current.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        """Record one span around a block."""
        index, token = self._open(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self._close(index, token)

    def reset(self) -> None:
        """Forget every recorded span (the wrappers stay installed)."""
        self.spans.clear()

    # ---- wrapping ----------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
        before: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(*args, **kwargs)`` may return attributes to store on the
        span; ``before(*args, **kwargs)`` runs just before the original
        call, outside the span (used to read state an object is about to
        release, such as a store directory before ``close``).
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        recorder = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                index, token = recorder._open(
                    name, attrs(*args, **kwargs) if attrs else {}
                )
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder._close(index, token)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                index, token = recorder._open(
                    name, attrs(*args, **kwargs) if attrs else {}
                )
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder._close(index, token)

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # ---- export ------------------------------------------------------

    def chrome_events(self, tid: int, lane: str) -> List[Dict[str, Any]]:
        """The spans as Chrome ``X`` events on one lane."""
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": lane}}
        ]
        for index, sp in enumerate(self.spans):
            if not sp.end_ns:
                continue
            events.append(
                {
                    "ph": "X",
                    "name": sp.name,
                    "pid": 1,
                    "tid": tid,
                    "ts": sp.start_ns / 1e3,
                    "dur": (sp.end_ns - sp.start_ns) / 1e3,
                    "args": {"id": index, "parent": sp.parent, **sp.attrs},
                }
            )
        return events


def write_chrome(path: pathlib.Path, events: List[Dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, Any]]:
    """Calls, busy time, self time and summed numeric attributes per
    span name, as plain JSON-ready dicts.

    Self time is a span's duration minus the time its direct children
    cover; a span nested inside another of the same name adds calls but
    no busy time, so recursion is not counted twice.
    """
    child_ns = [0] * len(spans)
    for sp in spans:
        if sp.parent >= 0 and sp.end_ns:
            child_ns[sp.parent] += sp.end_ns - sp.start_ns
    totals: Dict[str, Dict[str, Any]] = {}
    for index, sp in enumerate(spans):
        if not sp.end_ns:
            continue
        total = totals.setdefault(
            sp.name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "sums": {}}
        )
        duration = sp.end_ns - sp.start_ns
        total["calls"] += 1
        total["self_ns"] += duration - child_ns[index]
        for key, value in sp.attrs.items():
            if isinstance(value, (int, float)):
                total["sums"][key] = total["sums"].get(key, 0) + value
        ancestor = sp.parent
        while ancestor >= 0 and spans[ancestor].name != sp.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            total["busy_ns"] += duration
    return totals
