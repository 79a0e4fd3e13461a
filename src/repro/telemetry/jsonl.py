"""Append-only JSONL: one crash-safe append, one tolerant replay.

Every longitudinal artefact in the repo — the run and perf ledgers, the
service's helper-data store and audit trail, the progress-events file —
is one JSON object per line, appended and never rewritten.  This module
is the package's one writer and reader of that shape:

* :func:`append` writes one record as one line.  A writer killed
  mid-line leaves a *torn tail* — a fragment with no closing newline.
  Appending straight after it would glue the next record onto the
  fragment and lose both, so :func:`append` first ends a torn last line
  (the fragment stays behind as one malformed line).  For a clean file
  the bytes written are exactly ``json.dumps(record) + "\\n"``.
* :func:`open_append` is the same repair for writers that keep a
  long-lived buffered handle (the audit trail, the progress emitter):
  they repair once, when they open the file.
* :func:`replay` reads the records back in file order.  Blank lines are
  ignored; a line that does not decode, or that the caller's ``parse``
  rejects, is skipped and counted (``n_skipped``), or raised as a
  :class:`ValueError` naming the line when ``strict``.  An absent file
  replays as empty.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Callable, Generic, Iterable, Iterator, Mapping
from typing import TextIO, TypeVar, Union

PathLike = Union[str, pathlib.Path]

T = TypeVar("T")

#: what a ``parse`` callable may raise to reject one decoded line
#: (``json.JSONDecodeError`` is a ``ValueError``)
_REJECTED = (ValueError, KeyError, TypeError)


def _write(path: PathLike, data: bytes) -> None:
    """Append ``data`` to ``path``, after a newline if the tail is torn.

    One ``O_APPEND`` write of the whole line, so concurrent appenders
    never interleave within a line.  Parent directories are created on
    first use.
    """
    flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def append(
    path: PathLike, record: Mapping[str, Any], *, sort_keys: bool = False
) -> None:
    """Append ``record`` to ``path`` as one JSON line."""
    _write(path, (json.dumps(record, sort_keys=sort_keys) + "\n").encode())


def open_append(path: PathLike) -> TextIO:
    """Open ``path`` for appending lines, ending a torn last line first."""
    _write(path, b"")
    return open(path, "a")


class Replay(Generic[T]):
    """The parsed records of one JSONL source; iterate once.

    ``source`` is a path or an iterable of lines (an open file, or the
    new lines of a followed file).  ``n_skipped`` counts the rejected
    lines seen so far.
    """

    def __init__(
        self,
        source: Union[PathLike, Iterable[str]],
        parse: Callable[[Any], T],
        *,
        strict: bool = False,
        what: str = "JSONL",
    ):
        self.source = source
        self.parse = parse
        self.strict = strict
        self.what = what
        self.n_skipped = 0

    def __iter__(self) -> Iterator[T]:
        if not isinstance(self.source, (str, os.PathLike)):
            yield from self._records(self.source, "<lines>")
            return
        try:
            fh = open(self.source, encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return
        with fh:
            yield from self._records(fh, str(self.source))

    def _records(self, lines: Iterable[str], name: str) -> Iterator[T]:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = self.parse(json.loads(line))
            except _REJECTED as exc:
                if self.strict:
                    raise ValueError(
                        f"{name}:{lineno}: bad {self.what} line: {exc}"
                    ) from exc
                self.n_skipped += 1
                continue
            yield record


def _identity(record: Any) -> Any:
    return record


def replay(
    source: Union[PathLike, Iterable[str]],
    parse: Callable[[Any], T] = _identity,
    *,
    strict: bool = False,
    what: str = "JSONL",
) -> Replay[T]:
    """Replay ``source``: ``parse(json.loads(line))`` per non-blank line."""
    return Replay(source, parse, strict=strict, what=what)
