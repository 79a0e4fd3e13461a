"""The run ledger: an append-only JSONL record of headline scalars.

PR-to-PR drift in the numbers that define this reproduction — the
abstract's 32 % / 7.7 % ten-year flip rates, the 49.67 % inter-chip HD —
is invisible to a single run: every individual result looks plausible.
Longitudinal PUF studies make the same point about silicon (reliability
claims only hold up under repeated measurement over time); this module
applies that discipline to the codebase itself.

Every experiment invocation appends one :class:`LedgerEntry` — the
experiment id, its flat scalar dict
(:meth:`~repro.analysis.experiments.BitflipResult.ledger_scalars` and
friends), and the full :class:`~repro.telemetry.manifest.RunManifest` —
to a JSONL file.  The manifest keys the entry: two entries with the same
git SHA, seed and config digest are the same measurement; entries across
SHAs are the longitudinal series that ``repro history`` renders and
``repro check-anchors`` / ``tools/check_anchors.py`` gate on.

JSONL (one JSON object per line, written and replayed by
:mod:`repro.telemetry.jsonl`) is the storage format on purpose: appends
are atomic-enough under CI concurrency, a truncated final line (killed
run) costs that run's entry and never the next one, and the ledger stays
greppable and diffable forever.  :class:`Ledger` is the one ledger class;
:class:`RunLedger` and :class:`~repro.telemetry.perfledger.PerfLedger`
only name its entry type.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Generic, Iterator, List, Mapping, Optional
from typing import Type, TypeVar, Union

from . import jsonl
from .manifest import RunManifest, package_version, validate_manifest

PathLike = Union[str, pathlib.Path]

#: format version of one ledger line, bumped on layout changes
LEDGER_FORMAT = 1


def _clean_scalars(scalars: Mapping[str, Any]) -> Dict[str, float]:
    """Keep the finite numeric scalars (the only thing trends can use)."""
    clean: Dict[str, float] = {}
    for key, value in scalars.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        value = float(value)
        if math.isfinite(value):
            clean[str(key)] = value
    return clean


@dataclass(frozen=True)
class LedgerEntry:
    """One experiment run's headline scalars plus full provenance."""

    experiment: str
    scalars: Dict[str, float]
    manifest: Dict[str, Any]
    version: str = field(default_factory=package_version)
    format: int = LEDGER_FORMAT

    def __post_init__(self):
        if not self.experiment:
            raise ValueError("experiment id must be non-empty")
        object.__setattr__(self, "scalars", _clean_scalars(self.scalars))

    @classmethod
    def collect(
        cls,
        experiment: str,
        scalars: Mapping[str, Any],
        manifest: Optional[RunManifest] = None,
    ) -> "LedgerEntry":
        """Build an entry, collecting a fresh manifest when none is given."""
        if manifest is None:
            manifest = RunManifest.collect()
        return cls(
            experiment=experiment,
            scalars=dict(scalars),
            manifest=manifest.to_dict(),
        )

    def run_key(self) -> str:
        """The measurement identity: ``<git sha>:<seed>:<config digest>``.

        Two entries sharing a run key were produced by the same code,
        the same RNG seed and the same experiment configuration — any
        scalar difference between them is nondeterminism, not drift.
        """
        sha = self.manifest.get("git_sha") or "nogit"
        seed = self.manifest.get("seed")
        config = self.manifest.get("config") or {}
        digest = hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()
        ).hexdigest()[:8]
        return f"{str(sha)[:12]}:{seed}:{digest}"

    def created_utc(self) -> str:
        return str(self.manifest.get("created_utc", ""))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": self.format,
            "experiment": self.experiment,
            "scalars": dict(sorted(self.scalars.items())),
            "manifest": self.manifest,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LedgerEntry":
        """Rebuild (and validate) an entry from its JSON form."""
        if not isinstance(data, Mapping):
            raise ValueError("ledger entry must be a JSON object")
        experiment = data.get("experiment")
        if not isinstance(experiment, str) or not experiment:
            raise ValueError("ledger entry has no experiment id")
        scalars = data.get("scalars")
        if not isinstance(scalars, Mapping):
            raise ValueError(f"entry {experiment!r} has no scalars mapping")
        manifest = data.get("manifest")
        if not isinstance(manifest, Mapping):
            raise ValueError(f"entry {experiment!r} has no manifest")
        validate_manifest(dict(manifest))
        return cls(
            experiment=experiment,
            scalars=dict(scalars),
            manifest=dict(manifest),
            version=str(data.get("version", "")),
            format=int(data.get("format", LEDGER_FORMAT)),
        )


E = TypeVar("E")


class Ledger(Generic[E]):
    """An append-only JSONL ledger file of ``entry_type`` lines.

    ``entry_type`` provides ``collect`` (build a stamped entry),
    ``to_dict`` and ``from_dict`` (validate one line).  Lines are written
    with sorted keys; replay skips malformed lines (a truncated tail from
    a killed run, stray garbage) unless ``strict``.  An absent file is an
    empty ledger, not an error.
    """

    entry_type: Type[E]
    #: names the file kind in ``strict`` errors ("bad <what> line")
    what = "ledger"

    def __init__(self, path: PathLike):
        self.path = pathlib.Path(path)

    def append(self, entry: E) -> None:
        """Append one entry (creating parent directories as needed)."""
        jsonl.append(self.path, entry.to_dict(), sort_keys=True)

    def record(self, *args: Any, **kwargs: Any) -> E:
        """Collect-and-append convenience; returns the appended entry."""
        entry = self.entry_type.collect(*args, **kwargs)
        self.append(entry)
        return entry

    def entries(self, strict: bool = False) -> List[E]:
        """All parseable entries in file order."""
        records = jsonl.replay(
            self.path, self.entry_type.from_dict, strict=strict, what=self.what
        )
        return list(records)

    def __iter__(self) -> Iterator[E]:
        return iter(self.entries())

    def __len__(self) -> int:
        return len(self.entries())


class RunLedger(Ledger[LedgerEntry]):
    """The run ledger: :class:`LedgerEntry` lines, ``record(experiment,
    scalars, manifest=None)``."""

    entry_type = LedgerEntry
