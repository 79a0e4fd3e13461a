"""Batched population evaluation: the engine behind the experiment suite.

Every experiment in the paper's evaluation is a population × time-grid
Monte-Carlo.  The per-chip :class:`~repro.core.base.RoPufInstance` API
evaluates that one chip and one year at a time — clear for examples, but
the Python loop around it dominates wall-clock at paper scale.  This
module stacks a whole :class:`~repro.variation.chip.ChipPopulation` into
one ``(n_chips, n_ros, n_stages, 2)`` threshold tensor and pushes the
entire population through the delay model in a single numpy pass per
(year, corner):

* :class:`PopulationView` — the stacked threshold/`tc_scale` tensors plus
  thin per-chip :class:`~repro.variation.chip.Chip` views;
* :class:`BatchStudy` — the batched counterpart of
  :class:`~repro.core.factory.Study` and the only evaluation engine: one
  corner loop over a column source (the RAM tensors here, or an
  out-of-core store window in :class:`~repro.store.study.StoreStudy`),
  one ``ring_frequency``-equivalent pass per (year, corner), and
  chip-axis-aware readout;
* :class:`CornerMemo` — the engines' LRU memo of frequency corners, in
  RAM or spilled to disk;
* :func:`make_batch_study` — drop-in for
  :func:`~repro.core.factory.make_study`; consumes the RNG identically,
  so the same seed fabricates the same chips and prefactors on both
  paths and golden responses are bit-identical.

The batched frequency kernel folds every scalar factor (drive constant,
mobility, load, stage-0 penalty, ``c_load_factor``) into the stage-weight
reduction, so the per-grid-point cost is one subtract, one power and one
tensordot over the population tensor.  Frequencies therefore agree with
the per-chip path to rounding (``rtol`` ~1e-12) rather than bit-for-bit;
response *bits* and aging *deltas* are identical.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import List, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from .._rng import RngLike, spawn, spawn_keys
from ..aging.schedule import IdlePolicy, MissionProfile
from ..aging.simulator import (
    AgingSimulator,
    ChipAging,
    PopulationAging,
    aging_terms,
)
from ..environment.conditions import OperatingConditions
from ..forensics.hook import record_response_margins
from ..kernel.backend import NUMPY, ArrayBackend, resolve_backend
from ..kernel.fused import (
    MarginHistogramSink,
    ResponseBlockSink,
    finalize_period_block,
    frequency_block_kernel,
)
from ..transistor.mosfet import mobility_factor
from ..transistor.technology import T_REF_K, TechnologyCard
from ..variation.chip import Chip, ChipPopulation, grid_positions
from .base import PufDesign, RoPufInstance
from .fabricate import AGING_FIELDS, FAB_FIELDS, fabricate_rows
from .factory import Study

__all__ = [
    "PopulationView",
    "BatchStudy",
    "CornerMemo",
    "corner_key",
    "make_batch_study",
    "frequency_block_kernel",
]


class PopulationView:
    """A chip population stacked into contiguous evaluation tensors.

    Parameters
    ----------
    vth:
        Threshold tensor, shape ``(n_chips, n_ros, n_stages, 2)``, volts.
    tc_scale:
        Stacked temperature-coefficient mismatch, same shape as ``vth``.
    positions:
        RO grid coordinates shared by every chip, shape ``(n_ros, 2)``.
    chip_ids:
        Monte-Carlo index of each row (defaults to ``0 .. n_chips - 1``).
    """

    def __init__(
        self,
        vth: np.ndarray,
        tc_scale: np.ndarray,
        positions: np.ndarray,
        chip_ids: Optional[Sequence[int]] = None,
    ):
        vth = np.asarray(vth, dtype=float)
        if vth.ndim != 4 or vth.shape[-1] != 2:
            raise ValueError(
                f"vth must have shape (n_chips, n_ros, n_stages, 2), got {vth.shape}"
            )
        tc_scale = np.asarray(tc_scale, dtype=float)
        if tc_scale.shape != vth.shape:
            raise ValueError(
                f"tc_scale shape {tc_scale.shape} does not match vth {vth.shape}"
            )
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (vth.shape[1], 2):
            raise ValueError(
                f"positions must have shape ({vth.shape[1]}, 2), got {positions.shape}"
            )
        self.vth = vth
        self.tc_scale = tc_scale
        self.positions = positions
        self.chip_ids = (
            list(range(vth.shape[0])) if chip_ids is None else list(chip_ids)
        )
        if len(self.chip_ids) != vth.shape[0]:
            raise ValueError("chip_ids must name every chip row")

    @classmethod
    def from_chips(
        cls, chips: Union[ChipPopulation, Sequence[Chip]]
    ) -> "PopulationView":
        """Stack a population (or any chip sequence) into one view."""
        chips = list(chips)
        if not chips:
            raise ValueError("population is empty")
        return cls(
            vth=np.stack([c.vth for c in chips]),
            tc_scale=np.stack([c.tc_scale for c in chips]),
            positions=chips[0].positions,
            chip_ids=[c.chip_id for c in chips],
        )

    @property
    def n_chips(self) -> int:
        return self.vth.shape[0]

    @property
    def n_ros(self) -> int:
        return self.vth.shape[1]

    @property
    def n_stages(self) -> int:
        return self.vth.shape[2]

    def chip(self, index: int) -> Chip:
        """Thin per-chip :class:`Chip` view of row ``index`` (no copy)."""
        return Chip(
            vth=self.vth[index],
            positions=self.positions,
            tc_scale=self.tc_scale[index],
            chip_id=self.chip_ids[index],
        )

    def chips(self) -> List[Chip]:
        return [self.chip(i) for i in range(self.n_chips)]


def _stage_weights(
    tech: TechnologyCard,
    n_stages: int,
    *,
    vdd: float,
    temperature_k: float,
    stage0_penalty: float,
    c_load_factor: float,
) -> np.ndarray:
    """Stage/polarity reduction weights with all scalar factors folded in.

    One device's transition delay is ``c_load * vdd / (k * mu * od**alpha)``;
    summing over stages (stage 0 weighted by its structural penalty) and
    dividing by ``c_load_factor`` gives the ring frequency.  Folding the
    scalar prefactor and the load factor into the weights leaves the hot
    kernel with a single power and a single tensordot.
    """
    mu = mobility_factor(temperature_k, tech)
    scale = tech.c_load * vdd / (tech.k_drive * mu) * c_load_factor
    weights = np.full((n_stages, 2), scale)
    weights[0, :] *= stage0_penalty
    return weights


def corner_key(
    t_years: float, conditions: Optional[OperatingConditions], *extra
) -> tuple:
    """The memo key of one corner: ``(t_years, conditions, *extra)``.

    Every engine builds its keys here, so every engine rejects a
    negative or NaN age the same way instead of evaluating fresh
    silicon.
    """
    t = float(t_years)
    if not t >= 0:
        raise ValueError("t_years must be non-negative")
    return (t, conditions or OperatingConditions.nominal()) + extra


class CornerMemo:
    """LRU memo of read-only frequency corners, in RAM or spilled to disk.

    Keys come from :func:`corner_key`.  With a ``spill`` cache (a
    :class:`~repro.parallel.cache.ResultCache`) and ``name(key)`` naming
    each corner's segment, corners are written to disk
    (:meth:`create` / :meth:`commit`) and held as read-only memmaps,
    lookups also find corners committed by an earlier run, and evicting
    a corner deletes its file.  ``hit_counter`` names the telemetry
    counter of lookups served.
    """

    def __init__(self, depth: int, hit_counter: str, spill=None, name=None):
        self.depth = depth
        self._hit_counter = hit_counter
        self._spill = spill
        self._name = name
        # key -> (read-only array, spill segment name or None)
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    @property
    def spills(self) -> bool:
        return self._spill is not None

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple) -> Optional[np.ndarray]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            telemetry.count(self._hit_counter)
            return entry[0]
        if self._spill is None:
            return None
        name = self._name(key)
        freqs = self._spill.open_array(name)
        if freqs is not None:
            telemetry.count(self._hit_counter)
            self.put(key, freqs, name)
        return freqs

    def put(
        self, key: tuple, freqs: np.ndarray, name: Optional[str] = None
    ) -> np.ndarray:
        if not isinstance(freqs, np.memmap):
            freqs.flags.writeable = False
        self._entries[key] = (freqs, name)
        while len(self._entries) > self.depth:
            self._evict()
        return freqs

    def create(self, key: tuple, shape: tuple) -> tuple:
        """``(writable memmap, name)`` for a spilled corner's segment."""
        name = self._name(key)
        telemetry.count("store.spill_writes")
        return self._spill.create_array(name, shape), name

    def commit(
        self, key: tuple, out: np.memmap, name: str, meta: dict
    ) -> np.ndarray:
        """Publish a corner written through :meth:`create`, memoised
        as its read-only reopening."""
        out.flush()
        self._spill.commit_array(name, meta=meta)
        sealed = self._spill.open_array(name)
        if sealed is None:  # pragma: no cover - disk-level failure
            raise RuntimeError("spilled corner vanished between commit and reopen")
        return self.put(key, sealed, name)

    def discard(self, name: str) -> None:
        self._spill.discard_array(name)

    def clear(self, discard: bool = True) -> None:
        """Forget every corner; ``discard`` deletes spilled files too."""
        if not discard:
            self._entries.clear()
        while self._entries:
            self._evict()

    def _evict(self) -> None:
        _, (_, name) = self._entries.popitem(last=False)
        if name is not None:
            self._spill.discard_array(name)
            telemetry.count("store.spill_evictions")


class _RamColumns:
    """The in-RAM column source of a :class:`BatchStudy`.

    Serves a :class:`PopulationView` and its
    :class:`~repro.aging.simulator.PopulationAging` through the read
    interface of :class:`~repro.store.store.PopulationStore`
    (``column``, ``ensure_rows``, ``release``, ``block_size``), so one
    corner loop reads either.  ``block_size`` is the sink window in
    rows.  With ``cast`` (the reduced-precision or device tiers) each
    column is converted once, on first use, and kept; without it the
    original float64 tensors are handed out — no copies, no byte drift.
    """

    def __init__(
        self,
        view: PopulationView,
        aging: PopulationAging,
        block_size: int,
        cast=None,
    ):
        self.block_size = block_size
        self._view = view
        self._aging = aging
        self._cast = cast
        self._casts: dict = {}

    def column(self, name: str):
        if name in ("vth", "tc_scale"):
            col = getattr(self._view, name)
        else:
            col = self._aging.column(name)[0]
        if self._cast is None:
            return col
        cast = self._casts.get(name)
        if cast is None:
            cast = self._casts[name] = self._cast(col)
        return cast

    def ensure_rows(self, start: int, stop: int, columns) -> None:
        """RAM rows are always materialised."""

    def release(self, columns, lo: int, hi: int) -> None:
        """RAM rows are never released."""


class BatchStudy:
    """A fabricated, aging-ready population evaluated whole-array at once.

    The batched counterpart of :class:`~repro.core.factory.Study`: the
    same design / mission bundle, but frequencies and responses come back
    as ``(n_chips, ...)`` arrays from one vectorised pass instead of a
    Python loop over per-chip instances.  Per-chip
    :class:`RoPufInstance` views remain available through
    :attr:`instances` / :meth:`aged_instances` for code that wants the
    scalar API.

    This is the only evaluation engine.  Its corner loop reads the
    population's columns (``vth``, ``tc_scale`` and the aging columns)
    from a column source: the RAM tensors here, or a
    :class:`~repro.store.store.PopulationStore` row window in the
    out-of-core :class:`~repro.store.study.StoreStudy`.

    Frequencies are memoised per ``(t_years, conditions)`` (LRU), so
    repeated golden-response queries are free.  Memoised arrays are
    read-only — copy before mutating.

    ``dtype`` selects the kernel arithmetic tier: ``"float64"`` (default,
    the bit-identity reference) or the opt-in ``"float32"`` tier, which
    halves kernel bandwidth but only guarantees response-*bit* agreement
    after :func:`repro.kernel.validate.validate_response_identity` has
    proven it at the scale in question — frequencies differ at ~1e-7
    relative.  ``backend`` routes the kernel through an alternative
    array library (see :mod:`repro.kernel.backend`); results crossing
    the study boundary are always host numpy arrays.  ``block_size``
    overrides the chip-axis work-block derivation (testing hook; the
    default is cache-sized and block boundaries never change results).
    """

    #: number of (t_years, conditions) corners kept in the frequency memo
    MEMO_SIZE = 32
    #: corners kept when the memo spills to disk — each costs a
    #: population-sized segment, so the memo is shallow
    SPILL_MEMO_SIZE = 4

    #: chip-axis block size of the work buffers, in tensor elements.  Two
    #: buffers of ~48k float64 elements (~380 KiB each) fit comfortably in
    #: a commodity 1-2 MiB L2 alongside the streamed input slices, which
    #: is worth ~1.5x on the memory-bound part of the frequency kernel.
    _BLOCK_ELEMS = 48_000

    #: sink flush window of the RAM source, in elements of the
    #: period/frequency tensor (~8 MiB of float64 rows).  Sinks are fed
    #: at this coarser granularity rather than per kernel block: their
    #: per-call gather / compare dispatch costs ~10 us regardless of
    #: size, which at kernel-block width (a few dozen chips) would
    #: dominate the corner; an 8 MiB window amortises it to noise while
    #: still bounding the re-read traffic far below the population
    #: tensor at large n_chips.
    _SINK_WINDOW_ELEMS = 1_048_576

    #: whether corners release their pages after every outer block (set
    #: by the out-of-core study when its window exceeds the RSS budget)
    _streaming = False

    def __init__(
        self,
        design: PufDesign,
        view: PopulationView,
        aging: PopulationAging,
        mission: MissionProfile,
        *,
        dtype: str = "float64",
        block_size: Optional[int] = None,
        backend: Union[None, str, ArrayBackend] = None,
    ):
        if view.n_stages != design.n_stages:
            raise ValueError(
                f"population has {view.n_stages} stages per RO, design wants "
                f"{design.n_stages}"
            )
        if view.n_ros != design.n_ros:
            raise ValueError(
                f"population has {view.n_ros} ROs, design wants {design.n_ros}"
            )
        if aging.n_chips != view.n_chips:
            raise ValueError(
                f"aging carries {aging.n_chips} chips, population has "
                f"{view.n_chips}"
            )
        dt = np.dtype(dtype)
        if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.view = view
        self.aging = aging
        self._instances: Optional[List[RoPufInstance]] = None
        xp = resolve_backend(backend)
        kernel_block = block_size or self._BLOCK_ELEMS // (
            view.n_ros * view.n_stages * 2
        )
        kernel_block = max(1, min(view.n_chips, kernel_block))
        # sinks flush at the first kernel-block boundary past the window
        window = max(kernel_block, self._SINK_WINDOW_ELEMS // view.n_ros)
        native = xp.name == "numpy" and dt == np.dtype(np.float64)
        source = _RamColumns(
            view,
            aging,
            -(-window // kernel_block) * kernel_block,
            cast=None if native else (lambda a: xp.asarray(a, dt)),
        )
        self._bind(
            design,
            mission,
            source,
            (0, view.n_chips),
            kernel_block,
            stress=aging.stress,
            dtype=dt,
            backend=xp,
        )

    def _bind(
        self,
        design: PufDesign,
        mission: MissionProfile,
        source,
        rows: tuple,
        kernel_block: int,
        *,
        stress,
        dtype: np.dtype = np.dtype(np.float64),
        backend: ArrayBackend = NUMPY,
        memo: Optional[CornerMemo] = None,
    ) -> None:
        """Bind the corner loop to a column source's row window
        ``[rows[0], rows[1])``."""
        self.design = design
        self.mission = mission
        self.dtype = dtype
        self._backend = backend
        # the reference tier: float64 through literal numpy, reading the
        # original tensors (no casts)
        self._native = backend.name == "numpy" and dtype == np.dtype(np.float64)
        self._source = source
        self._rows = rows
        self._kernel_block = kernel_block
        self._stress = stress
        self._freq_memo = (
            CornerMemo(self.MEMO_SIZE, "batch.corner_memo_hits")
            if memo is None
            else memo
        )
        self._buffers: Optional[tuple] = None

    # ---- construction ------------------------------------------------

    @classmethod
    def from_study(cls, study: Study) -> "BatchStudy":
        """Stack an existing per-chip :class:`Study` (shared chips and
        prefactors, so both views answer identically)."""
        return cls(
            design=study.design,
            view=PopulationView.from_chips([inst.chip for inst in study.instances]),
            aging=PopulationAging.from_agings(study.agings),
            mission=study.mission,
        )

    @classmethod
    def from_keys(
        cls,
        design: PufDesign,
        fab_keys: Sequence[RngLike],
        aging_keys: Sequence[RngLike],
        *,
        mission: MissionProfile,
        idle_policy: Optional[IdlePolicy] = None,
        chip_ids: Optional[Sequence[int]] = None,
        dtype: str = "float64",
        block_size: Optional[int] = None,
        backend: Union[None, str, ArrayBackend] = None,
    ) -> "BatchStudy":
        """Fabricate the chips of two spawn-key lists into one study.

        Row ``i`` is the chip of ``fab_keys[i]`` / ``aging_keys[i]``,
        filled by :func:`~repro.core.fabricate.fabricate_rows` straight
        into the population tensors (no per-chip objects, no stacking).
        """
        shape = (len(fab_keys), design.n_ros, design.n_stages, 2)
        rows = {name: np.empty(shape) for name in FAB_FIELDS + AGING_FIELDS}
        fabricate_rows(design, fab_keys, aging_keys, rows)
        simulator = AgingSimulator(
            design.tech, design.cell, mission, idle_policy=idle_policy
        )
        return cls(
            design=design,
            view=PopulationView(
                rows["vth"], rows["tc_scale"], grid_positions(design.n_ros), chip_ids
            ),
            aging=PopulationAging(
                simulator.tech,
                simulator.stress,
                simulator.mission,
                rows["nbti_a"],
                rows["hci_b"],
            ),
            mission=mission,
            dtype=dtype,
            block_size=block_size,
            backend=backend,
        )

    # ---- geometry ----------------------------------------------------

    @property
    def n_chips(self) -> int:
        return self._rows[1] - self._rows[0]

    @property
    def n_bits(self) -> int:
        return self.design.n_bits

    @property
    def memo_size(self) -> int:
        return self._freq_memo.depth

    # ---- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """No-op, mirroring :class:`repro.parallel.ParallelBatchStudy`.

        The in-RAM engine holds no external resources; exposing the same
        lifecycle lets call sites ``closing(...)`` either engine.
        """

    def __enter__(self) -> "BatchStudy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def drop_cached_corners(self) -> None:
        """Forget every memoised corner, discarding spilled files too.

        Benchmarks call this between rounds so every sweep pays the full
        evaluation cost (with a spilling memo, clearing the RAM side
        alone would satisfy the next lookup from the spill directory).
        A persistent store loses only its cached corners — never its
        fabricated columns.
        """
        self._freq_memo.clear()

    # ---- batched evaluation ------------------------------------------

    def frequencies(
        self,
        t_years: float = 0.0,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """True mean frequency of every oscillator of every chip (hertz).

        Shape ``(n_chips, n_ros)``; row ``i`` equals
        ``instances[i].frequencies(conditions)`` after ``t_years`` of
        aging, to floating-point rounding (``rtol`` ~1e-12).  A spilling
        out-of-core study returns a read-only memmap of the on-disk
        corner segment.
        """
        key = corner_key(t_years, conditions)
        cached = self._freq_memo.get(key)
        return cached if cached is not None else self._corner(key)

    def responses(
        self,
        challenge: Optional[int] = None,
        t_years: float = 0.0,
        *,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Golden responses of every chip at ``t_years``.

        Shape ``(n_chips, n_bits)`` uint8; row ``i`` is bit-identical to
        ``Study.responses(challenge, t_years)[i]`` under the same seed.

        On a frequency-memo miss the bits are emitted by the fused
        kernel pass itself (one stream over the population instead of a
        compute pass plus a compare pass); on a hit they come from the
        memoised tensor.  Both orders run the identical comparison, so
        the bits cannot differ.
        """
        telemetry.count("batch.response_passes")
        key = corner_key(t_years, conditions)
        pairs = self.design.pairing.pairs(self.design.n_ros, challenge)
        bits = np.empty((self.n_chips, pairs.shape[0]), dtype=np.uint8)
        freqs = self._sinked(
            key, ResponseBlockSink(pairs, self.design.tech, self.design.readout, bits)
        )
        # forensics hook: no-op (one branch) unless a collector is installed;
        # the bits above are computed first and never depend on the capture
        record_response_margins(freqs, pairs, key[0], key[1])
        self._release_result(freqs)
        return bits

    def mechanism_frequencies(
        self,
        t_years: float,
        mechanism: str,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Counterfactual frequencies with a single aging mechanism active.

        ``mechanism`` is ``"bti"`` (NBTI/PBTI only) or ``"hci"`` (HCI
        only): the full population evaluated as if the *other* mechanism
        had contributed no threshold shift at ``t_years``.  The forensics
        layer differences these against the true aged frequencies to
        attribute each bit's margin loss to a mechanism.

        A corner pass with one aging term: the mechanism's coefficient
        column in the exact
        :meth:`~repro.aging.simulator.PopulationAging.delta_components`
        grouping (see :func:`~repro.aging.simulator.aging_terms`), so no
        population-sized delta is materialised.  Results are memoised
        alongside :meth:`frequencies` and returned read-only.  Rows are
        chip-independent, so shard evaluation concatenates to the serial
        answer bit for bit (the parallel engine relies on it).
        """
        if mechanism not in ("bti", "hci"):
            raise ValueError(f"mechanism must be 'bti' or 'hci', got {mechanism!r}")
        key = corner_key(t_years, conditions, mechanism)
        cached = self._freq_memo.get(key)
        return cached if cached is not None else self._corner(key)

    def margin_histogram(
        self,
        edges: np.ndarray,
        challenge: Optional[int] = None,
        t_years: float = 0.0,
        *,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Histogram counts of the signed response margins (int64).

        Bins the population's relative pair margins at ``t_years`` over
        the explicit ``edges`` (see
        :func:`repro.metrics.margins.histogram_edges`).  The parallel
        engine computes the same counts shard-by-shard in the workers and
        merges by addition — identical by construction because the edges
        are shared and binning is per-element.

        On a frequency-memo miss the counts are accumulated by the fused
        kernel pass (one stream over the population, no full-tensor
        margin temporary); on a hit they are binned from the memoised
        tensor, window by window.  Same per-element binning either way.
        """
        key = corner_key(t_years, conditions)
        pairs = self.design.pairing.pairs(self.design.n_ros, challenge)
        sink = MarginHistogramSink(pairs, edges)
        self._release_result(self._sinked(key, sink))
        return sink.counts

    # ---- the corner loop ---------------------------------------------

    def _sinked(self, key: tuple, sink) -> np.ndarray:
        """The corner's frequencies, with ``sink`` fed every row of it:
        from the fused pass on a memo miss, window by window from the
        memoised corner on a hit."""
        freqs = self._freq_memo.get(key)
        if freqs is None:
            return self._corner(key, (sink,))
        r0 = self._rows[0]
        for lo, hi in self._outer_blocks():
            sink(lo - r0, hi - r0, freqs[lo - r0 : hi - r0])
        return freqs

    def _outer_blocks(self):
        """``[lo, hi)`` source rows covering the window, cut at the
        source's block boundaries."""
        r0, r1 = self._rows
        bs = self._source.block_size
        lo = r0
        while lo < r1:
            hi = min(r1, (lo // bs + 1) * bs)
            yield lo, hi
            lo = hi

    def _clip_bound(self, name: str):
        """An upper bound on column ``name``'s elements (see
        :meth:`~repro.aging.simulator.PopulationAging.column`), or None
        when the source has none and every clip must run."""
        return self.aging.column(name)[1]

    def _corner(self, key: tuple, sinks: tuple = ()) -> np.ndarray:
        """Compute, memoise and return one corner in one streaming pass.

        ``key`` is ``(t, cond)`` for the aged corner or ``(t, cond,
        mechanism)`` for a single-mechanism counterfactual; the two
        differ only in their aging terms
        (:func:`~repro.aging.simulator.aging_terms`).  A term's
        saturation clip is skipped only when the column maxima prove it
        a no-op, so skipping never changes a byte.

        Per outer block (the source's ``block_size``: the unit of
        residency and of sink flushes) the loop materialises the rows it
        reads, streams them through :func:`frequency_block_kernel` in
        cache-sized kernel blocks held in two persistent work buffers,
        feeds every ``sink`` (response bits, margin histograms) the
        fresh frequency rows while they are still resident, and — when
        the window streams — flushes and releases the block's pages.
        Sinks only save re-read passes, so fused and unfused evaluation
        orders are bit-identical.
        """
        t, cond = key[0], key[1]
        mechanism = key[2] if len(key) > 2 else None
        telemetry.count("batch.corner_memo_misses")
        if sinks:
            telemetry.count("batch.fused_passes")
        sp = telemetry.start_span(
            "batch.mechanism_frequencies" if mechanism else "batch.frequencies",
            t_years=t,
            temperature_k=cond.temperature_k,
            n_chips=self.n_chips,
            n_ros=self.design.n_ros,
        )
        tech, xp, src = self.design.tech, self._backend, self._source
        vdd = cond.effective_vdd(tech)
        delta_temp = cond.temperature_k - T_REF_K
        weights = _stage_weights(
            tech,
            self.design.n_stages,
            vdd=vdd,
            temperature_k=cond.temperature_k,
            stage0_penalty=self.design.cell.stage0_penalty,
            c_load_factor=self.design.cell.c_load_factor,
        )
        w_flat = (
            np.ascontiguousarray(weights.reshape(-1))
            if self._native
            else xp.asarray(weights.reshape(-1), self.dtype)
        )
        cols = ["vth", "tc_scale"] if delta_temp != 0.0 else ["vth"]
        terms = []
        for name, factor, cap in (
            aging_terms(tech, self._stress, t, mechanism) if t > 0.0 else ()
        ):
            bound = self._clip_bound(name)
            clip = bound is None or bool(np.any(bound * factor > cap))
            if not self._native and isinstance(factor, np.ndarray):
                factor = xp.asarray(factor, self.dtype)
            cols.append(name)
            terms.append((src.column(name), factor, cap, clip))
        vth = src.column("vth")
        tc = src.column("tc_scale") if delta_temp != 0.0 else None
        shape = (self.n_chips, self.design.n_ros)
        memo = self._freq_memo
        out, spill = (
            memo.create(key, shape)
            if memo.spills
            else (xp.empty(shape, self.dtype), None)
        )
        od_buf, scratch_buf = self._work_buffers()
        kb = od_buf.shape[0]
        r0 = self._rows[0]
        neg_alpha = -tech.alpha
        tc_coeff = tech.vth_tc * delta_temp
        # one tracer lookup per corner; block clock reads only when tracing
        tr = telemetry.active()
        try:
            with xp.errstate():
                for blo, bhi in self._outer_blocks():
                    src.ensure_rows(blo, bhi, cols)
                    n_kernel = -(-(bhi - blo) // kb)
                    telemetry.count("freq.kernel_blocks", n_kernel)
                    if terms:
                        telemetry.count("aging.subtract_blocks", n_kernel)
                    for *_, clip in terms:
                        telemetry.count(
                            "aging.clip_applied" if clip else "aging.clip_skipped",
                            n_kernel,
                        )
                    for lo in range(blo, bhi, kb):
                        hi = min(lo + kb, bhi)
                        telemetry.progress("batch.frequencies", hi - r0, self.n_chips)
                        if tr is not None:
                            blk0 = time.perf_counter_ns()
                        period = out[lo - r0 : hi - r0]
                        frequency_block_kernel(
                            od_buf[: hi - lo],
                            scratch_buf[: hi - lo],
                            vth[lo:hi],
                            vdd=vdd,
                            neg_alpha=neg_alpha,
                            w_flat=w_flat,
                            period_out=period,
                            tc_rows=None if tc is None else tc[lo:hi],
                            tc_coeff=tc_coeff,
                            aging=[(col[lo:hi], f, c, k) for col, f, c, k in terms],
                            xp=xp,
                        )
                        finalize_period_block(period, xp)
                        if tr is not None:
                            tr.observe(
                                "batch.block_s", (time.perf_counter_ns() - blk0) / 1e9
                            )
                    if sinks:
                        window = out[blo - r0 : bhi - r0]
                        host = window if xp.is_host else xp.to_numpy(window)
                        for sink in sinks:
                            sink(blo - r0, bhi - r0, host)
                    if self._streaming:
                        src.release(cols, blo, bhi)
                        if spill is not None:
                            _release_rows(out, blo - r0, bhi - r0, flush=True)
        except Exception:
            if spill is not None:
                del out
                memo.discard(spill)
            telemetry.end_span(sp)
            raise
        if spill is None:
            freqs = memo.put(key, out if xp.is_host else xp.to_numpy(out))
        else:
            meta = {"t_years": t, "temperature_k": cond.temperature_k}
            if mechanism:
                meta["mechanism"] = mechanism
            freqs = memo.commit(key, out, spill, meta)
        telemetry.end_span(sp)
        if tr is not None and sp is not None:
            tr.observe("batch.corner_s", sp.duration_ns / 1e9)
        return freqs

    def _release_result(self, freqs: np.ndarray) -> None:
        """Drop a spilled corner's pages from RSS after a full pass."""
        if self._streaming and isinstance(freqs, np.memmap):
            _release_rows(freqs, 0, freqs.shape[0])

    def _work_buffers(self) -> tuple:
        """Persistent kernel-block scratch (overdrive + delta).

        Allocating (and page-faulting) a population-sized array per
        corner would cost as much as the arithmetic itself, and
        block-sized buffers stay L2-resident through the whole
        subtract/clip/power chain.
        """
        if self._buffers is None:
            shape = (self._kernel_block, self.design.n_ros, self.design.n_stages, 2)
            self._buffers = (
                self._backend.empty(shape, self.dtype),
                self._backend.empty(shape, self.dtype),
            )
        return self._buffers

    # ---- per-chip views (back-compat) --------------------------------

    @property
    def instances(self) -> List[RoPufInstance]:
        """Thin per-chip views over the fresh population (cached)."""
        if self._instances is None:
            self._instances = [
                self.design.instantiate(self.view.chip(i))
                for i in range(self.n_chips)
            ]
        return self._instances

    @property
    def agings(self) -> List[ChipAging]:
        """Per-chip :class:`ChipAging` views (sliced prefactors, no copy)."""
        return [
            self.aging.chip_aging(i, self.view.chip(i))
            for i in range(self.n_chips)
        ]

    def aged_instances(self, t_years: float) -> List[RoPufInstance]:
        """Every instance rebound to its chip aged by ``t_years``."""
        if t_years == 0:
            return list(self.instances)
        delta = self.aging.delta(t_years)
        return [
            self.design.instantiate(
                Chip(
                    vth=self.view.vth[i] + delta[i],
                    positions=self.view.positions,
                    tc_scale=self.view.tc_scale[i],
                    chip_id=self.view.chip_ids[i],
                )
            )
            for i in range(self.n_chips)
        ]


def _release_rows(mm: np.memmap, lo: int, hi: int, flush: bool = False) -> None:
    """Drop rows ``[lo, hi)`` of a corner memmap from the resident set,
    writing them back first if ``flush``."""
    # the store package imports this module, so import its helpers late
    from ..store.store import flush_rows, release_rows

    if flush:
        flush_rows(mm, lo, hi)
    release_rows(mm, lo, hi)


def make_batch_study(
    design: PufDesign,
    n_chips: int,
    *,
    mission: Optional[MissionProfile] = None,
    idle_policy: Optional[IdlePolicy] = None,
    rng: RngLike = None,
    dtype: str = "float64",
    block_size: Optional[int] = None,
    backend: Union[None, str, ArrayBackend] = None,
) -> BatchStudy:
    """Fabricate ``n_chips`` of ``design`` as one batched study.

    Consumes the RNG exactly like :func:`~repro.core.factory.make_study`
    (fabrication children first, then one aging child per chip, NBTI
    prefactors before HCI; see :meth:`BatchStudy.from_keys`), so the same
    seed yields the same silicon on both paths: golden responses and
    aging deltas are bit-identical, and frequencies agree to rounding.  ``dtype`` / ``backend`` /
    ``block_size`` select the kernel tier (see :class:`BatchStudy`);
    fabrication itself always samples in float64, so every tier starts
    from identical silicon.
    """
    if n_chips <= 0:
        raise ValueError("n_chips must be positive")
    fab_rng, aging_rng = spawn(rng, 2)
    mission = mission or MissionProfile()
    with telemetry.span("fabricate.batch_study", n_chips=n_chips, n_ros=design.n_ros):
        return BatchStudy.from_keys(
            design,
            spawn_keys(fab_rng, n_chips),
            spawn_keys(aging_rng, n_chips),
            mission=mission,
            idle_policy=idle_policy,
            dtype=dtype,
            block_size=block_size,
            backend=backend,
        )
