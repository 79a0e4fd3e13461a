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
  :class:`~repro.core.factory.Study`: one
  :class:`~repro.aging.simulator.PopulationAging` for the whole
  population, one ``ring_frequency``-equivalent call per (year, corner),
  and chip-axis-aware readout;
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
from ..aging.simulator import AgingSimulator, ChipAging, PopulationAging
from ..environment.conditions import OperatingConditions
from ..forensics.hook import record_response_margins
from ..kernel.backend import ArrayBackend, resolve_backend
from ..kernel.fused import (
    OVERDRIVE_ERROR,
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
from .readout import compare_pairs

__all__ = [
    "PopulationView",
    "BatchStudy",
    "make_batch_study",
    "frequency_block_kernel",
    "batch_frequencies_from_overdrive",
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


def batch_frequencies_from_overdrive(
    overdrive: np.ndarray, tech: TechnologyCard, weights: np.ndarray
) -> np.ndarray:
    """Ring frequencies from a gate-overdrive tensor (hot kernel).

    ``overdrive`` has shape ``(..., n_stages, 2)`` and **is consumed**
    (overwritten in place); ``weights`` comes from :func:`_stage_weights`.
    Returns the ``(...,)`` frequency array in hertz.

    ``od ** -alpha`` is evaluated as ``exp(-alpha * log(od))`` in place —
    measurably faster than ``np.power`` and within a couple of ULPs of
    it.  A non-positive overdrive (supply too low for some device) turns
    into a NaN/inf period, which is detected on the small reduced array
    instead of a full-tensor precheck.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        np.log(overdrive, out=overdrive)
        overdrive *= -tech.alpha
        np.exp(overdrive, out=overdrive)
        period = np.tensordot(overdrive, weights, axes=([-2, -1], [0, 1]))
    if not np.isfinite(period).all():
        raise ValueError(OVERDRIVE_ERROR)
    return np.reciprocal(period)


class BatchStudy:
    """A fabricated, aging-ready population evaluated whole-array at once.

    The batched counterpart of :class:`~repro.core.factory.Study`: the
    same design / mission bundle, but frequencies and responses come back
    as ``(n_chips, ...)`` arrays from one vectorised pass instead of a
    Python loop over per-chip instances.  Per-chip
    :class:`RoPufInstance` views remain available through
    :attr:`instances` / :meth:`aged_instances` for code that wants the
    scalar API.

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
        self.design = design
        self.view = view
        self.aging = aging
        self.mission = mission
        self.dtype = dt
        self._backend = resolve_backend(backend)
        # the reference tier: float64 through literal numpy — this path
        # must stay byte-identical to the pre-seam engine, so it uses
        # the original tensors (no casts) and the memoised-delta branch
        self._native = (
            self._backend.name == "numpy" and dt == np.dtype(np.float64)
        )
        self._block_size = block_size
        self._freq_memo: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._od_buf = None
        self._scratch_buf = None
        self._inputs: Optional[tuple] = None
        self._instances: Optional[List[RoPufInstance]] = None

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
        return self.view.n_chips

    @property
    def n_bits(self) -> int:
        return self.design.n_bits

    # ---- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """No-op, mirroring :class:`repro.parallel.ParallelBatchStudy`.

        The serial engine holds no external resources; exposing the same
        lifecycle lets call sites ``closing(...)`` either engine.
        """

    def __enter__(self) -> "BatchStudy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---- batched evaluation ------------------------------------------

    def frequencies(
        self,
        t_years: float = 0.0,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """True mean frequency of every oscillator of every chip (hertz).

        Shape ``(n_chips, n_ros)``; row ``i`` equals
        ``instances[i].frequencies(conditions)`` after ``t_years`` of
        aging, to floating-point rounding (``rtol`` ~1e-12).
        """
        cond = conditions or OperatingConditions.nominal()
        t = float(t_years)
        cached = self._memo_lookup((t, cond))
        if cached is not None:
            return cached
        return self._corner_pass(t, cond, ())

    def _memo_lookup(self, key: tuple) -> Optional[np.ndarray]:
        cached = self._freq_memo.get(key)
        if cached is not None:
            self._freq_memo.move_to_end(key)
            telemetry.count("batch.corner_memo_hits")
        return cached

    def _memoise(self, key: tuple, freqs: np.ndarray) -> np.ndarray:
        freqs.flags.writeable = False
        self._freq_memo[key] = freqs
        if len(self._freq_memo) > self.MEMO_SIZE:
            self._freq_memo.popitem(last=False)
        return freqs

    def _corner_pass(self, t: float, cond: OperatingConditions, sinks: tuple):
        """One fused streaming pass over the population at ``(t, cond)``.

        Per chip-axis block: fabricate overdrives, subtract the aging
        field, reduce to periods, flip to frequencies.  Every ``sink``
        (response bits, margin histograms) consumes the fresh frequency
        rows from the same pass in bounded super-block windows
        (:data:`_SINK_WINDOW_ELEMS`) — coarse enough to amortise the
        per-call dispatch that would otherwise dominate at kernel-block
        granularity, small enough that at large ``n_chips`` the rows are
        still cache-warm and the pass never re-streams the full tensor.
        The assembled frequency tensor is memoised exactly as before;
        sinks only save the *re-read* passes, so fused and unfused
        evaluation orders are bit-identical.
        """
        telemetry.count("batch.corner_memo_misses")
        if sinks:
            telemetry.count("batch.fused_passes")
        sp = telemetry.start_span(
            "batch.frequencies",
            t_years=t,
            temperature_k=cond.temperature_k,
            n_chips=self.view.n_chips,
            n_ros=self.view.n_ros,
        )

        tech = self.design.tech
        xp = self._backend
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
        vth_t, tc_t, bti_dir, hci_dir = self._kernel_inputs()
        delta = (
            self.aging.cached_delta(t) if (t > 0.0 and self._native) else None
        )
        subtract_block = (
            None
            if (t == 0.0 or self._native)
            else self.aging.block_subtracter(t, (bti_dir, hci_dir), xp=xp)
        )
        n_chips = self.view.n_chips
        period = xp.empty((n_chips, self.view.n_ros), self.dtype)
        # The overdrive tensor is assembled block-by-block along the chip
        # axis in two persistent buffers: allocating (and page-faulting) a
        # population-sized array per grid point would cost as much as the
        # arithmetic itself, and block-sized work buffers stay L2-resident
        # through the whole subtract/clip/power chain instead of streaming
        # a population-sized tensor through the cache several times over.
        od_buf, scratch_buf = self._work_buffers()
        neg_alpha = -tech.alpha
        w_flat = (
            np.ascontiguousarray(weights.reshape(-1))
            if self._native
            else xp.asarray(weights.reshape(-1), self.dtype)
        )
        block = od_buf.shape[0]
        n_blocks = -(-n_chips // block)
        telemetry.count("freq.kernel_blocks", n_blocks)
        sink_window = (
            max(block, self._SINK_WINDOW_ELEMS // self.view.n_ros)
            if sinks
            else 0
        )
        flush_lo = 0
        # histogram hook hoisted out of the loop: one tracer lookup per
        # corner, and the per-block clock reads only happen when tracing
        tr = telemetry.active()
        try:
            with xp.errstate():
                for start in range(0, n_chips, block):
                    stop = min(start + block, n_chips)
                    telemetry.progress("batch.frequencies", stop, n_chips)
                    if tr is not None:
                        _blk0 = time.perf_counter_ns()
                    rows = slice(start, stop)
                    if t > 0.0:
                        if delta is not None:
                            def subtract(od, scratch, rows=rows):
                                od -= delta[rows]
                        elif subtract_block is not None:
                            def subtract(od, scratch, rows=rows):
                                subtract_block(od, scratch, rows)
                        else:
                            def subtract(od, scratch, rows=rows):
                                self.aging.subtract_delta_into(
                                    t, od, scratch, rows=rows
                                )
                    else:
                        subtract = None
                    period_rows = period[rows]
                    frequency_block_kernel(
                        od_buf[: stop - start],
                        scratch_buf[: stop - start],
                        vth_t[rows],
                        vdd=vdd,
                        neg_alpha=neg_alpha,
                        w_flat=w_flat,
                        period_out=period_rows,
                        tc_rows=tc_t[rows] if delta_temp != 0.0 else None,
                        tc_coeff=tech.vth_tc * delta_temp,
                        subtract_aging=subtract,
                        xp=xp,
                    )
                    finalize_period_block(period_rows, xp)
                    if sinks and (
                        stop - flush_lo >= sink_window or stop == n_chips
                    ):
                        window = period[flush_lo:stop]
                        host_rows = (
                            window if xp.is_host else xp.to_numpy(window)
                        )
                        for sink in sinks:
                            sink(flush_lo, stop, host_rows)
                        flush_lo = stop
                    if tr is not None:
                        tr.observe(
                            "batch.block_s",
                            (time.perf_counter_ns() - _blk0) / 1e9,
                        )
        except Exception:
            telemetry.end_span(sp)
            raise
        freqs = period if xp.is_host else xp.to_numpy(period)
        self._memoise((t, cond), freqs)
        telemetry.end_span(sp)
        if tr is not None and sp is not None:
            tr.observe("batch.corner_s", sp.duration_ns / 1e9)
        return freqs

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
        cond = conditions or OperatingConditions.nominal()
        t = float(t_years)
        pairs = self.design.pairing.pairs(self.design.n_ros, challenge)
        freqs = self._memo_lookup((t, cond))
        if freqs is not None:
            bits = compare_pairs(
                freqs, pairs, self.design.tech, self.design.readout
            )
        else:
            bits = np.empty(
                (self.view.n_chips, pairs.shape[0]), dtype=np.uint8
            )
            sink = ResponseBlockSink(
                pairs, self.design.tech, self.design.readout, bits
            )
            freqs = self._corner_pass(t, cond, (sink,))
        # forensics hook: no-op (one branch) unless a collector is installed;
        # the bits above are computed first and never depend on the capture
        record_response_margins(freqs, pairs, t, cond)
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

        Cold path by design — a report evaluates it a handful of times,
        never inside a sweep loop — but it streams through the fused
        kernel's block buffers all the same: the old full-tensor
        evaluation materialised the overdrive tensor *plus both*
        :meth:`~repro.aging.simulator.PopulationAging.delta_components`
        fields, roughly doubling peak RSS during a forensics capture at
        large ``n_chips``.  The blocked chain subtracts only the
        requested mechanism's component per block (same grouping, same
        clip decision), so results are bit-identical to the full-tensor
        path while allocating nothing beyond the result.  Results are
        memoised alongside :meth:`frequencies` and returned read-only.
        Rows are chip-independent, so shard evaluation concatenates to
        the serial answer bit for bit (the parallel engine relies on it).
        """
        if mechanism not in ("bti", "hci"):
            raise ValueError(f"mechanism must be 'bti' or 'hci', got {mechanism!r}")
        cond = conditions or OperatingConditions.nominal()
        t = float(t_years)
        key = (t, cond, mechanism)
        cached = self._memo_lookup(key)
        if cached is not None:
            return cached
        telemetry.count("batch.mechanism_passes")
        xp = self._backend
        with telemetry.span(
            "batch.mechanism_frequencies",
            t_years=t,
            mechanism=mechanism,
            n_chips=self.view.n_chips,
        ):
            tech = self.design.tech
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
            vth_t, tc_t, _, _ = self._kernel_inputs()
            subtract = (
                self.aging.component_subtracter(
                    t, mechanism, xp=xp, dtype=None if self._native else self.dtype
                )
                if t > 0.0
                else None
            )
            n_chips = self.view.n_chips
            period = xp.empty((n_chips, self.view.n_ros), self.dtype)
            od_buf, scratch_buf = self._work_buffers()
            w_flat = (
                np.ascontiguousarray(weights.reshape(-1))
                if self._native
                else xp.asarray(weights.reshape(-1), self.dtype)
            )
            block = od_buf.shape[0]
            with xp.errstate():
                for start in range(0, n_chips, block):
                    stop = min(start + block, n_chips)
                    rows = slice(start, stop)
                    period_rows = period[rows]
                    frequency_block_kernel(
                        od_buf[: stop - start],
                        scratch_buf[: stop - start],
                        vth_t[rows],
                        vdd=vdd,
                        neg_alpha=-tech.alpha,
                        w_flat=w_flat,
                        period_out=period_rows,
                        tc_rows=tc_t[rows] if delta_temp != 0.0 else None,
                        tc_coeff=tech.vth_tc * delta_temp,
                        subtract_aging=(
                            None
                            if subtract is None
                            else (
                                lambda od, scratch, rows=rows: subtract(
                                    od, scratch, rows
                                )
                            )
                        ),
                        xp=xp,
                    )
                    finalize_period_block(period_rows, xp)
            freqs = period if xp.is_host else xp.to_numpy(period)
        return self._memoise(key, freqs)

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
        tensor.  Same per-element binning either way.
        """
        from ..metrics.margins import margin_histogram, relative_margins

        pairs = self.design.pairing.pairs(self.design.n_ros, challenge)
        cond = conditions or OperatingConditions.nominal()
        t = float(t_years)
        freqs = self._memo_lookup((t, cond))
        if freqs is not None:
            return margin_histogram(relative_margins(freqs, pairs), edges)
        sink = MarginHistogramSink(pairs, edges)
        self._corner_pass(t, cond, (sink,))
        return sink.counts

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

    # ---- internals ---------------------------------------------------

    #: chip-axis block size of the work buffers, in tensor elements.  Two
    #: buffers of ~48k float64 elements (~380 KiB each) fit comfortably in
    #: a commodity 1-2 MiB L2 alongside the streamed input slices, which
    #: is worth ~1.5x on the memory-bound part of the frequency kernel.
    _BLOCK_ELEMS = 48_000

    #: sink flush window, in elements of the period/frequency tensor
    #: (~8 MiB of float64 rows).  Sinks are fed at this coarser
    #: granularity rather than per kernel block: their per-call gather /
    #: compare dispatch costs ~10 us regardless of size, which at
    #: kernel-block width (a few dozen chips) would dominate the corner;
    #: an 8 MiB window amortises it to noise while still bounding the
    #: re-read traffic far below the population tensor at large n_chips.
    _SINK_WINDOW_ELEMS = 1_048_576

    def _work_buffers(self) -> tuple:
        """Persistent chip-axis-blocked scratch (overdrive + delta)."""
        if self._od_buf is None:
            per_chip = self.view.n_ros * self.view.n_stages * 2
            block = max(1, min(self.view.n_chips, self._BLOCK_ELEMS // per_chip))
            if self._block_size is not None:
                block = max(1, min(self.view.n_chips, self._block_size))
            shape = (block,) + self.view.vth.shape[1:]
            self._od_buf = self._backend.empty(shape, self.dtype)
            self._scratch_buf = self._backend.empty(shape, self.dtype)
        return self._od_buf, self._scratch_buf

    def _kernel_inputs(self) -> tuple:
        """The (vth, tc_scale, bti_dir, hci_dir) tensors the kernel reads.

        The native tier hands back the original float64 views unchanged
        (zero copies, zero byte drift); any other (dtype, backend)
        combination casts each tensor once on first use and keeps the
        casts for the study's lifetime.  The direction tensors are only
        materialised off-native — the native aging subtraction goes
        through :meth:`PopulationAging.subtract_delta_into` as before.
        """
        if self._inputs is None:
            if self._native:
                self._inputs = (self.view.vth, self.view.tc_scale, None, None)
            else:
                xp, dt = self._backend, self.dtype
                bti_dir, hci_dir = self.aging.direction_tensors()
                self._inputs = (
                    xp.asarray(self.view.vth, dt),
                    xp.asarray(self.view.tc_scale, dt),
                    xp.asarray(bti_dir, dt),
                    xp.asarray(hci_dir, dt),
                )
        return self._inputs


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
