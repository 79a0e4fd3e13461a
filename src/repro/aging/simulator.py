"""Aging orchestration: from a fresh chip to its aged views over time.

:class:`AgingSimulator` binds a technology, an oscillator cell design and a
mission profile.  For each chip it samples the per-device aging prefactors
*once* (they are physical properties of the individual devices) and hands
back a :class:`ChipAging` that can produce a consistent aged
:class:`~repro.variation.chip.Chip` at any point of the mission — the
degradation trajectory of every device is monotone and self-consistent
across time points, which is what lets experiments sweep 0.5 .. 10 years
and get smooth bit-flip curves.

:class:`PopulationAging` is the batched companion: one object holding the
prefactors of a whole population as ``(n_chips, n_ros, n_stages, 2)``
tensors, evaluating the threshold-shift field of every chip in a single
vectorised pass per time point.  Its deltas are bit-identical to the
per-chip :meth:`ChipAging.delta` under the same sampled prefactors.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import telemetry
from .._rng import RngLike, as_generator, spawn, spawn_keys
from ..circuit.cells import CellDescriptor
from ..transistor.technology import TechnologyCard
from ..variation.chip import NMOS, PMOS, Chip, ChipPopulation
from . import hci, nbti
from .schedule import IdlePolicy, MissionProfile
from .stress import StressProfile, compute_stress


@dataclass(frozen=True)
class ChipAging:
    """The aging trajectory of one chip (prefactors frozen at creation)."""

    chip: Chip
    tech: TechnologyCard
    stress: StressProfile
    mission: MissionProfile
    nbti_a: np.ndarray
    hci_b: np.ndarray

    def delta(self, t_years: float) -> np.ndarray:
        """Per-device threshold shift after ``t_years`` (volts).

        Shape matches ``chip.vth``: ``(n_ros, n_stages, 2)``.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        shape = self.chip.vth.shape
        delta = np.zeros(shape)
        temp = self.mission.temperature_k
        params = self.tech.nbti

        # PMOS: NBTI (dominant) + a reduced HCI share
        delta[:, :, PMOS] += nbti.bti_shift(
            self.stress.nbti_duty[None, :, PMOS],
            t_years,
            params,
            prefactor=self.nbti_a[:, :, PMOS],
            temperature_k=temp,
        )
        delta[:, :, PMOS] += hci.hci_shift(
            self.stress.transitions_per_year[None, :, PMOS] * t_years,
            self.tech.hci,
            prefactor=self.hci_b[:, :, PMOS],
            pmos=True,
        )

        # NMOS: PBTI (weak) + full HCI
        delta[:, :, NMOS] += nbti.bti_shift(
            self.stress.pbti_duty[None, :, NMOS],
            t_years,
            params,
            prefactor=self.nbti_a[:, :, NMOS],
            temperature_k=temp,
            pbti=True,
        )
        delta[:, :, NMOS] += hci.hci_shift(
            self.stress.transitions_per_year[None, :, NMOS] * t_years,
            self.tech.hci,
            prefactor=self.hci_b[:, :, NMOS],
            pmos=False,
        )
        return delta

    def aged(self, t_years: float) -> Chip:
        """The chip as manufactured plus ``t_years`` of field aging."""
        if t_years == 0:
            return self.chip
        return self.chip.with_delta(self.delta(t_years))

    def mean_frequency_degradation(self, t_years: float) -> float:
        """Population-mean fractional frequency loss at ``t_years``.

        A cheap first-order figure (delay-sensitivity-weighted mean Vth
        shift) used for quick reporting; experiments that need the real
        number recompute frequencies through the delay model.
        """
        from ..transistor.mosfet import delay_sensitivity

        sens = delay_sensitivity(self.tech)
        d = self.delta(t_years)
        # each of the 2*n_stages transition components carries equal weight
        return float(np.mean(np.sum(d, axis=(1, 2)) * sens / (2 * self.chip.n_stages)))


class AgingSimulator:
    """Builds :class:`ChipAging` trajectories for a fixed design point."""

    def __init__(
        self,
        tech: TechnologyCard,
        cell: CellDescriptor,
        mission: Optional[MissionProfile] = None,
        idle_policy: Optional[IdlePolicy] = None,
    ):
        self.tech = tech
        self.cell = cell
        self.mission = mission or MissionProfile()
        self.idle_policy = idle_policy
        self.stress = compute_stress(cell, self.mission, idle_policy)

    def for_chip(self, chip: Chip, rng: RngLike = None) -> ChipAging:
        """Sample the chip's device prefactors and return its trajectory."""
        if chip.n_stages != self.cell.n_stages:
            raise ValueError(
                f"chip has {chip.n_stages} stages but the cell expects "
                f"{self.cell.n_stages}"
            )
        gen = as_generator(rng)
        shape = chip.vth.shape
        return ChipAging(
            chip=chip,
            tech=self.tech,
            stress=self.stress,
            mission=self.mission,
            nbti_a=nbti.sample_prefactors(shape, self.tech.nbti, gen),
            hci_b=hci.sample_prefactors(shape, self.tech.hci, gen),
        )

    def for_population(
        self, population: ChipPopulation, rng: RngLike = None
    ) -> list:
        """Trajectories for every chip (independent child RNG per chip)."""
        children = spawn(rng, len(population))
        return [
            self.for_chip(chip, child)
            for chip, child in zip(population, children)
        ]

    def population_aging(
        self, population: ChipPopulation, rng: RngLike = None
    ) -> "PopulationAging":
        """Batched trajectory of the whole population (see
        :class:`PopulationAging`).  Consumes the RNG exactly like
        :meth:`for_population` (one spawned child per chip, NBTI before
        HCI; see :func:`sample_prefactor_rows`), so the same seed yields
        the same prefactors on both paths.
        """
        chips = list(population)
        if not chips:
            raise ValueError("population is empty")
        shape = (len(chips),) + chips[0].vth.shape
        nbti_a, hci_b = np.empty(shape), np.empty(shape)
        sample_prefactor_rows(self.tech, spawn_keys(rng, len(chips)), nbti_a, hci_b)
        return PopulationAging(self.tech, self.stress, self.mission, nbti_a, hci_b)


def sample_prefactor_rows(
    tech: TechnologyCard,
    streams: Sequence[RngLike],
    nbti_a: Optional[np.ndarray] = None,
    hci_b: Optional[np.ndarray] = None,
    *,
    heartbeat: bool = True,
) -> None:
    """Replay :meth:`AgingSimulator.for_chip` prefactor draws into rows.

    Row ``i`` of ``nbti_a`` / ``hci_b`` (shape ``(len(streams), n_ros,
    n_stages, 2)``) receives the NBTI and HCI prefactors drawn from
    ``streams[i]``, NBTI before HCI, exactly as the per-chip path draws
    them.  ``hci_b=None`` skips the HCI draw (the last on the stream);
    ``nbti_a=None`` still makes the NBTI draw to reach the HCI one.
    ``heartbeat`` emits the ``aging.sample_prefactors`` progress stream.
    """
    ref = nbti_a if nbti_a is not None else hci_b
    if ref is None:
        return
    n = len(streams)
    for rows in (nbti_a, hci_b):
        if rows is not None and rows.shape != ref.shape:
            raise ValueError("nbti_a and hci_b must have the same shape")
    if ref.shape[0] != n:
        raise ValueError(f"{n} streams for {ref.shape[0]} rows")
    shape = ref.shape[1:]
    with telemetry.span("aging.sample_prefactors", n_chips=n):
        for i, stream in enumerate(streams):
            gen = as_generator(stream)
            a = nbti.sample_prefactors(shape, tech.nbti, gen)
            if nbti_a is not None:
                nbti_a[i] = a
            if hci_b is not None:
                hci_b[i] = hci.sample_prefactors(shape, tech.hci, gen)
            if heartbeat:
                telemetry.progress("aging.sample_prefactors", i + 1, n)


def _per_polarity(nmos: float, pmos: float) -> np.ndarray:
    """A last-axis factor pair, NMOS and PMOS in device-polarity order."""
    pair = np.empty(2)
    pair[NMOS], pair[PMOS] = nmos, pmos
    return pair


def fold_bti(
    tech: TechnologyCard, mission: MissionProfile, nbti_a: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fold raw NBTI prefactors into BTI coefficients, elementwise.

    ``(polarity factor * a) * k_T``: factor 1 for PMOS (NBTI), the PBTI
    factor for NMOS, ``k_T`` the mission's Arrhenius acceleration — the
    grouping :meth:`ChipAging.delta` uses.  ``out`` may be ``nbti_a``
    itself.  Returns ``out``.
    """
    params = tech.nbti
    k_t = nbti.temperature_acceleration(mission.temperature_k, params)
    np.multiply(_per_polarity(params.pbti_factor, 1.0), nbti_a, out=out)
    out *= k_t
    return out


def fold_hci(hci_b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fold raw HCI prefactors into HCI coefficients (PMOS share reduced
    by :data:`~repro.aging.hci.PMOS_HCI_FACTOR`).  ``out`` may be
    ``hci_b`` itself.  Returns ``out``."""
    return np.multiply(_per_polarity(1.0, hci.PMOS_HCI_FACTOR), hci_b, out=out)


def stress_tensors(stress: StressProfile) -> tuple:
    """``(duty, tpy)`` shaped ``(1, 1, n_stages, 2)`` for broadcast
    against the population tensor: PMOS takes the NBTI duty, NMOS the
    PBTI duty; transitions per year per device."""
    n_stages = stress.n_stages
    duty = np.empty((1, 1, n_stages, 2))
    duty[0, 0, :, PMOS] = stress.nbti_duty[:, PMOS]
    duty[0, 0, :, NMOS] = stress.pbti_duty[:, NMOS]
    tpy = np.empty((1, 1, n_stages, 2))
    tpy[0, 0, :, PMOS] = stress.transitions_per_year[:, PMOS]
    tpy[0, 0, :, NMOS] = stress.transitions_per_year[:, NMOS]
    return duty, tpy


def direction_powers(tech: TechnologyCard, duty: np.ndarray, tpy: np.ndarray) -> tuple:
    """The time-independent stress powers that turn the BTI / HCI
    coefficients into the factored direction tensors (``bti_dir =
    bti_coeff * duty_pow``, ``hci_dir = hci_coeff * tpy_pow``)."""
    return (
        duty ** tech.nbti.n,
        (tpy / tech.hci.ref_transitions) ** tech.hci.m,
    )


class PopulationAging:
    """Vectorised aging trajectories of a whole chip population.

    Where :class:`ChipAging` evaluates the NBTI/HCI closed form for one
    chip per call, this class stacks every chip's per-device prefactors
    into ``(n_chips, n_ros, n_stages, 2)`` tensors and evaluates the
    threshold-shift field of the *entire population* in one numpy pass
    per time point.

    The time-independent pieces of the closed form — the duty factors, the
    Arrhenius temperature acceleration and the prefactor products — are
    folded into two coefficient tensors at construction, so each
    :meth:`delta` call only evaluates the ``t``-dependent power laws (tiny
    ``(n_stages, 2)`` arrays) and two broadcast multiply/clip chains over
    the population tensor.  The per-element operation grouping matches
    :meth:`ChipAging.delta` exactly, so deltas are **bit-identical** to
    the per-chip path.

    Repeated queries at the same time point (golden responses, metric
    re-use) hit an LRU memo; memoised arrays are returned read-only.
    """

    #: number of distinct time points kept in the delta memo
    MEMO_SIZE = 16

    def __init__(
        self,
        tech: TechnologyCard,
        stress: StressProfile,
        mission: MissionProfile,
        nbti_a: np.ndarray,
        hci_b: np.ndarray,
    ):
        nbti_a = np.asarray(nbti_a, dtype=float)
        hci_b = np.asarray(hci_b, dtype=float)
        if nbti_a.ndim != 4 or nbti_a.shape[-1] != 2:
            raise ValueError(
                "nbti_a must have shape (n_chips, n_ros, n_stages, 2), "
                f"got {nbti_a.shape}"
            )
        if hci_b.shape != nbti_a.shape:
            raise ValueError(
                f"hci_b shape {hci_b.shape} does not match nbti_a {nbti_a.shape}"
            )
        if nbti_a.shape[2] != stress.n_stages:
            raise ValueError(
                f"prefactors carry {nbti_a.shape[2]} stages but the stress "
                f"profile has {stress.n_stages}"
            )
        self.tech = tech
        self.stress = stress
        self.mission = mission
        self.nbti_a = nbti_a
        self.hci_b = hci_b

        # ---- time-independent factors, folded once -------------------
        # ChipAging.delta computes, per element,
        #   ((scale * a) * k_T) * (duty * t) ** n          (BTI)
        #   (scale * b) * ((tpy * t) / N_ref) ** m         (HCI)
        # and delta() reproduces exactly that grouping from the folded
        # coefficients ((scale * a) * k_T, scale * b), so the batched
        # delta is bit-identical to the per-chip one.  The coefficients
        # are folded on first use (see _folded): the hot frequency path
        # reads only the fully-factored stress directions
        #   delta(t) = t**n * bti_dir + t**m * hci_dir   (clips aside)
        # which pull the duty/transition powers out of the time loop.
        # That regroups the closed form (ULP-level drift), so only
        # subtract_delta_into uses it.
        self._duty, self._tpy = stress_tensors(stress)
        duty_pow, tpy_pow = direction_powers(tech, self._duty, self._tpy)
        self._bti_dir = fold_bti(tech, mission, nbti_a, np.empty_like(nbti_a))
        self._bti_dir *= duty_pow
        self._hci_dir = fold_hci(hci_b, np.empty_like(hci_b))
        self._hci_dir *= tpy_pow
        self._bti_dir_max = float(self._bti_dir.max())
        self._hci_dir_max = float(self._hci_dir.max())
        self._coeffs: dict = {}
        self._memo: "OrderedDict[float, np.ndarray]" = OrderedDict()

    # ---- construction ------------------------------------------------

    @classmethod
    def from_agings(cls, agings: Sequence[ChipAging]) -> "PopulationAging":
        """Stack existing per-chip trajectories (they must share one
        simulator, i.e. one technology/stress/mission)."""
        agings = list(agings)
        if not agings:
            raise ValueError("need at least one ChipAging")
        first = agings[0]
        return cls(
            tech=first.tech,
            stress=first.stress,
            mission=first.mission,
            nbti_a=np.stack([a.nbti_a for a in agings]),
            hci_b=np.stack([a.hci_b for a in agings]),
        )

    # ---- geometry ----------------------------------------------------

    @property
    def n_chips(self) -> int:
        return self.nbti_a.shape[0]

    @property
    def n_ros(self) -> int:
        return self.nbti_a.shape[1]

    @property
    def n_stages(self) -> int:
        return self.nbti_a.shape[2]

    # ---- evaluation --------------------------------------------------

    def _folded(self, mechanism: str) -> tuple:
        """``(coeff, coeff_max)`` of one mechanism, folded on first use.

        ``coeff`` is the population-sized coefficient tensor in
        :meth:`ChipAging.delta`'s grouping; ``coeff_max`` its
        per-(stage, polarity) maximum, which lets evaluation prove a clip
        is a no-op from a 10-element check and skip the population-sized
        minimum pass (bitwise identical either way).  A sweep that only
        subtracts through the direction tensors never builds either.
        """
        folded = self._coeffs.get(mechanism)
        if folded is None:
            if mechanism == "bti":
                coeff = fold_bti(
                    self.tech, self.mission, self.nbti_a, np.empty_like(self.nbti_a)
                )
            else:
                coeff = fold_hci(self.hci_b, np.empty_like(self.hci_b))
            folded = self._coeffs[mechanism] = (coeff, coeff.max(axis=(0, 1)))
        return folded

    def delta(self, t_years: float) -> np.ndarray:
        """Population threshold-shift field after ``t_years`` (volts).

        Shape ``(n_chips, n_ros, n_stages, 2)``; row ``i`` is bit-identical
        to ``ChipAging.delta(t_years)`` of chip ``i``.  The returned array
        is memoised and read-only — copy before mutating.
        """
        t = float(t_years)
        cached = self._memo.get(t)
        if cached is not None:
            self._memo.move_to_end(t)
            telemetry.count("aging.delta_memo_hits")
            return cached
        telemetry.count("aging.delta_memo_misses")

        delta = self.delta_into(t, np.empty_like(self.nbti_a))
        delta.flags.writeable = False
        self._memo[t] = delta
        if len(self._memo) > self.MEMO_SIZE:
            self._memo.popitem(last=False)
        return delta

    def delta_into(self, t_years: float, out: np.ndarray) -> np.ndarray:
        """:meth:`delta` evaluated into a caller-owned buffer (no memo).

        The hot loop of a year sweep calls this with one persistent buffer
        so that no population-sized array is allocated (and page-faulted)
        per grid point.  Returns ``out``.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        t = float(t_years)
        sp = telemetry.start_span(
            "aging.delta", t_years=t, n_chips=self.n_chips
        )
        # t-dependent power laws on the tiny (1, 1, n_stages, 2) stress
        # arrays; everything population-sized below is multiply/clip/add.
        pow_bti = np.power(self._duty * t, self.tech.nbti.n)
        pow_hci = np.power(
            (self._tpy * t) / self.tech.hci.ref_transitions, self.tech.hci.m
        )
        bti_coeff, bti_max = self._folded("bti")
        hci_coeff, hci_max = self._folded("hci")
        np.multiply(bti_coeff, pow_bti, out=out)
        if (bti_max * pow_bti[0, 0] > self.tech.nbti.max_shift).any():
            telemetry.count("aging.clip_applied")
            np.minimum(out, self.tech.nbti.max_shift, out=out)
        else:
            telemetry.count("aging.clip_skipped")
        hci_part = hci_coeff * pow_hci
        if (hci_max * pow_hci[0, 0] > self.tech.hci.max_shift).any():
            telemetry.count("aging.clip_applied")
            np.minimum(hci_part, self.tech.hci.max_shift, out=hci_part)
        else:
            telemetry.count("aging.clip_skipped")
        np.add(out, hci_part, out=out)
        telemetry.end_span(sp)
        return out

    def _component_terms(self, t: float, mechanism: str) -> tuple:
        """``(coeff, pow_mech, clip, cap)`` of one mechanism at ``t``.

        ``pow_mech`` is the tiny ``(1, 1, n_stages, 2)`` time power-law
        array, ``clip`` the population-wide decision whether the
        saturation cap is reachable (proved from the per-stage maxima, so
        skipping the clip pass is bitwise identical to applying it).
        The expressions match :meth:`delta_into` operation for operation.
        """
        if mechanism == "bti":
            pow_mech = np.power(self._duty * t, self.tech.nbti.n)
            cap = self.tech.nbti.max_shift
            coeff, coeff_max = self._folded("bti")
            clip = bool((coeff_max * pow_mech[0, 0] > cap).any())
            return coeff, pow_mech, clip, cap
        if mechanism == "hci":
            pow_mech = np.power(
                (self._tpy * t) / self.tech.hci.ref_transitions,
                self.tech.hci.m,
            )
            cap = self.tech.hci.max_shift
            coeff, coeff_max = self._folded("hci")
            clip = bool((coeff_max * pow_mech[0, 0] > cap).any())
            return coeff, pow_mech, clip, cap
        raise ValueError(f"mechanism must be 'bti' or 'hci', got {mechanism!r}")

    def delta_component(
        self,
        t_years: float,
        mechanism: str,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One mechanism's shift field at ``t_years`` (exact grouping).

        ``out`` lets callers reuse a population-sized buffer across
        captures instead of allocating a fresh tensor per call; it must
        match the prefactor tensor's shape and dtype.  Values are
        bit-identical to the corresponding half of
        :meth:`delta_components`.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        coeff, pow_mech, clip, cap = self._component_terms(
            float(t_years), mechanism
        )
        if out is None:
            out = np.empty_like(coeff)
        np.multiply(coeff, pow_mech, out=out)
        if clip:
            np.minimum(out, cap, out=out)
        return out

    def delta_components(self, t_years: float) -> tuple:
        """Per-mechanism split of :meth:`delta`: ``(bti, hci)`` fields.

        Each has the population tensor shape ``(n_chips, n_ros, n_stages,
        2)``.  The grouping, clip decisions and final add mirror
        :meth:`delta_into` operation for operation, so ``bti + hci`` is
        *bit-identical* to ``delta(t_years)`` — the forensics layer relies
        on that to attribute a margin shift to NBTI/PBTI vs HCI without
        introducing a reconciliation residual of its own.  Not memoised:
        attribution calls this once per report, never in a sweep loop.
        Callers that need only one mechanism (the blocked
        counterfactual-frequency path) use :meth:`delta_component` or
        :meth:`component_subtracter` instead and skip the second
        population-sized tensor entirely.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        t = float(t_years)
        telemetry.count("aging.mechanism_splits")
        return (
            self.delta_component(t, "bti"),
            self.delta_component(t, "hci"),
        )

    def direction_tensors(self) -> tuple:
        """``(bti_dir, hci_dir)`` factored stress-direction tensors.

        The fully-factored form behind :meth:`subtract_delta_into`
        (``delta(t) = t**n * bti_dir + t**m * hci_dir``, clips aside).
        Exposed for the kernel tiers that pre-cast population tensors to
        a different dtype/backend; treat the returned arrays as
        read-only.
        """
        return self._bti_dir, self._hci_dir

    def block_subtracter(self, t_years: float, directions: tuple, xp):
        """A per-block ``od -= delta(t_years)[rows]`` closure.

        ``directions`` carries the (possibly dtype-cast, possibly
        device-resident) pair from :meth:`direction_tensors`; ``xp`` is
        the :class:`repro.kernel.backend.ArrayBackend` the block buffers
        live on.  Semantics — factored grouping, exact clip decisions
        proved from float64 scalar maxima, per-block telemetry counters —
        mirror :meth:`subtract_delta_into`; only the arithmetic precision
        follows the tensors passed in.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        t = float(t_years)
        bti_dir, hci_dir = directions
        bti_t = t ** self.tech.nbti.n
        hci_t = t ** self.tech.hci.m
        cap_bti = self.tech.nbti.max_shift
        cap_hci = self.tech.hci.max_shift
        clip_bti = self._bti_dir_max * bti_t > cap_bti
        clip_hci = self._hci_dir_max * hci_t > cap_hci

        def subtract(od, scratch, rows):
            telemetry.count("aging.subtract_blocks")
            xp.multiply(bti_dir[rows], bti_t, out=scratch)
            if clip_bti:
                telemetry.count("aging.clip_applied")
                xp.minimum(scratch, cap_bti, out=scratch)
            else:
                telemetry.count("aging.clip_skipped")
            od -= scratch
            xp.multiply(hci_dir[rows], hci_t, out=scratch)
            if clip_hci:
                telemetry.count("aging.clip_applied")
                xp.minimum(scratch, cap_hci, out=scratch)
            else:
                telemetry.count("aging.clip_skipped")
            od -= scratch

        return subtract

    def component_subtracter(
        self, t_years: float, mechanism: str, *, xp=np, dtype=None
    ):
        """A per-block ``od -= delta_component(t_years, mechanism)[rows]``.

        The blocked counterfactual-frequency path subtracts one
        mechanism's field block by block through this closure instead of
        materialising the full :meth:`delta_components` pair — same
        coefficient grouping, same population-wide clip decision, so the
        result is bit-identical to the full-tensor subtraction while
        allocating nothing population-sized.  ``dtype`` (with its
        backend ``xp``) casts the coefficient tensor once for off-native
        kernel tiers; ``None`` keeps the float64 originals.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        coeff, pow_mech, clip, cap = self._component_terms(
            float(t_years), mechanism
        )
        if dtype is not None:
            coeff = xp.asarray(coeff, dtype)
            pow_mech = xp.asarray(pow_mech, dtype)

        def subtract(od, scratch, rows):
            xp.multiply(coeff[rows], pow_mech, out=scratch)
            if clip:
                xp.minimum(scratch, cap, out=scratch)
            od -= scratch

        return subtract

    def cached_delta(self, t_years: float) -> Optional[np.ndarray]:
        """The memoised delta for ``t_years`` if one exists, else None."""
        return self._memo.get(float(t_years))

    def subtract_delta_into(
        self,
        t_years: float,
        od: np.ndarray,
        scratch: np.ndarray,
        rows: slice = slice(None),
    ) -> np.ndarray:
        """``od -= delta(t_years)[rows]`` with the fewest memory passes.

        The hot kernel of the batched frequency sweep.  The BTI and HCI
        terms are subtracted separately from factored direction tensors
        (one scalar multiply + one subtract each), which regroups the
        closed form relative to :meth:`delta` — results differ from
        subtracting :meth:`delta` only in the last few ULPs, so callers
        that need the bit-exact per-chip grouping use :meth:`delta`
        instead.  Clips are applied exactly: a cheap maximum check proves
        when the population cannot reach the cap and the clip pass is
        skipped.

        ``rows`` selects a chip-axis block, letting the caller chunk the
        evaluation so the work buffers stay cache-resident.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        t = float(t_years)
        telemetry.count("aging.subtract_blocks")
        # Factored closed form: delta(t) = t**n * bti_dir + t**m * hci_dir
        # (clips aside), so the hot loop pays two *scalar* broadcasts
        # instead of two (n_stages, 2) broadcasts — measurably cheaper.
        bti_t = t ** self.tech.nbti.n
        hci_t = t ** self.tech.hci.m
        np.multiply(self._bti_dir[rows], bti_t, out=scratch)
        if self._bti_dir_max * bti_t > self.tech.nbti.max_shift:
            telemetry.count("aging.clip_applied")
            np.minimum(scratch, self.tech.nbti.max_shift, out=scratch)
        else:
            telemetry.count("aging.clip_skipped")
        od -= scratch
        np.multiply(self._hci_dir[rows], hci_t, out=scratch)
        if self._hci_dir_max * hci_t > self.tech.hci.max_shift:
            telemetry.count("aging.clip_applied")
            np.minimum(scratch, self.tech.hci.max_shift, out=scratch)
        else:
            telemetry.count("aging.clip_skipped")
        od -= scratch
        return od

    def delta_grid(self, years: Sequence[float]) -> np.ndarray:
        """Deltas over a full year grid, shape
        ``(len(years), n_chips, n_ros, n_stages, 2)``."""
        return np.stack([self.delta(t) for t in years])

    def chip_aging(self, index: int, chip: Chip) -> ChipAging:
        """Per-chip :class:`ChipAging` view of row ``index`` (thin slice,
        no re-sampling) bound to ``chip``."""
        return ChipAging(
            chip=chip,
            tech=self.tech,
            stress=self.stress,
            mission=self.mission,
            nbti_a=self.nbti_a[index],
            hci_b=self.hci_b[index],
        )
