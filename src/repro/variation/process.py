"""Monte-Carlo process-variation sampler (the virtual fab).

:class:`VariationModel` turns a technology card plus an array geometry into
:class:`~repro.variation.chip.Chip` samples.  The threshold voltage of each
device decomposes hierarchically, matching the standard WID/D2D taxonomy
used in the RO-PUF literature:

    vth = vth_nominal
        + inter_die              (one draw per chip, common to all devices)
        + correlated(x, y)       (smooth chip-specific field, per RO)
        + white mismatch         (independent per device — the PUF entropy)
        + systematic(x, y)       (mask-set property, identical across chips)

The systematic term depends on the layout style: the ARO's symmetric cell
cancels it down to a small residual (see :mod:`repro.variation.spatial`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .._rng import RngLike, as_generator, spawn
from ..transistor.technology import TechnologyCard
from .chip import Chip, ChipPopulation, grid_positions
from .spatial import LayoutStyle, correlated_field, effective_systematic


@dataclass(frozen=True)
class VariationModel:
    """Samples chips for one design point.

    Parameters
    ----------
    tech:
        Technology card supplying nominal thresholds and sigma values.
    n_ros, n_stages:
        Geometry of the RO array (stages = inverting stages per ring).
    layout:
        Cell layout discipline; controls systematic-component cancellation.
    """

    tech: TechnologyCard
    n_ros: int
    n_stages: int
    layout: LayoutStyle = LayoutStyle.CONVENTIONAL

    def __post_init__(self) -> None:
        if self.n_ros < 2:
            raise ValueError("an RO-PUF needs at least two oscillators")
        if self.n_stages < 3 or self.n_stages % 2 == 0:
            raise ValueError("n_stages must be an odd integer >= 3 for oscillation")

    def sample_chip(self, rng: RngLike = None, chip_id: int = 0) -> Chip:
        """Draw one chip from the process distribution."""
        gen = as_generator(rng)
        var = self.tech.variation
        positions = grid_positions(self.n_ros)
        shape = (self.n_ros, self.n_stages, 2)

        inter_die = var.sigma_inter_die * gen.standard_normal()

        # Split intra-die variance between a smooth correlated field and
        # white per-device mismatch, preserving total variance.
        corr_sigma = var.sigma_intra_die * np.sqrt(var.correlated_fraction)
        white_sigma = var.sigma_intra_die * np.sqrt(1.0 - var.correlated_fraction)
        corr = correlated_field(
            positions, corr_sigma, var.correlation_length, rng=gen
        )
        white = white_sigma * gen.standard_normal(shape)

        systematic = effective_systematic(positions, var.sigma_systematic, self.layout)

        per_ro = inter_die + corr + systematic  # shape (n_ros,)
        vth = np.empty(shape)
        vth[:, :, 0] = self.tech.vth_n
        vth[:, :, 1] = self.tech.vth_p
        vth += per_ro[:, None, None] + white

        tc_scale = 1.0 + self.tech.tc_mismatch_cv * gen.standard_normal(shape)

        return Chip(vth=vth, positions=positions, tc_scale=tc_scale, chip_id=chip_id)

    def sample_population(self, n_chips: int, rng: RngLike = None) -> ChipPopulation:
        """Draw ``n_chips`` independent chips.

        Each chip gets its own spawned child generator so that adding chips
        to a population never perturbs the earlier chips' samples.
        """
        if n_chips <= 0:
            raise ValueError("n_chips must be positive")
        children = spawn(rng, n_chips)
        chips = [
            self.sample_chip(child, chip_id=i) for i, child in enumerate(children)
        ]
        return ChipPopulation(chips=chips)

    def sample_rows(
        self,
        streams: Sequence[RngLike],
        vth: Optional[np.ndarray] = None,
        tc_scale: Optional[np.ndarray] = None,
    ) -> None:
        """Replay :meth:`sample_chip` for many chips into preallocated rows.

        Row ``i`` of ``vth`` / ``tc_scale`` (shape ``(len(streams), n_ros,
        n_stages, 2)``, float64, C-contiguous) receives exactly the bytes
        ``sample_chip(streams[i])`` would hold.  Each row draws from its
        own generator in :meth:`sample_chip`'s order — inter-die scalar,
        correlated normals, white, then ``tc`` — and the arithmetic keeps
        its per-element grouping, applied to the whole block at once.  Everything that does not depend on the chip
        (positions, systematic field, sigma split, nominal thresholds) is
        computed once.  The correlated field stays one
        :func:`~repro.variation.spatial.correlated_field` call per row: a
        single matrix product over all rows would sum in a different
        order and change the last bits.

        Either output may be ``None``: a ``tc_scale``-only call still makes
        the earlier draws to reach the ``tc`` draw, a ``vth``-only call
        skips the ``tc`` draw (it is the last on the stream).
        """
        if vth is None and tc_scale is None:
            return
        for rows in (vth, tc_scale):
            if rows is not None and rows.shape[0] != len(streams):
                raise ValueError(
                    f"{len(streams)} streams for {rows.shape[0]} rows"
                )
        var = self.tech.variation
        shape = (self.n_ros, self.n_stages, 2)
        positions = grid_positions(self.n_ros)
        corr_sigma = var.sigma_intra_die * np.sqrt(var.correlated_fraction)
        white_sigma = var.sigma_intra_die * np.sqrt(1.0 - var.correlated_fraction)
        systematic = effective_systematic(positions, var.sigma_systematic, self.layout)
        per_ro = np.empty((len(streams), self.n_ros))
        scratch = np.empty(shape) if vth is None else None
        for i, stream in enumerate(streams):
            gen = as_generator(stream)
            inter_die = var.sigma_inter_die * gen.standard_normal()
            corr = correlated_field(
                positions, corr_sigma, var.correlation_length, rng=gen
            )
            per_ro[i] = inter_die + corr + systematic
            gen.standard_normal(out=scratch if vth is None else vth[i])
            if tc_scale is not None:
                gen.standard_normal(out=tc_scale[i])
        if vth is not None:
            # sample_chip: base + (per_ro + white_sigma * z), per element
            vth *= white_sigma
            vth += per_ro[:, :, None, None]
            vth += np.array([self.tech.vth_n, self.tech.vth_p])
            if np.any(vth <= 0):
                raise ValueError("threshold magnitudes must be positive")
        if tc_scale is not None:
            tc_scale *= self.tech.tc_mismatch_cv
            tc_scale += 1.0
