"""The one fabrication primitive behind every study engine.

A population is defined by two spawn-key lists (see
:func:`repro._rng.spawn_keys`): one fabrication stream and one aging
stream per chip.  :func:`fabricate_rows` replays those streams into
preallocated row blocks — the population tensors of
:class:`~repro.core.population.BatchStudy` and the parallel engine's
shards, and the staging chunks the out-of-core
:class:`~repro.store.store.PopulationStore` copies to its segments — so
all three engines fill their tensors through the same code, and a row
holds the same bytes whichever engine, block size or process produced
it.

Per row the draws are those of the per-chip reference path
(:meth:`~repro.variation.process.VariationModel.sample_chip` then
:meth:`~repro.aging.simulator.AgingSimulator.for_chip`), in the same
order; only the work that does not depend on the chip is hoisted out of
the row loop, and the per-element arithmetic runs over the whole block.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .._rng import RngLike
from ..aging.simulator import sample_prefactor_rows
from .base import PufDesign

#: row columns drawn from a chip's fabrication stream, in draw order
FAB_FIELDS = ("vth", "tc_scale")
#: row columns drawn from a chip's aging stream, in draw order
AGING_FIELDS = ("nbti_a", "hci_b")


def fabricate_rows(
    design: PufDesign,
    fab_keys: Sequence[RngLike],
    aging_keys: Sequence[RngLike],
    out: Mapping[str, Optional[np.ndarray]],
    *,
    heartbeat: bool = True,
) -> None:
    """Fill the rows in ``out`` from per-chip fabrication / aging streams.

    ``out`` maps any of :data:`FAB_FIELDS` + :data:`AGING_FIELDS` to a
    writable float64 C-contiguous array of shape ``(n, n_ros, n_stages,
    2)``; row ``i`` is chip ``i`` of ``fab_keys`` / ``aging_keys`` (spawn
    keys or generators).  Columns absent from ``out`` (or mapped to
    ``None``) are not written, and draws that come after every wanted
    column on a stream are skipped; a key list whose columns are all
    absent may be empty.  Raises ``ValueError`` if a threshold comes out
    non-positive.  ``heartbeat`` emits the ``aging.sample_prefactors``
    progress stream.
    """
    unknown = set(out) - set(FAB_FIELDS + AGING_FIELDS)
    if unknown:
        raise KeyError(f"unknown row columns {sorted(unknown)}")
    design.variation_model().sample_rows(
        fab_keys, vth=out.get("vth"), tc_scale=out.get("tc_scale")
    )
    sample_prefactor_rows(
        design.tech,
        aging_keys,
        nbti_a=out.get("nbti_a"),
        hci_b=out.get("hci_b"),
        heartbeat=heartbeat,
    )
