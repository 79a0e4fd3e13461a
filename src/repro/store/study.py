"""Out-of-core population evaluation over a :class:`PopulationStore`.

:class:`StoreStudy` is the memory-bounded form of
:class:`~repro.core.population.BatchStudy`: the same engine — one
corner loop, one memo, the same batched API — bound to a row window of
a :class:`~repro.store.store.PopulationStore` instead of RAM tensors.
The loop reads the store's mmap segments through the store's own
``column`` / ``ensure_rows`` / ``release`` interface, one store block
at a time: materialising each block on first touch, streaming it
through the shared kernel, then dropping its pages from the resident
set — so peak RSS is a handful of block-sized work buffers regardless
of population size.

Bit-identity with the in-RAM engine holds by construction:

* the store fabricates from the same spawn keys with the same draw
  order and folds its aging columns with the same helpers, so the
  column bytes equal the in-RAM tensors;
* the corner loop and its kernel are the in-RAM engine's own; block
  boundaries only change *where* the identical elementwise chain is
  split;
* the store keeps no column maxima, so every saturation clip runs — a
  no-op below the cap, so applying it where the in-RAM engine proves
  it can skip never changes a byte.

What this module adds is the window and geometry checks, the
streaming decision, the spill of corner results to disk, and the
ownership of a temporary store directory.  Corner results spill
through the content-addressed :class:`repro.parallel.cache.ResultCache`
array API when the window streams; evicted corners delete their
segment, bounding disk by the memo depth rather than the year grid.
"""

from __future__ import annotations

import pathlib
import tempfile
from typing import Optional

from .. import telemetry
from .._rng import RngLike
from ..aging.schedule import IdlePolicy, MissionProfile
from ..core.base import PufDesign
from ..core.population import BatchStudy, CornerMemo
# perfbench/layers.py install_sweep wraps this module's
# frequency_block_kernel; the store's corners run the same kernel
# through the shared loop in repro.core.population.
from ..kernel.fused import frequency_block_kernel  # noqa: F401
from ..parallel.cache import ResultCache, cache_key
from .store import PopulationStore, remove_store


class StoreStudy(BatchStudy):
    """A population evaluated block-streamed from mmap segments.

    ``row_start`` / ``row_stop`` restrict the study to a chip-row window
    of the store — the parallel engine's workers each take one window
    over the *shared* segments, so a shard never re-fabricates or
    pickles a tensor.  All result arrays are indexed relative to the
    window (row 0 is chip ``row_start``).  ``spill`` is where streaming
    corners go; ``own_root`` a store directory deleted on
    :meth:`close`.
    """

    #: resident-set budget (bytes) above which the study streams: column
    #: and result pages are flushed and madvise(DONTNEED)-released after
    #: every block, and corners spill to disk.  Windows that fit the
    #: budget skip both (the refaults would cost more than the pages)
    #: and run at in-RAM speed.
    RESIDENT_BUDGET_BYTES = 256 * 2**20

    # An own name for the inherited method: perfbench/layers.py wraps
    # BatchStudy.responses and StoreStudy.responses by name as two
    # layers, and an inherited attribute would nest the first wrapper in
    # the second (every store corner counted twice) and outlive the
    # wrappers' removal.
    responses = BatchStudy.responses

    def __init__(
        self,
        design: PufDesign,
        store: PopulationStore,
        *,
        mission: MissionProfile,
        row_start: int = 0,
        row_stop: Optional[int] = None,
        spill: Optional[ResultCache] = None,
        own_root: Optional[pathlib.Path] = None,
    ):
        if design.n_ros != store.design.n_ros or design.n_stages != store.design.n_stages:
            raise ValueError(
                f"store geometry ({store.design.n_ros} ROs x "
                f"{store.design.n_stages} stages) does not match the design "
                f"({design.n_ros} x {design.n_stages})"
            )
        row_stop = store.n_chips if row_stop is None else int(row_stop)
        if not 0 <= row_start < row_stop <= store.n_chips:
            raise ValueError(
                f"row window [{row_start}, {row_stop}) outside the store's "
                f"0..{store.n_chips}"
            )
        self.store = store
        self._own_root = own_root
        self._closed = False
        n_chips = row_stop - int(row_start)
        per_chip = design.n_ros * design.n_stages * 2
        # Page-release policy.  madvise(DONTNEED) after every block is
        # what bounds RSS at million-chip scale, but every released page
        # is a refault on the next corner — pure overhead when the whole
        # row window would have fit in RAM anyway.  Stream (flush +
        # release aggressively, spill corners) only when this window's
        # worst-case resident bytes (four float64 columns plus one
        # frequency corner) exceed the budget.  Numerics are unaffected
        # either way — madvise on a MAP_SHARED file mapping never loses
        # data.  At most 4 columns are read by any one pass (vth,
        # tc_scale and the two aging terms).
        window_bytes = n_chips * (per_chip * 8 * 4 + design.n_ros * 8)
        self._streaming = window_bytes > self.RESIDENT_BUDGET_BYTES
        memo = None
        if spill is not None and self._streaming:
            memo = CornerMemo(
                self.SPILL_MEMO_SIZE, "batch.corner_memo_hits", spill, self._spill_key
            )
        self._bind(
            design,
            mission,
            store,
            (int(row_start), row_stop),
            max(1, min(n_chips, store.block_size, self._BLOCK_ELEMS // per_chip)),
            stress=store.stress,
            memo=memo,
        )

    def _spill_key(self, key: tuple) -> str:
        t, cond = key[0], key[1]
        config = {
            "store": self.store.content_key,
            "rows": list(self._rows),
            "t_years": t,
            "temperature_k": cond.temperature_k,
            "vdd": cond.vdd,
            "mechanism": key[2] if len(key) > 2 else None,
            "pairing": repr(self.design.pairing),
            "readout": repr(self.design.readout),
        }
        return cache_key("store.frequencies", config)

    def _clip_bound(self, name: str) -> None:
        """The store keeps no column maxima, so every clip runs."""
        return None

    # ---- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Release mappings; delete the store root if this study owns it.

        Spilled corners stay on disk with a persistent store, for the
        next study over the same rows to find.
        """
        if self._closed:
            return
        self._closed = True
        self._freq_memo.clear(discard=False)
        self._buffers = None
        self.store.close()
        if self._own_root is not None:
            remove_store(self._own_root)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


def make_store_study(
    design: PufDesign,
    n_chips: int,
    *,
    mission: Optional[MissionProfile] = None,
    idle_policy: Optional[IdlePolicy] = None,
    rng: RngLike = None,
    block_size: Optional[int] = None,
    store_dir: Optional[str] = None,
) -> StoreStudy:
    """Out-of-core drop-in for :func:`~repro.core.population.make_batch_study`.

    Consumes the RNG identically (one ``spawn(rng, 2)`` then one
    full-population key draw per child), so the same seed yields the
    same silicon: responses are bit-identical to the in-RAM path.

    Without ``store_dir`` the segments live in a temp directory owned by
    the study and removed on :meth:`StoreStudy.close`; with it they
    persist (and a store already there is adopted when the content key
    matches), which makes repeated million-chip sweeps incremental.
    """
    mission = mission or MissionProfile()
    own_root: Optional[pathlib.Path] = None
    if store_dir is None:
        root = pathlib.Path(tempfile.mkdtemp(prefix="repro-store-"))
        own_root = root
    else:
        root = pathlib.Path(store_dir)
    with telemetry.span(
        "fabricate.store_study", n_chips=n_chips, n_ros=design.n_ros
    ):
        store = PopulationStore.create(
            root,
            design,
            n_chips,
            mission=mission,
            idle_policy=idle_policy,
            rng=rng,
            block_size=block_size,
        )
    return StoreStudy(
        design,
        store,
        mission=mission,
        spill=ResultCache(root / "spill"),
        own_root=own_root,
    )
