"""Coordinator side: :class:`ParallelBatchStudy` and its factory.

The parallel engine shards a population study across worker processes
along the chip axis and re-exposes the :class:`BatchStudy` evaluation
surface the experiment suite uses (``frequencies`` / ``responses`` /
``n_chips`` / ``n_bits``), so E1/E2/E3/E5 run unchanged on either
engine.  Design invariants:

* **Determinism for any shard count.**  The coordinator consumes the
  root RNG exactly like :func:`make_batch_study` (two spawned children,
  fabrication first) and derives the *full* population's per-chip spawn
  keys before slicing them into shards; workers replay the serial
  per-chip draws from those keys.  Responses, frequencies and aging
  deltas are therefore bit-identical across ``jobs = 1, 2, 4, ...`` —
  including shard counts that do not divide ``n_chips`` — and identical
  to the serial engine.
* **Cheap tasks.**  A task pickles spawn keys plus the (small) design
  and mission objects, never population tensors; replies carry only the
  requested result slices.  Workers cache their fabricated shard, so a
  year sweep ships the keys once and the grid points are near-pure
  kernel time.
* **One telemetry stream.**  Workers never write to the parent's tracer
  or heartbeat file (the pool initializer severs inherited telemetry).
  Instead each reply carries a counter/span digest; the coordinator
  folds counters into the parent tracer, attaches one summary span per
  shard under its ``parallel.evaluate`` span, and emits the merged
  per-shard progress heartbeats itself as replies arrive.

The coordinator memoises concatenated frequency tensors per corner in
the serial engine's own :class:`~repro.core.population.CornerMemo`, so
repeated golden-frequency queries do not re-enter the pool.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import List, Optional, Union

import numpy as np

from .. import telemetry
from .._rng import RngLike, spawn, spawn_keys
from ..aging.schedule import IdlePolicy, MissionProfile
from ..core.base import PufDesign
from ..core.population import BatchStudy, CornerMemo, corner_key, make_batch_study
from ..environment.conditions import OperatingConditions
from ..forensics import hook as _forensics_hook
from ..telemetry.tracer import Span
from .sharding import ShardSpec, shard_bounds
from .worker import EvalRequest, ShardReport, evaluate_shard, worker_init

#: distinguishes shard tokens of different studies within one process
_study_counter = itertools.count()


def _check_engine(jobs: int, store: str, dtype: str) -> None:
    """Reject an engine selection no engine implements."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if store not in ("ram", "mmap"):
        raise ValueError(f"store must be 'ram' or 'mmap', got {store!r}")
    if dtype not in ("float64", "float32"):
        raise ValueError(f"dtype must be 'float64' or 'float32', got {dtype!r}")
    if store == "mmap" and dtype != "float64":
        # the store's on-disk segments are float64 and its kernels
        # promise bit-identity with the dense path — a mixed tier
        # would silently compute in float64-then-cast, which is
        # neither tier, so refuse instead
        raise ValueError("store='mmap' supports dtype='float64' only")


class ParallelBatchStudy:
    """A population study evaluated by a pool of shard workers.

    Construction is cheap: no silicon is fabricated in the coordinator
    process, only spawn keys are derived.  The worker pool (and each
    worker's shard) comes up lazily on the first evaluation call.  Call
    :meth:`close` (or use the instance as a context manager) to release
    the pool; the serial :class:`BatchStudy` exposes the same no-op
    lifecycle so call sites can treat both engines uniformly.
    """

    #: number of corners kept in the coordinator's concatenated-frequency memo
    MEMO_SIZE = BatchStudy.MEMO_SIZE

    def __init__(
        self,
        design: PufDesign,
        n_chips: int,
        *,
        mission: Optional[MissionProfile] = None,
        idle_policy: Optional[IdlePolicy] = None,
        rng: RngLike = None,
        jobs: int = 2,
        mp_context=None,
        store: str = "ram",
        block_size: Optional[int] = None,
        store_dir: Optional[str] = None,
        dtype: str = "float64",
    ):
        _check_engine(jobs, store, dtype)
        if n_chips < 1:
            raise ValueError("n_chips must be positive")
        mission = mission or MissionProfile()
        # Consume the RNG exactly like make_batch_study / make_study
        # (fabrication child first, then aging), then derive the whole
        # population's per-chip keys the way make_batch_study does, so
        # shard workers replay the serial draws verbatim.
        fab_rng, aging_rng = spawn(rng, 2)
        fab_keys = spawn_keys(fab_rng, n_chips)
        aging_keys = spawn_keys(aging_rng, n_chips)
        token = f"pid{os.getpid()}-study{next(_study_counter)}"
        self.design = design
        self.mission = mission
        # With --store mmap the coordinator lays down one shared (still
        # unmaterialised) store; workers attach by path and fabricate
        # their own row windows into the common segments, so no tensor
        # ever crosses a process boundary in either direction.
        self._store_root: Optional[pathlib.Path] = None
        self._own_store = False
        self._population_store = None
        if store == "mmap":
            from ..store import PopulationStore

            if store_dir is None:
                self._store_root = pathlib.Path(
                    tempfile.mkdtemp(prefix="repro-store-")
                )
                self._own_store = True
            else:
                self._store_root = pathlib.Path(store_dir)
            self._population_store = PopulationStore.create(
                self._store_root,
                design,
                n_chips,
                mission=mission,
                idle_policy=idle_policy,
                keys=(fab_keys, aging_keys),
                block_size=block_size,
            )
        self._specs = [
            ShardSpec(
                design=design,
                mission=mission,
                idle_policy=idle_policy,
                chip_start=start,
                fab_keys=tuple(fab_keys[start:stop]),
                aging_keys=tuple(aging_keys[start:stop]),
                store_root=(
                    str(self._store_root) if self._store_root is not None else None
                ),
                dtype=dtype,
            )
            for start, stop in shard_bounds(n_chips, jobs)
        ]
        self._tokens = [f"{token}/s{k}" for k in range(len(self._specs))]
        self._n_chips = n_chips
        self._mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        self._freq_memo = CornerMemo(self.MEMO_SIZE, "parallel.corner_memo_hits")

    # ---- geometry ----------------------------------------------------

    @property
    def n_chips(self) -> int:
        return self._n_chips

    @property
    def n_bits(self) -> int:
        return self.design.n_bits

    @property
    def jobs(self) -> int:
        """Worker count (clamped to ``n_chips`` at construction)."""
        return len(self._specs)

    # ---- pool lifecycle ----------------------------------------------

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=worker_init,
                mp_context=self._mp_context,
            )
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent; pool restarts on use).

        A coordinator-owned mmap store (one created in a temp directory
        rather than adopted from ``store_dir``) is deleted with the pool:
        its segments are scratch space for this study, not a cache.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        store, self._population_store = self._population_store, None
        if store is not None:
            store.close()
        if self._own_store and self._store_root is not None:
            from ..store import remove_store

            remove_store(self._store_root)
            self._store_root = None

    def __enter__(self) -> "ParallelBatchStudy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ---- evaluation --------------------------------------------------

    def _evaluate(self, requests: List[EvalRequest]) -> List[np.ndarray]:
        """Run ``requests`` on every shard; concatenate in chip-id order.

        Progress heartbeats (one merged ``parallel.shards`` stream) are
        emitted from this process as replies arrive; each reply's counter
        and span digest is folded into the parent tracer, so ``--trace``
        and ``--metrics-out`` see one coherent run.
        """
        sp = telemetry.start_span(
            "parallel.evaluate",
            jobs=self.jobs,
            n_chips=self._n_chips,
            n_requests=len(requests),
        )
        try:
            pool = self._pool()
            futures = {
                pool.submit(
                    evaluate_shard, self._tokens[k], spec, k, requests
                ): k
                for k, spec in enumerate(self._specs)
            }
            reports: List[Optional[ShardReport]] = [None] * len(self._specs)
            pending = set(futures)
            done_chips = 0
            telemetry.progress("parallel.shards", 0, self._n_chips)
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    report = future.result()
                    reports[futures[future]] = report
                    done_chips += report.n_chips
                    telemetry.progress(
                        "parallel.shards", done_chips, self._n_chips
                    )
                    self._fold_report(report)
            assert all(r is not None for r in reports)
            return [
                np.concatenate([r.arrays[i] for r in reports])
                for i in range(len(requests))
            ]
        finally:
            telemetry.end_span(sp)

    def _fold_report(self, report: ShardReport) -> None:
        """Merge one worker's telemetry digest into the parent tracer."""
        telemetry.count("parallel.shards_completed")
        for name, value in report.counters.items():
            telemetry.count(name, value)
        tracer = telemetry.active()
        if tracer is None:
            return
        for name, hist in report.histograms.items():
            tracer.merge_histogram(name, hist)
        # Worker spans happened in another process; re-create them as one
        # summary child per shard with recorded (not re-measured) timings
        # so the span tree still shows where the workers spent their time.
        # The ``synthetic`` attribute marks timestamps that are durations
        # dressed as spans (start pinned to 0), so clock-faithful views
        # (the Chrome-trace export) skip them in favour of the remote
        # lanes attached below.
        parent = tracer.active_span
        shard_span = Span(
            "parallel.shard",
            {
                "shard": report.shard_index,
                "n_chips": report.n_chips,
                "wall_s": round(report.wall_s, 6),
                "synthetic": True,
            },
        )
        shard_span.start_ns = 0
        shard_span.end_ns = int(report.wall_s * 1e9)
        for name, (duration_ns, calls) in sorted(report.span_totals.items()):
            child = Span(name, {"calls": calls, "synthetic": True})
            child.start_ns = 0
            child.end_ns = duration_ns
            child.parent = shard_span
            shard_span.children.append(child)
        if parent is not None:
            shard_span.parent = parent
            parent.children.append(shard_span)
        else:  # pragma: no cover - tracer active but no open span
            tracer.roots.append(shard_span)
        # The worker's real span forest, re-based onto this process's
        # perf_counter timeline via the two clock handshakes: offset =
        # (W_worker - P_worker) - (W_coord - P_coord).  These become the
        # per-worker lanes of the Chrome-trace export.
        if report.spans and report.clock is not None:
            offset = (report.clock[0] - report.clock[1]) - (
                tracer.wall0_ns - tracer.perf0_ns
            )
            tracer.add_remote_lane(
                f"worker-{report.shard_index}",
                [Span.from_timed_dict(d, offset) for d in report.spans],
            )

    def frequencies(
        self,
        t_years: float = 0.0,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Population frequency tensor, bit-identical to the serial
        :meth:`BatchStudy.frequencies` under the same root seed.

        Shape ``(n_chips, n_ros)``; memoised read-only per corner.
        """
        return self._merged(corner_key(t_years, conditions))

    def responses(
        self,
        challenge: Optional[int] = None,
        t_years: float = 0.0,
        *,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Golden responses of every chip, shape ``(n_chips, n_bits)``,
        bit-identical to the serial engine for any worker count.

        With a forensics collector active, the merged frequency tensor
        (memoised, so usually already resident from the response pass's
        sibling query) is recorded coordinator-side — workers have their
        collector slot severed, so the tape sees exactly one grid per
        corner, identical to the serial engine's.
        """
        t, cond = corner_key(t_years, conditions)
        bits = self._evaluate([EvalRequest("responses", t, cond, challenge)])[0]
        if _forensics_hook.active_collector() is not None:
            pairs = self.design.pairing.pairs(self.design.n_ros, challenge)
            _forensics_hook.record_response_margins(
                self.frequencies(t, cond), pairs, t, cond
            )
        return bits

    def mechanism_frequencies(
        self,
        t_years: float,
        mechanism: str,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Single-mechanism counterfactual frequencies, merged from the
        shards; row-identical to :meth:`BatchStudy.mechanism_frequencies`
        (the kernel is chip-row independent)."""
        return self._merged(corner_key(t_years, conditions, mechanism))

    def _merged(self, key: tuple) -> np.ndarray:
        """One corner's frequencies: memoised, or merged from the shards."""
        cached = self._freq_memo.get(key)
        if cached is not None:
            return cached
        telemetry.count("parallel.corner_memo_misses")
        t, cond = key[0], key[1]
        if len(key) > 2:
            request = EvalRequest("mechanism_frequencies", t, cond, mechanism=key[2])
        else:
            request = EvalRequest("frequencies", t, cond)
        return self._freq_memo.put(key, self._evaluate([request])[0])

    def margin_histogram(
        self,
        edges: np.ndarray,
        challenge: Optional[int] = None,
        t_years: float = 0.0,
        *,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Signed-margin histogram counts, reduced in the workers.

        Each shard bins its own chips over the shared ``edges`` and ships
        back one small ``int64`` count vector; the coordinator sums them.
        Binning is per-element, so the merged counts equal the serial
        engine's exactly for any worker count.
        """
        edges = np.asarray(edges, dtype=float)
        t, cond = corner_key(t_years, conditions)
        counts = self._evaluate(
            [
                EvalRequest(
                    "margin_hist",
                    t,
                    cond,
                    challenge,
                    hist_edges=tuple(float(e) for e in edges),
                )
            ]
        )[0]
        # _evaluate concatenates the per-shard replies; fold them back
        # into one (n_bins,) vector by summing over the shard axis
        return counts.reshape(self.jobs, -1).sum(axis=0)


def make_parallel_study(
    design: PufDesign,
    n_chips: int,
    *,
    mission: Optional[MissionProfile] = None,
    idle_policy: Optional[IdlePolicy] = None,
    rng: RngLike = None,
    jobs: int = 1,
    mp_context=None,
    store: str = "ram",
    block_size: Optional[int] = None,
    store_dir: Optional[str] = None,
    dtype: str = "float64",
) -> Union[BatchStudy, ParallelBatchStudy]:
    """Drop-in for :func:`make_batch_study` with ``--jobs``/``--store`` knobs.

    ``jobs <= 1`` returns a serial engine (no pool, no pickling): the
    dense in-RAM :class:`BatchStudy` for ``store="ram"``, the out-of-core
    :class:`~repro.store.study.StoreStudy` for ``store="mmap"``.
    ``jobs > 1`` returns a :class:`ParallelBatchStudy` sharded over
    ``min(jobs, n_chips)`` worker processes — with ``store="mmap"`` the
    workers share one mmap store instead of fabricating in-RAM shards.
    Every combination of the two knobs produces bit-identical responses,
    frequencies and deltas under the same seed.  ``dtype="float32"``
    selects the reduced-precision kernel tier (RAM engines only; see
    :mod:`repro.kernel.validate` for the identity contract).
    """
    _check_engine(jobs, store, dtype)
    if jobs == 1:
        if store == "mmap":
            from ..store import make_store_study

            return make_store_study(
                design,
                n_chips,
                mission=mission,
                idle_policy=idle_policy,
                rng=rng,
                block_size=block_size,
                store_dir=store_dir,
            )
        return make_batch_study(
            design,
            n_chips,
            mission=mission,
            idle_policy=idle_policy,
            rng=rng,
            dtype=dtype,
            block_size=block_size,
        )
    return ParallelBatchStudy(
        design,
        n_chips,
        mission=mission,
        idle_policy=idle_policy,
        rng=rng,
        jobs=jobs,
        mp_context=mp_context,
        store=store,
        block_size=block_size,
        store_dir=store_dir,
        dtype=dtype,
    )
