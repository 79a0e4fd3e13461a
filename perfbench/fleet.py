"""The fleet workloads: a served FleetService under an open-loop load.

Set-up, repeated :data:`SETUPS` times for the median ``setup_s``:

* start ``server.py`` (a ``serve()``d FleetService with a file-backed
  HelperStore and an AuditTrail) in its own process;
* meanwhile fabricate the fleet with ``make_batch_study`` — 256 ARO chips
  of 1512 ROs, i.e. 756 response bits, the width of
  ``default_extractor`` — and take noisy reads with
  ``compare_pairs(noisy=True)``: five at t=0 per chip for enrollment and
  a pool of reads at each mission year in :data:`YEARS`;
* enroll every chip over the wire from its five t=0 reads.

Load: one client process, two ``ServiceClient`` connections.  Requests
arrive as a seeded Poisson process at a fixed offered rate (open loop).
The wire protocol carries one request at a time per connection, so
requests that are due while both connections are busy wait in the
client's queue; that queue is the backlog, and every latency is timed
from the request's due time, so waiting in it counts.  Between the
open-loop phases run two closed loops: both connections sending back to
back (the saturated rate), and one connection alone (the unloaded round
trip).  10 % of reads are impostors: a read of another chip presented
under the claimed id.  On
``fleet_key`` one request in ten enrolls a fresh chip id, re-presenting
the five t=0 reads of a fleet chip (the server's enrollment work does not
depend on which silicon the reads came from).

Every reply is checked: ``auth`` decisions and distances against the
fractional HD recomputed offline from the majority-voted reference
(threshold 0.25); every key returned by ``key`` against the SHA-256
digest its enrollment returned; every enrollment digest against the
digest of the fleet chip whose reads it re-presents.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import hashlib
import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from common import BENCH, WORK, median, percentile, tail_percentile
from layers import install_fabrication, install_loadgen

from repro.core import aro_design, compare_pairs, make_batch_study
from repro.service import ServiceClient, default_extractor, majority_vote

FLEET_CHIPS = 256
FLEET_ROS = 1512
YEARS = (1.0, 2.0, 5.0, 10.0)
ENROLL_READS = 5
POOL_READS_PER_YEAR = 2
IMPOSTOR_SHARE = 0.10
THRESHOLD = 0.25
#: the repo's ``auth-p99-latency`` pass bound, applied to both endpoints
LIMIT_MS = 10.0
SETUPS = 3
CONNECTIONS = 2
#: first id handed to chips enrolled during the load
FRESH_ID = 1_000_000
#: offered rates (requests/s) and the share of enrollments in the mix
FLEETS = {
    "fleet_auth": {"op": "auth", "low": 1500.0, "high": 3000.0, "enroll_share": 0.0},
    "fleet_key": {"op": "key", "low": 100.0, "high": 200.0, "enroll_share": 0.10},
}
#: the untraced run: ROUNDS rounds of (low rate, high rate, saturated
#: loop, unloaded loop), each phase's length a share of --seconds
ROUNDS = 20
ROUND_SHARE = 0.01
SATURATE_SHARE = 0.015
UNLOADED_SHARE = 0.0125
SATURATE_RATE = 3.0  # requests planned per second of a closed loop, x high
#: requests per window of the windowed p99 (see windowed_p99)
WINDOW = 1000
MAX_WINDOWS = 5
#: the pacer yields to the event loop instead of sleeping this close to
#: a due time
SPIN_S = 0.002
#: an open-loop phase is cut short once this many seconds of arrivals
#: are in flight
MAX_BACKLOG_S = 0.5
#: outcomes that are answers, not errors
ANSWERS = ("ok", "rejected", "key_recovery")


# ---- silicon ---------------------------------------------------------------


@dataclass
class Fleet:
    enroll_reads: np.ndarray  # (chips, ENROLL_READS, bits)
    references: np.ndarray  # (chips, bits) majority-voted
    pool: np.ndarray  # (entries, bits) reads at the mission years
    pool_chip: np.ndarray  # (entries,) chip each pool read came from
    digest: str


def fabricate(seed: int) -> Fleet:
    design = aro_design(FLEET_ROS)
    study = make_batch_study(design, FLEET_CHIPS, rng=seed)
    pairs = design.pairing.pairs(design.n_ros, None)
    noise = np.random.default_rng([seed, 1])

    def reads(t_years: float, n: int) -> np.ndarray:
        freqs = np.repeat(study.frequencies(t_years=t_years), n, axis=0)
        bits = compare_pairs(
            freqs, pairs, design.tech, design.readout, noisy=True, rng=noise
        )
        return bits.reshape(FLEET_CHIPS, n, -1)

    enroll_reads = reads(0.0, ENROLL_READS)
    if enroll_reads.shape[2] != default_extractor().response_bits:
        raise ValueError("fleet response width differs from the service's extractor")
    references = np.stack([majority_vote(r) for r in enroll_reads])
    pool = np.concatenate(
        [reads(t, POOL_READS_PER_YEAR).reshape(-1, references.shape[1]) for t in YEARS]
    )
    pool_chip = np.tile(
        np.repeat(np.arange(FLEET_CHIPS), POOL_READS_PER_YEAR), len(YEARS)
    )
    digest = hashlib.sha256(enroll_reads.tobytes() + pool.tobytes()).hexdigest()
    return Fleet(enroll_reads, references, pool, pool_chip, digest)


# ---- server process --------------------------------------------------------


class Server:
    """``server.py`` in its own process, driven over stdin/stdout."""

    def __init__(self, seed: int, work, spans_out=None, cpu: Optional[int] = None):
        cmd = [sys.executable, str(BENCH / "server.py"), "--seed", str(seed),
               "--work", str(work)]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )

    def wait_ready(self) -> int:
        """The port the server listens on, once it is up."""
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line[1])

    def command(self, text: str, reply: bool = False) -> Any:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline()) if reply else None

    def stop(self) -> Dict[str, Any]:
        final = self.command("stop", reply=True)
        self.proc.wait(timeout=30)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ---- open-loop load generator ----------------------------------------------


@dataclass
class Request:
    op: str  # "auth" | "key" | "enroll"
    chip: int
    entry: int  # pool entry (auth/key) or fleet chip re-presented (enroll)
    impostor: bool = False


@dataclass
class Phase:
    rate: float
    requests: List[Request]
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    lateness: np.ndarray
    inflight: np.ndarray
    replies: List[Any]
    aborted: bool = False
    elapsed: float = 0.0

    def latencies_ms(self, ops, ordered: bool = False) -> np.ndarray:
        """Latencies (from due time) of the answered requests of ``ops``,
        ascending, or in due order with ``ordered``."""
        mask = np.array([r.op in ops for r in self.requests], dtype=bool)
        mask &= ~np.isnan(self.done)
        lat = (self.done[mask] - self.due[mask]) * 1e3
        return lat if ordered else np.sort(lat)

    def round_trips_ms(self, ops) -> np.ndarray:
        """Send-to-reply times of the answered requests of ``ops``,
        ascending (the latency of a closed loop, where due times are 0)."""
        mask = np.array([r.op in ops for r in self.requests], dtype=bool)
        mask &= ~np.isnan(self.done)
        return np.sort((self.done[mask] - self.sent[mask]) * 1e3)

    def growing_backlog(self) -> bool:
        """Did the queue grow by more than the requests the latency limit
        allows, over the phase?  (Least-squares slope of in-flight count.)"""
        if self.aborted:
            return True
        n = len(self.requests)
        if n < 100:
            return False  # too few arrivals to fit a trend
        lo = n // 10
        t, y = self.due[lo:n], self.inflight[lo:n]
        slope = np.polyfit(t, y, 1)[0]
        return slope * (t[-1] - t[0]) > self.rate * LIMIT_MS / 1e3


class LoadGen:
    """Open-loop arrivals over ``CONNECTIONS`` ServiceClients."""

    def __init__(self, clients, fleet: Fleet, spec, seed: int):
        self.clients = clients
        self.fleet = fleet
        self.spec = spec
        self.seed = seed
        self.n_phases = 0
        self.n_enrolled = 0

    def plan(self, rate: float, seconds: float) -> tuple:
        rng = np.random.default_rng([self.seed, 2, self.n_phases])
        self.n_phases += 1
        n = max(1, int(rng.poisson(rate * seconds)))
        due = np.cumsum(rng.exponential(1.0 / rate, n))
        requests = []
        n_pool = len(self.fleet.pool)
        for u, entry, shift in zip(
            rng.random(n), rng.integers(0, n_pool, n), rng.integers(1, FLEET_CHIPS, n)
        ):
            if u < self.spec["enroll_share"]:
                chip = FRESH_ID + self.n_enrolled
                requests.append(Request("enroll", chip, self.n_enrolled % FLEET_CHIPS))
                self.n_enrolled += 1
                continue
            source = int(self.fleet.pool_chip[entry])
            impostor = u > 1.0 - IMPOSTOR_SHARE
            chip = (source + int(shift)) % FLEET_CHIPS if impostor else source
            requests.append(Request(self.spec["op"], chip, int(entry), impostor))
        return requests, due

    def _send(self, client, req: Request):
        if req.op == "enroll":
            return client.enroll(req.chip, self.fleet.enroll_reads[req.entry])
        bits = self.fleet.pool[req.entry]
        return client.auth(req.chip, bits) if req.op == "auth" else client.key(req.chip, bits)

    async def run(self, rate: float, seconds: float, closed: bool = False,
                  connections: Optional[int] = None) -> Phase:
        """One phase over the first ``connections`` clients (all of them
        by default).  Open loop: requests due at Poisson arrival times.
        ``closed``: every request is due at once and the connections
        send back to back for ``seconds``; requests not sent by then are
        dropped, not attempted."""
        clients = self.clients[:connections]
        requests, due = self.plan(rate, seconds)
        if closed:
            due[:] = 0.0
        n = len(requests)
        nan = np.full(n, np.nan)
        phase = Phase(rate, requests, due, nan.copy(), nan.copy(), nan.copy(),
                      np.zeros(n), [None] * n)
        queue: "collections.deque[int]" = collections.deque()
        wake = [asyncio.Event() for _ in clients]
        state = {"completed": 0, "closing": False}
        now = time.perf_counter

        async def connection(k: int, client) -> None:
            while True:
                if closed and now() >= base + seconds:
                    return
                if not queue:
                    if state["closing"]:
                        return
                    wake[k].clear()
                    await wake[k].wait()
                    continue
                i = queue.popleft()
                phase.sent[i] = now()
                try:
                    phase.replies[i] = await self._send(client, requests[i])
                except (ConnectionError, OSError, ValueError) as exc:
                    phase.replies[i] = {"outcome": f"client_error:{exc}"}
                phase.done[i] = now()
                state["completed"] += 1

        workers = [
            asyncio.ensure_future(connection(k, c)) for k, c in enumerate(clients)
        ]
        gc_was_enabled = gc.isenabled()
        gc.disable()
        base = now() + 0.01
        try:
            for i in range(n if not closed else 0):
                target = base + due[i]
                while True:
                    # sleep to within SPIN_S of the due time, then yield
                    # to the loop until it passes (see client_loop)
                    gap = target - now()
                    if gap <= 0.0:
                        break
                    await asyncio.sleep(gap - SPIN_S if gap > SPIN_S else 0)
                t = now()
                phase.lateness[i] = t - target
                queue.append(i)
                phase.inflight[i] = i + 1 - state["completed"]
                for event in wake:
                    event.set()
                if phase.inflight[i] > max(50.0, rate * MAX_BACKLOG_S):
                    phase.aborted = True
                    del requests[i + 1:]
                    phase.replies = phase.replies[: i + 1]
                    for name in ("due", "sent", "done", "lateness", "inflight"):
                        setattr(phase, name, getattr(phase, name)[: i + 1])
                    break
            if closed:
                queue.extend(range(n))
                phase.lateness[:] = 0.0
            state["closing"] = True
            for event in wake:
                event.set()
            try:
                await asyncio.wait_for(asyncio.gather(*workers), timeout=30.0)
            except asyncio.TimeoutError:
                pass  # unanswered requests stay NaN: counted as failed
        finally:
            for w in workers:
                w.cancel()
            if gc_was_enabled:
                gc.enable()
        phase.due = phase.due + base
        phase.elapsed = now() - base
        if closed:
            sent = ~np.isnan(phase.sent)
            phase.requests = [r for r, s in zip(requests, sent) if s]
            phase.replies = [r for r, s in zip(phase.replies, sent) if s]
            for name in ("due", "sent", "done", "lateness", "inflight"):
                setattr(phase, name, getattr(phase, name)[sent])
            phase.elapsed = float(np.nanmax(phase.done) - base)
        return phase


# ---- correctness -------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    outcomes: Dict[str, int] = field(default_factory=dict)
    genuine_keys: int = 0
    recovered_keys: int = 0


def expected_distances(fleet: Fleet) -> np.ndarray:
    """Fractional HD of every pool read against every chip's reference,
    as ``FleetService`` computes it (differing bits / width)."""
    ref = fleet.references.astype(np.float64)
    pool = fleet.pool.astype(np.float64)
    differing = ref @ (1.0 - pool).T + (1.0 - ref) @ pool.T
    return np.rint(differing).astype(np.int64) / fleet.references.shape[1]


def check_phase(phase: Phase, fleet: Fleet, distances, digests, tally: Tally) -> None:
    for req, reply in zip(phase.requests, phase.replies):
        tally.attempted += 1
        outcome = reply.get("outcome") if isinstance(reply, dict) else "no_reply"
        tally.outcomes[outcome] = tally.outcomes.get(outcome, 0) + 1
        if outcome not in ANSWERS:
            tally.failed += 1
            continue
        problem = None
        if req.op == "auth":
            distance = distances[req.chip, req.entry]
            accept = distance <= THRESHOLD
            if (outcome == "ok") != accept or reply.get("distance") != distance:
                problem = f"auth chip {req.chip} entry {req.entry}: {reply}"
        elif req.op == "key":
            if outcome == "ok":
                key = bytes.fromhex(reply.get("key", ""))
                if req.impostor or hashlib.sha256(key).hexdigest() != digests[req.chip]:
                    problem = f"key chip {req.chip} entry {req.entry}: wrong key"
            elif outcome != "key_recovery":
                problem = f"key chip {req.chip}: outcome {outcome}"
            if not req.impostor:
                tally.genuine_keys += 1
                tally.recovered_keys += outcome == "ok"
        else:
            if outcome != "ok" or reply.get("key_digest") != digests[req.entry]:
                problem = f"enroll chip {req.chip}: {reply}"
        if problem is not None:
            tally.failed += 1
            tally.wrong.append(problem)


# ---- workload driver ---------------------------------------------------------


def client_loop() -> asyncio.AbstractEventLoop:
    """The client's event loop.  Its ``select`` selector sleeps with
    microsecond timeouts; epoll rounds every timeout up to a whole
    millisecond, which would make the pacer release requests up to 1 ms
    late, or force it to spin on a CPU the server needs."""
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


async def _connect(port: int) -> List[ServiceClient]:
    return [await ServiceClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)]


async def _enroll_fleet(clients, fleet: Fleet) -> Dict[int, Any]:
    async def enroll(client, chips):
        return {c: await client.enroll(c, fleet.enroll_reads[c]) for c in chips}

    parts = await asyncio.gather(
        *[enroll(c, range(k, FLEET_CHIPS, len(clients))) for k, c in enumerate(clients)]
    )
    return {chip: reply for part in parts for chip, reply in part.items()}


async def _close(clients) -> None:
    for client in clients:
        await client.close()


def split_cpus() -> tuple:
    """(client CPU, server CPU), or (None, None) with fewer than two CPUs.

    The client and the server each get a CPU of their own: left to the
    scheduler, the two ends of one request/reply exchange keep landing
    on the same CPU and wait for each other.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)


async def setup(seed: int, work, spans_out=None, server_cpu=None):
    """One full set-up; returns (seconds, server, clients, fleet, enroll replies)."""
    t0 = time.perf_counter()
    server = Server(seed, work, spans_out, server_cpu)
    try:
        fleet = fabricate(seed)
        port = server.wait_ready()
        clients = await _connect(port)
        replies = await _enroll_fleet(clients, fleet)
    except BaseException:
        server.kill()
        raise
    return time.perf_counter() - t0, server, clients, fleet, replies


def windowed_p99(lat_in_due_order: np.ndarray) -> float:
    """Median of the p99s of up to MAX_WINDOWS consecutive windows of at
    least WINDOW requests each (the pooled p99 below 2 * WINDOW requests).

    A single scheduler or collector stall in a phase moves the pooled
    p99 of a few thousand requests by several-fold; the median over
    windows keeps the figure to what a typical stretch of the phase saw.
    """
    k = min(MAX_WINDOWS, len(lat_in_due_order) // WINDOW)
    if k < 2:
        return percentile(np.sort(lat_in_due_order), 99.0)
    return median(
        [percentile(np.sort(w), 99.0) for w in np.array_split(lat_in_due_order, k)]
    )


def summarise(phases: List[Phase], op: str) -> Dict[str, Any]:
    """Latency and generator figures of one or more phases at one rate,
    pooled in due order."""
    ordered = np.concatenate([p.latencies_ms((op,), ordered=True) for p in phases])
    lat = np.sort(ordered)
    tail = tail_percentile(len(lat))
    return {
        "rate": phases[0].rate,
        "n": int(len(lat)),
        "p50_ms": percentile(lat, 50.0),
        "round_p50_ms": [percentile(p.latencies_ms((op,)), 50.0) for p in phases],
        "p99_ms": windowed_p99(ordered),
        "tail_pct": tail,
        "tail_ms": percentile(lat, tail),
        "growing": any(p.growing_backlog() for p in phases),
        "lateness_p99_ms": percentile(
            np.sort(np.concatenate([p.lateness for p in phases])) * 1e3, 99.0
        ),
        "backlog_max": max(float(np.max(p.inflight, initial=0.0)) for p in phases),
    }


def meets_limit(summary: Dict[str, Any], failed: int) -> bool:
    return failed == 0 and not summary["growing"] and summary["p99_ms"] <= LIMIT_MS


async def run_fleet(workload: str, seed: int, seconds: float, trace: bool,
                    scratch, recorder=None) -> Dict[str, Any]:
    spec = FLEETS[workload]
    op = spec["op"]
    client_cpu, server_cpu = split_cpus()
    if client_cpu is not None:
        os.sched_setaffinity(0, {client_cpu})
    setups: List[float] = []
    fleet_digests = set()
    enroll_digests = set()
    server = clients = None
    tally = Tally()
    try:
        for k in range(SETUPS):
            if server is not None:
                await _close(clients)
                server.stop()
            spans_out = (
                WORK / "traces" / f"{workload}-{seed}-server.json"
                if trace and k == SETUPS - 1 else None
            )
            if recorder is not None:
                install_fabrication(recorder, sys.modules[__name__])
            seconds_k, server, clients, fleet, replies = await setup(
                seed, scratch / f"server{k}", spans_out, server_cpu
            )
            if recorder is not None:
                recorder.uninstall()
            setups.append(seconds_k)
            fleet_digests.add(fleet.digest)
            enroll_digests.add(
                json.dumps({c: r.get("key_digest") for c, r in replies.items()})
            )
            tally.attempted += len(replies)
            tally.failed += sum(r.get("outcome") != "ok" for r in replies.values())
        digests = {c: r.get("key_digest") for c, r in replies.items()}
        distances = expected_distances(fleet)
        load = LoadGen(clients, fleet, spec, seed)
        phases: Dict[str, List[Phase]] = collections.defaultdict(list)

        async def run_checked(label: str, rate: float, duration: float,
                              closed: bool = False, connections=None) -> int:
            """Run one phase, check its replies; returns its failures."""
            before = tally.failed
            phase = await load.run(rate, duration, closed=closed, connections=connections)
            check_phase(phase, fleet, distances, digests, tally)
            phases[label].append(phase)
            return tally.failed - before

        out: Dict[str, Any] = {}
        if not trace:
            # the fixed rates and the closed loops, interleaved over
            # ROUNDS short rounds: a shared host's speed drifts over
            # seconds, and interleaving spreads each figure over the run
            failed = 0
            for _ in range(ROUNDS):
                failed += await run_checked("low_rate", spec["low"], ROUND_SHARE * seconds)
                failed += await run_checked("high_rate", spec["high"], ROUND_SHARE * seconds)
                failed += await run_checked(
                    "saturated", SATURATE_RATE * spec["high"],
                    SATURATE_SHARE * seconds, closed=True,
                )
                # one connection back to back: each request finds the
                # server free and never waits for another one
                failed += await run_checked(
                    "unloaded", SATURATE_RATE * spec["high"],
                    UNLOADED_SHARE * seconds, closed=True, connections=1,
                )
            out["saturated_rounds"] = [
                len(p.requests) / p.elapsed for p in phases["saturated"]
            ]
            out["saturated_rps"] = median(out["saturated_rounds"])
            out["unloaded_round_p50_ms"] = [
                percentile(p.round_trips_ms((op,)), 50.0) for p in phases["unloaded"]
            ]
            out["unloaded_p50_ms"] = median(out["unloaded_round_p50_ms"])
            out["limit_met"] = {
                label: meets_limit(summarise(phases[label], op), failed)
                for label in ("low_rate", "high_rate")
            }
        else:
            await run_checked("low_rate", spec["low"], 0.3 * seconds)
            server.command("trace on")
            server.command("reset")
            install_loadgen(recorder)
            await run_checked("traced_low_rate", spec["low"], 0.3 * seconds)
            out["server_layers_low"] = server.command("layers", reply=True)
            await run_checked("traced_high_rate", spec["high"], 0.3 * seconds)
            recorder.uninstall()
            out["server_layers"] = server.command("layers", reply=True)
            server.command("trace off")
        await _close(clients)
        clients = None
        final = server.stop()
        server = None
        summaries = {
            label: summarise(ps, op) for label, ps in phases.items()
            if label not in ("saturated", "unloaded")
        }
    finally:
        if clients is not None:
            await _close(clients)
        if server is not None:
            server.kill()

    # enrollment latency at the fixed rates only: capacity probes and
    # the saturated loop deliberately overload the server
    enrolls = np.sort(np.concatenate(
        [p.latencies_ms(("enroll",)) for k in phases if k.endswith("_rate")
         for p in phases[k]]
    ))
    out.update(
        setups=setups,
        peak_rss_mb=final["peak_rss_mb"],
        summaries=summaries,
        phases=phases,
        enroll_n=int(len(enrolls)),
        enroll_tail_pct=tail_percentile(len(enrolls)),
        enroll_tail_ms=percentile(enrolls, tail_percentile(len(enrolls))),
        tally=tally,
        checks={
            "setups_identical": len(fleet_digests) == 1 and len(enroll_digests) == 1,
            "replies_correct": not tally.wrong,
        },
    )
    return out
