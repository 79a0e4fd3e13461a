"""Tracer under asyncio: contextvar isolation, request lanes, loop-lag probe.

The isolation tests are the serving layer's load-bearing contract: two
requests interleaving on one event loop must never see each other's
spans, and the exported trace must re-nest each request's subtree under
its own lane.
"""

import asyncio
import time

import pytest

from repro import telemetry
from repro.telemetry import EventLoopLagProbe, Tracer, current_trace_id
from repro.telemetry.chrome import chrome_trace_events
from repro.telemetry.sampler import _probes


@pytest.fixture(autouse=True)
def clean_slate():
    telemetry.uninstall()
    yield
    telemetry.uninstall()


def _lane_events(events, label):
    """The X events on the lane whose thread_name metadata is ``label``."""
    tid = next(
        e["tid"]
        for e in events
        if e["ph"] == "M"
        and e["name"] == "thread_name"
        and e["args"]["name"] == label
    )
    return [e for e in events if e["ph"] == "X" and e["tid"] == tid]


class TestContextIsolation:
    def test_concurrent_requests_do_not_leak_spans(self):
        """Interleaved gather tasks each keep their own span stack."""
        tracer = telemetry.install(Tracer())

        async def handler(i):
            with tracer.request("auth", idx=i) as span:
                tid = span.attrs["trace_id"]
                assert current_trace_id() == tid
                with tracer.span(f"inner-{i}"):
                    # suspend mid-span so neighbours interleave here
                    await asyncio.sleep(0.001 * (i % 3))
                    assert current_trace_id() == tid
                await asyncio.sleep(0)
            return span

        spans = asyncio.run(self._gather(handler, 8))
        for i, span in enumerate(spans):
            assert [c.name for c in span.children] == [f"inner-{i}"]
            assert all(c.parent is span for c in span.children)
        assert len({s.attrs["trace_id"] for s in spans}) == 8

    @staticmethod
    async def _gather(handler, n):
        return await asyncio.gather(*(handler(i) for i in range(n)))

    def test_nesting_survives_await(self):
        tracer = telemetry.install(Tracer())

        async def flow():
            with tracer.request("auth") as span:
                with tracer.span("decode"):
                    await asyncio.sleep(0.001)
                    with tracer.span("verify"):
                        await asyncio.sleep(0)
            return span

        span = asyncio.run(flow())
        assert [c.name for c in span.children] == ["decode"]
        assert [g.name for g in span.children[0].children] == ["verify"]

    def test_fanned_out_task_inherits_request_parent(self):
        """create_task snapshots the context: the subtask's spans attach
        to the request that spawned it, not to the coordinator."""
        tracer = telemetry.install(Tracer())

        async def flow():
            async def side_work():
                with tracer.span("side"):
                    await asyncio.sleep(0)

            with tracer.request("auth") as span:
                await asyncio.create_task(side_work())
            return span

        span = asyncio.run(flow())
        assert [c.name for c in span.children] == ["side"]

    def test_subtask_cannot_corrupt_parent_stack(self):
        """A task that forgets to close its span only damages its own
        context copy — the request closes cleanly regardless."""
        tracer = telemetry.install(Tracer())

        async def flow():
            async def leaky():
                tracer.start_span("leaked")  # never ended by the task
                await asyncio.sleep(0)

            with tracer.request("auth") as span:
                await asyncio.create_task(leaky())
                with tracer.span("after"):
                    pass
            return span

        span = asyncio.run(flow())
        assert span.end_ns is not None
        names = [c.name for c in span.children]
        assert "after" in names  # parented on the request, not the leak

    def test_request_detaches_from_ambient_span(self):
        tracer = telemetry.install(Tracer())
        with tracer.span("serve"):
            with tracer.request("auth") as req:
                pass
            with tracer.span("post"):
                pass
        serve = tracer.roots[0]
        assert req.parent is None
        assert [c.name for c in serve.children] == ["post"]

    def test_current_trace_id_outside_request_is_none(self):
        tracer = telemetry.install(Tracer())
        assert current_trace_id() is None
        with tracer.span("ambient"):
            assert current_trace_id() is None

    def test_current_trace_id_none_for_foreign_tracer(self):
        stale = Tracer()
        with stale.request("auth"):
            # a *different* tracer now owns the installed slot
            telemetry.install(Tracer())
            assert current_trace_id() is None

    def test_error_marks_request_span(self):
        tracer = telemetry.install(Tracer())
        with pytest.raises(RuntimeError):
            with tracer.request("auth") as span:
                raise RuntimeError("boom")
        assert span.error is True
        assert span.end_ns is not None
        assert tracer.remote_lanes["req-0"] == [span]


class TestRequestLanes:
    def test_sequential_requests_recycle_one_lane(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.request("auth"):
                pass
        assert set(tracer.remote_lanes) == {"req-0"}
        assert len(tracer.remote_lanes["req-0"]) == 3
        assert tracer.roots == []  # all moved off the coordinator

    def test_lane_count_equals_peak_concurrency(self):
        tracer = Tracer()

        async def burst(n):
            barrier = asyncio.Barrier(n)

            async def handler():
                with tracer.request("auth"):
                    await barrier.wait()

            await asyncio.gather(*(handler() for _ in range(n)))

        asyncio.run(burst(4))
        assert set(tracer.remote_lanes) == {f"req-{k}" for k in range(4)}
        # the next sequential request reuses the lowest freed lane
        with tracer.request("auth"):
            pass
        assert len(tracer.remote_lanes["req-0"]) == 2

    def test_exported_trace_renests_request_subtree(self):
        tracer = Tracer()
        with tracer.request("auth") as span:
            with tracer.span("decode"):
                time.sleep(0.001)
        events = chrome_trace_events(tracer)
        lane = _lane_events(events, "req-0")
        by_name = {e["name"]: e for e in lane}
        assert set(by_name) == {"request.auth", "decode"}
        parent, child = by_name["request.auth"], by_name["decode"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]
        assert span.attrs["trace_id"] == 1

    def test_trace_ids_are_monotone_and_unique(self):
        tracer = Tracer()
        ids = []
        for _ in range(5):
            with tracer.request("auth") as span:
                ids.append(span.attrs["trace_id"])
        assert ids == [1, 2, 3, 4, 5]


class TestClose:
    def test_close_ends_forgotten_spans(self):
        tracer = Tracer()
        span = tracer.start_span("forgotten")
        tracer.close()
        assert span.end_ns is not None

    def test_end_span_twice_raises(self):
        tracer = Tracer()
        span = tracer.start_span("once")
        tracer.end_span(span)
        with pytest.raises(ValueError, match="already ended"):
            tracer.end_span(span)


class TestEventLoopLagProbe:
    def test_records_lag_when_loop_blocks(self):
        async def run():
            async with EventLoopLagProbe(interval_s=0.005) as probe:
                await asyncio.sleep(0.01)  # at least one clean tick
                time.sleep(0.05)  # block the loop: the next wake is late
                await asyncio.sleep(0.01)
            return probe

        probe = asyncio.run(run())
        assert probe.n_ticks >= 1
        assert probe.max_lag_ms >= 20.0

    def test_registers_and_unregisters_probe(self):
        async def run():
            probe = EventLoopLagProbe(interval_s=0.005, name="test_lag_ms")
            probe.start()
            probe.start()  # idempotent
            assert "test_lag_ms" in _probes
            await probe.stop()
            await probe.stop()  # idempotent
            assert "test_lag_ms" not in _probes

        asyncio.run(run())

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLoopLagProbe(interval_s=0.0)
