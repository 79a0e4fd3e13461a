"""Resource sampler: ticks, probes, decimation, slot discipline, RSS."""

import threading

import pytest

from repro import telemetry
from repro.telemetry import (
    ResourceSampler,
    Tracer,
    active_sampler,
    current_rss_bytes,
    install_sampler,
    register_probe,
    sampler_session,
    uninstall_sampler,
    unregister_probe,
)


@pytest.fixture(autouse=True)
def clean_slate():
    telemetry.uninstall()
    uninstall_sampler()
    yield
    telemetry.uninstall()
    uninstall_sampler()


class TestSampleOnce:
    def test_fields(self):
        sampler = ResourceSampler(hz=100.0)
        sample = sampler.sample_once()
        assert sample["t_ns"] > 0
        assert sample["rss_bytes"] is None or sample["rss_bytes"] > 0
        assert sample["span"] is None
        assert sampler.samples == [sample]
        assert sampler.n_ticks == 1

    def test_attributes_tick_to_open_span(self):
        tr = telemetry.install(Tracer())
        sampler = ResourceSampler()
        sp = tr.start_span("store.block")
        try:
            assert sampler.sample_once()["span"] == "store.block"
        finally:
            tr.end_span(sp)
        assert sampler.sample_once()["span"] is None

    def test_other_thread_sees_open_parent_after_child_closes(self):
        """The sampler thread has no span context of its own: it must
        attribute to the deepest span still open in the traced flow."""
        tr = telemetry.install(Tracer())
        sampler = ResourceSampler()
        outer = tr.start_span("outer")
        inner = tr.start_span("inner")
        tr.end_span(inner)
        samples = []

        def tick():
            samples.append(sampler.sample_once())

        try:
            thread = threading.Thread(target=tick)
            thread.start()
            thread.join()
        finally:
            tr.end_span(outer)
        assert samples[0]["span"] == "outer"
        thread = threading.Thread(target=tick)
        thread.start()
        thread.join()
        assert samples[1]["span"] is None

    def test_probes_sampled_and_raising_probe_survives(self):
        register_probe("good", lambda: 7.0)
        register_probe("bad", lambda: 1 / 0)
        try:
            sample = ResourceSampler().sample_once()
            assert sample["probes"] == {"good": 7.0}
        finally:
            unregister_probe("good")
            unregister_probe("bad")

    def test_probe_reregister_last_wins_and_unregister(self):
        register_probe("p", lambda: 1.0)
        register_probe("p", lambda: 2.0)
        try:
            assert ResourceSampler().sample_once()["probes"] == {"p": 2.0}
        finally:
            unregister_probe("p")
        unregister_probe("p")  # absent: no-op
        assert "probes" not in ResourceSampler().sample_once()


class TestDecimation:
    def test_series_stays_bounded_with_full_extent(self):
        sampler = ResourceSampler(max_samples=16)
        for _ in range(200):
            sampler.sample_once()
        assert len(sampler.samples) < 16
        assert sampler.n_ticks == 200
        assert sampler._stride > 1
        # first sample survives every 2:1 decimation — full time extent
        times = [s["t_ns"] for s in sampler.samples]
        assert times == sorted(times)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="hz"):
            ResourceSampler(hz=0.0)
        with pytest.raises(ValueError, match="max_samples"):
            ResourceSampler(max_samples=1)


class TestThreadLifecycle:
    def test_stop_takes_final_sample(self):
        sampler = ResourceSampler(hz=1000.0)
        sampler.start()
        sampler.stop()
        assert sampler.samples  # even a sub-interval run records one tick
        sampler.stop()  # idempotent

    def test_double_start_rejected(self):
        sampler = ResourceSampler(hz=1000.0)
        sampler.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                sampler.start()
        finally:
            sampler.stop()

    def test_context_manager_form(self):
        with ResourceSampler(hz=1000.0) as sampler:
            pass
        assert sampler.samples


class TestInstallSlot:
    def test_install_uninstall_roundtrip(self):
        sampler = install_sampler(ResourceSampler())
        assert active_sampler() is sampler
        assert uninstall_sampler() is sampler
        assert active_sampler() is None
        assert uninstall_sampler() is None  # disabled: no-op

    def test_double_install_rejected(self):
        install_sampler(ResourceSampler())
        with pytest.raises(RuntimeError, match="already installed"):
            install_sampler(ResourceSampler())

    def test_sampler_session(self):
        with sampler_session(hz=1000.0) as sampler:
            assert active_sampler() is sampler
        assert active_sampler() is None
        assert sampler.samples


class TestToDicts:
    def test_relative_seconds_and_probe_passthrough(self):
        sampler = ResourceSampler()
        sampler.sample_once()
        register_probe("p", lambda: 3.0)
        try:
            sampler.sample_once()
        finally:
            unregister_probe("p")
        first_ns = sampler.samples[0]["t_ns"]
        dicts = sampler.to_dicts()
        assert dicts[0]["t_s"] == 0.0
        assert dicts[1]["t_s"] >= 0.0
        assert dicts[1]["probes"] == {"p": 3.0}
        # explicit epoch (a tracer's perf0_ns) shifts the origin
        shifted = sampler.to_dicts(first_ns - 1_000_000)
        assert shifted[0]["t_s"] == pytest.approx(1e-3)

    def test_empty_series(self):
        assert ResourceSampler().to_dicts() == []


class TestCurrentRss:
    def test_linux_proc_path(self):
        rss = current_rss_bytes()
        assert rss is None or rss > 0

    def test_fallback_without_proc(self):
        """Off-Linux (no /proc) the reading falls back to ru_maxrss —
        still positive, documented as a monotone high-water mark."""
        rss = current_rss_bytes(proc_status="/nonexistent/status")
        assert rss is not None and rss > 0
