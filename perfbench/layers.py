"""Where the traced runs put their spans, and how spans become metrics.

Each ``install_*`` function wraps the public functions of the layers one
benchmark process calls into; the span names are the layer names the
per-layer metrics use (``variation``, ``aging``, ``core``, ``kernel``,
``metrics``, ``store``, ``keygen``, ``ecc``, ``service`` and the
benchmark's own client, ``loadgen``).  Module-level names are wrapped in
the module that calls them (``repro.analysis.experiments`` imports
``make_batch_study`` and the metric functions by name, the study engines
import ``frequency_block_kernel`` by name), so the wrapper sits on the
call the pipeline actually makes.
"""

from __future__ import annotations

from typing import Any, Dict


def _corner(study, *args, t_years=0.0, **kwargs) -> Dict[str, Any]:
    return {"chip_years": study.n_chips * float(t_years)}


def _operand_bytes(od, scratch, vth_rows, *, period_out, tc_rows=None, **_):
    """Bytes of the arrays one kernel call reads or writes, computed from
    their shapes (not measured traffic)."""
    total = od.nbytes + scratch.nbytes + vth_rows.nbytes + period_out.nbytes
    return {"bytes": total + (tc_rows.nbytes if tc_rows is not None else 0)}


def install_fabrication(recorder, make_batch_study_owner) -> None:
    """Fabrication and corner evaluation: variation, aging, core, kernel."""
    import repro.core.population as population
    from repro.aging.simulator import AgingSimulator
    from repro.core.population import BatchStudy
    from repro.variation.process import VariationModel

    recorder.wrap(make_batch_study_owner, "make_batch_study", "core.make_batch_study")
    recorder.wrap(VariationModel, "sample_population", "variation.sample_population")
    recorder.wrap(AgingSimulator, "population_aging", "aging.population_aging")
    recorder.wrap(BatchStudy, "responses", "core.responses", attrs=_corner)
    recorder.wrap(BatchStudy, "frequencies", "core.frequencies", attrs=_corner)
    recorder.wrap(population, "frequency_block_kernel", "kernel.responses",
                  attrs=_operand_bytes)


def install_sweep(recorder) -> None:
    """The sweep worker: fabrication, the out-of-core store, metrics."""
    import repro.analysis.experiments as experiments
    import repro.store.study as store_study
    from repro.store import COLUMNS, PopulationStore, StoreStudy

    def store_usage(study) -> None:
        store = study.store
        on_disk = sum(
            p.stat().st_blocks * 512 for p in store.root.rglob("*") if p.is_file()
        )
        blocks = sum(store.materialised_blocks(c) for c in COLUMNS)
        with recorder.span("store.usage", bytes_on_disk=on_disk, blocks=blocks):
            pass

    install_fabrication(recorder, experiments)
    recorder.wrap(store_study, "frequency_block_kernel", "kernel.responses",
                  attrs=_operand_bytes)
    recorder.wrap(PopulationStore, "create", "store.create")
    recorder.wrap(PopulationStore, "ensure_rows", "store.ensure_rows")
    recorder.wrap(StoreStudy, "responses", "store.responses", attrs=_corner)
    recorder.wrap(StoreStudy, "close", "store.close", before=store_usage)
    recorder.wrap(experiments, "reliability", "metrics.reliability")
    recorder.wrap(experiments, "uniqueness", "metrics.uniqueness")
    recorder.wrap(experiments, "hd_histogram", "metrics.hd_histogram")


def install_server(recorder) -> None:
    """The fleet server: dispatch, endpoints, store, audit, keygen, ecc."""
    import repro.service.server as server_mod
    from repro.ecc import BchCode, KeyCodec
    from repro.keygen import FuzzyExtractor
    from repro.service import AuditTrail, FleetService, HelperStore

    recorder.wrap(FleetService, "dispatch", "service.dispatch")
    for endpoint in ("auth", "key", "enroll"):
        recorder.wrap(FleetService, endpoint, f"service.{endpoint}")
    recorder.wrap(HelperStore, "get", "service.helper_store")
    recorder.wrap(HelperStore, "put", "service.helper_store")
    recorder.wrap(AuditTrail, "append", "service.audit.append")
    recorder.wrap(server_mod, "fractional_hd", "metrics.fractional_hd")
    recorder.wrap(FuzzyExtractor, "reproduce", "keygen.reproduce")
    recorder.wrap(FuzzyExtractor, "enroll", "keygen.enroll")
    recorder.wrap(KeyCodec, "correct", "ecc.correct")
    recorder.wrap(BchCode, "decode", "ecc.bch_decode")


def install_loadgen(recorder) -> None:
    """The benchmark's client: request building and the wire call."""
    from repro.service import ServiceClient

    for op in ("auth", "key", "enroll"):
        recorder.wrap(ServiceClient, op, "loadgen.request")
    recorder.wrap(ServiceClient, "call", "loadgen.call")


# ---- spans -> metrics ----------------------------------------------------------


def _get(totals, name: str, field: str) -> float:
    return float(totals.get(name, {}).get(field, 0))


def _sum(totals, name: str, attr: str) -> float:
    return float(totals.get(name, {}).get("sums", {}).get(attr, 0))


def _per_call_us(totals, name: str, field: str) -> float:
    calls = _get(totals, name, "calls")
    return _get(totals, name, field) / calls / 1e3 if calls else 0.0


def fabrication_metrics(totals, units: float) -> Dict[str, float]:
    """Per sweep pass (sweeps) or per set-up (fleets): ``units`` of them."""
    kernel_s = _get(totals, "kernel.responses", "busy_ns") / 1e9
    chip_years = sum(
        _sum(totals, name, "chip_years")
        for name in ("core.responses", "core.frequencies", "store.responses")
    )
    corners = sum(
        _get(totals, name, "calls")
        for name in ("core.responses", "core.frequencies", "store.responses")
    )
    out = {
        "variation.sample_population.busy_s":
            _get(totals, "variation.sample_population", "busy_ns") / 1e9,
        "aging.population_aging.busy_s":
            _get(totals, "aging.population_aging", "busy_ns") / 1e9,
        "core.make_batch_study.self_s":
            _get(totals, "core.make_batch_study", "self_ns") / 1e9,
        "store.create.busy_s": _get(totals, "store.create", "busy_ns") / 1e9,
        "store.ensure_rows.busy_s": _get(totals, "store.ensure_rows", "busy_ns") / 1e9,
        "store.responses.busy_s": _get(totals, "store.responses", "busy_ns") / 1e9,
        "store.bytes_on_disk": _sum(totals, "store.usage", "bytes_on_disk"),
        "store.materialised_blocks": _sum(totals, "store.usage", "blocks"),
        "kernel.responses.busy_s": kernel_s,
        "kernel.corners": corners,
        "kernel.bytes_computed": _sum(totals, "kernel.responses", "bytes"),
        "metrics.reliability.busy_s":
            _get(totals, "metrics.reliability", "busy_ns") / 1e9,
        "metrics.uniqueness.busy_s": _get(totals, "metrics.uniqueness", "busy_ns") / 1e9,
        "metrics.hd_histogram.busy_s":
            _get(totals, "metrics.hd_histogram", "busy_ns") / 1e9,
    }
    out = {k: v / units for k, v in out.items()} if units else out
    out["kernel.chip_years_per_s"] = chip_years / kernel_s if kernel_s else 0.0
    return out


def service_metrics(server) -> Dict[str, float]:
    """Per-call means (µs) of the server's spans, plus decode calls."""
    return {
        "service.dispatch.busy_us": _per_call_us(server, "service.dispatch", "busy_ns"),
        "service.auth.self_us": _per_call_us(server, "service.auth", "self_ns"),
        "service.key.self_us": _per_call_us(server, "service.key", "self_ns"),
        "service.enroll.self_us": _per_call_us(server, "service.enroll", "self_ns"),
        "service.helper_store.busy_us":
            _per_call_us(server, "service.helper_store", "busy_ns"),
        "service.audit.append.busy_us":
            _per_call_us(server, "service.audit.append", "busy_ns"),
        "metrics.fractional_hd.busy_us":
            _per_call_us(server, "metrics.fractional_hd", "busy_ns"),
        "keygen.reproduce.busy_us": _per_call_us(server, "keygen.reproduce", "busy_ns"),
        "keygen.enroll.busy_us": _per_call_us(server, "keygen.enroll", "busy_ns"),
        "ecc.correct.busy_us": _per_call_us(server, "ecc.correct", "busy_ns"),
        "ecc.bch_decode.calls": _get(server, "ecc.bch_decode", "calls"),
    }


def loadgen_encode_us(client) -> float:
    """Client time spent building a request outside the wire call."""
    return _per_call_us(client, "loadgen.request", "self_ns")
