"""Fused evaluation kernel: the single-pass hot path of the study engine.

``repro.kernel`` owns the per-block arithmetic the study engine streams
every chip through, whether its columns live in RAM or in the
out-of-core store:

* :mod:`repro.kernel.fused` — the fabricate → age → compare chain as one
  chip-axis-blocked pass: the frequency block kernel, the per-block
  finalisation (finiteness check + reciprocal) and the block *sinks*
  that derive response bits, signed margins and histogram counts from
  each frequency block while it is still cache-resident, instead of
  re-reading a population-sized tensor per derived quantity;
* :mod:`repro.kernel.backend` — a minimal array-backend seam (numpy by
  default, CuPy/torch resolved lazily at runtime) so the same kernel
  runs on a GPU without the engines changing;
* :mod:`repro.kernel.validate` — the dtype-tier harness that proves
  response-bit identity between float32 and float64 before the reduced
  precision is allowed to gate anything.

The engine (:class:`repro.core.population.BatchStudy`, bound to RAM
tensors or to a store window as :class:`repro.store.study.StoreStudy`,
and fanned out by the parallel coordinator) stays the public surface;
its one corner loop is the kernel's only caller, so serial / parallel /
out-of-core stay bit-identical by construction.
"""

from .backend import ArrayBackend, register_backend, resolve_backend
from .fused import (
    OVERDRIVE_ERROR,
    MarginHistogramSink,
    ResponseBlockSink,
    finalize_period_block,
    frequency_block_kernel,
)
from .validate import DtypeValidationReport, validate_response_identity

__all__ = [
    "ArrayBackend",
    "register_backend",
    "resolve_backend",
    "frequency_block_kernel",
    "finalize_period_block",
    "ResponseBlockSink",
    "MarginHistogramSink",
    "OVERDRIVE_ERROR",
    "DtypeValidationReport",
    "validate_response_identity",
]
