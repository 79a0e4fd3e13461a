"""The binary Golay code (23, 12, 7) — the classic PUF key-gen workhorse.

Golay's perfect three-error-correcting code appears throughout the PUF
key-generation literature (Bosch et al.'s reference constructions use it
as the outer code), so the design-space search deserves it in the palette
next to the BCH family.

Being *perfect*, the 2^11 syndromes are in exact one-to-one
correspondence with the error patterns of weight <= 3
(``1 + 23 + C(23,2) + C(23,3) = 2048``), so decoding is a syndrome table
lookup — built once per process by enumerating those patterns.  A
syndrome (the remainder modulo the generator) is one product with the
remainder matrix, so a stack of words ``(B, n)`` decodes in one call.  The
flip side of perfection: there are no detectable failures.  Any received
word decodes to *some* codeword; four or more errors silently miscorrect.
The key-failure model (binomial tail beyond t) already accounts for that.

The interface mirrors :class:`repro.ecc.bch.BchCode` (``n``, ``k``,
``t``, ``encode``, ``decode``, ``extract_message``, ``is_codeword``,
``shortened``) so :class:`repro.ecc.concatenated.ConcatenatedCode`
accepts either family as the outer code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bch import BchDecodingError, _as_bits
from .galois import remainder_matrix

#: generator polynomial x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1,
#: lowest-degree-first coefficient array
GOLAY_GENERATOR = np.array(
    [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8
)

N = 23
K = 12
T = 3
N_PARITY = 11


#: ``(23, 11)``: row ``i`` is ``x^i mod g`` (a shortened word uses the
#: first ``n`` rows — its chopped high positions are known zeros)
_REMAINDERS = remainder_matrix(GOLAY_GENERATOR, N)


def _syndrome_key(words: np.ndarray) -> np.ndarray:
    """Syndrome of each 0/1 word on the last axis, as an 11-bit integer."""
    words = np.asarray(words, dtype=np.uint8)
    rem = (words @ _REMAINDERS[: words.shape[-1]]) & 1
    return rem @ (1 << np.arange(N_PARITY))


@lru_cache(maxsize=None)
def _build_syndrome_table() -> np.ndarray:
    """``(2048, 23)``: row ``s`` is the unique weight-<=3 error pattern
    with syndrome ``s``.

    Built once per process: the table is a property of the code, not of
    any instance.
    """
    patterns = []
    for weight in range(T + 1):
        for positions in itertools.combinations(range(N), weight):
            err = np.zeros(N, dtype=np.uint8)
            err[list(positions)] = 1
            patterns.append(err)
    patterns = np.array(patterns)
    keys = _syndrome_key(patterns)
    if np.unique(keys).size != keys.size:  # pragma: no cover - perfection
        raise AssertionError("syndrome collision: code is not perfect")
    if keys.size != 2**N_PARITY:  # pragma: no cover
        raise AssertionError("syndrome table does not fill the space")
    table = np.empty_like(patterns)
    table[keys] = patterns
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class GolayCode:
    """The (23, 12) binary Golay code with table-lookup decoding.

    ``n_short`` < 23 gives the shortened variant (fewer message bits, same
    parity and correction power).
    """

    n: int = N
    _table: np.ndarray = field(
        default_factory=_build_syndrome_table, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not N_PARITY < self.n <= N:
            raise ValueError(
                f"Golay length must be in ({N_PARITY}, {N}], got {self.n}"
            )

    # -- BchCode-compatible geometry --------------------------------------

    @property
    def k(self) -> int:
        return self.n - N_PARITY

    @property
    def t(self) -> int:
        return T

    @property
    def n_parity(self) -> int:
        return N_PARITY

    @property
    def rate(self) -> float:
        return self.k / self.n

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.n == N:
            return "Golay(23,12,t=3)"
        return f"Golay({self.n},{self.k},t=3)"

    def shortened(self, n_short: int) -> "GolayCode":
        """Shortened Golay code (drops high-order message bits)."""
        if n_short > self.n:
            raise ValueError("a shortened code cannot be longer")
        return GolayCode(n=n_short, _table=self._table)

    # -- codec -------------------------------------------------------------

    def encode(self, message) -> np.ndarray:
        """Systematic ``[parity | message]`` for ``(k,)`` or ``(B, k)``."""
        msg = _as_bits(message, self.k, "message", stacked=True)
        parity = (msg @ _REMAINDERS[N_PARITY : self.n]) & 1
        return np.concatenate([parity, msg], axis=-1)

    def extract_message(self, codeword) -> np.ndarray:
        cw = _as_bits(codeword, self.n, "codeword", stacked=True)
        return cw[..., N_PARITY:].copy()

    def is_codeword(self, word) -> bool:
        w = np.asarray(word)
        if w.shape != (self.n,):
            raise ValueError(f"word must have shape ({self.n},)")
        return bool(_syndrome_key(w) == 0)

    def decode(self, received):
        """Correct up to three errors per word via the perfect syndrome
        table; ``received`` is ``(n,)`` or a stack ``(B, n)``.

        Returns ``(corrected, n_corrected)`` — for a stack, the corrected
        ``(B, n)`` matrix and a ``(B,)`` count.  Shortened positions are
        known zeros; an "error" located there means the true pattern had
        weight > t, which the perfect code cannot flag otherwise — it is
        reported as a decoding failure.
        """
        rec = _as_bits(received, self.n, "received", stacked=True)
        errors = self._table[_syndrome_key(rec)]
        if errors[..., self.n :].any():
            raise BchDecodingError(
                "error located in the shortened (always-zero) prefix"
            )
        errors = errors[..., : self.n]
        n_corrected = errors.sum(axis=-1, dtype=np.int64)
        if rec.ndim == 1:
            return rec ^ errors, int(n_corrected)
        return rec ^ errors, n_corrected
