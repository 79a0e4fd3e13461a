"""Binary BCH codes: construction, systematic encoding, and decoding.

Everything is built from first principles on :mod:`repro.ecc.galois`:

* **construction** — the generator polynomial of a t-error-correcting BCH
  code of length ``2^m - 1`` is the LCM of the minimal polynomials of
  ``alpha, alpha^2, ..., alpha^{2t}``;
* **encoding** — systematic cyclic encoding (message in the high-order
  positions, parity = remainder of ``msg * x^{n-k}`` modulo the
  generator).  The remainder is linear in the word, so it is one product
  with the code's remainder matrix (row ``i`` = ``x^i mod g``, see
  :func:`~repro.ecc.galois.remainder_matrix`); the same product is the
  codeword check;
* **decoding** — syndrome computation, Berlekamp–Massey to find the error
  locator polynomial, and a Chien search for its roots.  Binary BCH needs
  no error-magnitude (Forney) step: located bits are simply flipped.
  The syndromes ``S_j = r(alpha^j)`` of a stack of words are one product
  with the bit planes of the table ``alpha^(i*j)``; Berlekamp–Massey and
  the Chien search run only for words whose syndromes are nonzero.

Every codec method takes one word ``(n,)`` or a stack of words
``(B, n)``; the key codec hands all blocks of a key over in one call.
The tables are built once per code, on first use.

Shortened codes (``BchCode.shortened``) are supported because key
generators rarely need the full natural length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .. import telemetry
from .galois import GF2m, poly_degree, poly_lcm_gf2, remainder_matrix


class BchDecodingError(ValueError):
    """Raised when the received word is beyond the code's correction power
    (more roots missing than the locator degree, or locations outside the
    shortened length)."""


def _as_bits(x, length: int, what: str, stacked: bool = False) -> np.ndarray:
    """Validate a 0/1 vector ``(length,)`` (or, with ``stacked``, a stack
    ``(B, length)``) and return it as ``uint8``."""
    arr = np.asarray(x)
    if arr.shape[-1:] != (length,) or arr.ndim > (2 if stacked else 1):
        shapes = f"({length},) or (B, {length})" if stacked else f"({length},)"
        raise ValueError(f"{what} must have shape {shapes}, got {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{what} must be a 0/1 bit vector")
    return arr.astype(np.uint8)


@dataclass(frozen=True)
class BchCode:
    """A (possibly shortened) binary BCH code.

    Use :meth:`design` to build one; the constructor is not meant to be
    called with hand-rolled parameters.
    """

    field: GF2m
    n: int
    k: int
    t: int
    generator: np.ndarray
    #: natural (unshortened) code length ``2^m - 1``
    n_full: int

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def design(cls, m: int, t: int) -> "BchCode":
        """The t-error-correcting BCH code of length ``2^m - 1``."""
        if t < 1:
            raise ValueError("t must be at least 1")
        field = GF2m(m)
        n = field.order
        if 2 * t >= n:
            raise ValueError(f"t={t} too large for length {n}")
        minimals = [field.minimal_polynomial(j) for j in range(1, 2 * t + 1)]
        gen = poly_lcm_gf2(minimals)
        k = n - poly_degree(gen)
        if k <= 0:
            raise ValueError(f"BCH(m={m}, t={t}) has no message bits")
        return cls(field=field, n=n, k=k, t=t, generator=gen, n_full=n)

    def shortened(self, n_short: int) -> "BchCode":
        """Shorten to length ``n_short`` (drops high-order message bits)."""
        drop = self.n - n_short
        if drop < 0:
            raise ValueError("a shortened code cannot be longer")
        if drop >= self.k:
            raise ValueError(
                f"cannot shorten by {drop}: only {self.k} message bits"
            )
        return BchCode(
            field=self.field,
            n=n_short,
            k=self.k - drop,
            t=self.t,
            generator=self.generator,
            n_full=self.n_full,
        )

    @property
    def n_parity(self) -> int:
        """Number of parity bits (degree of the generator polynomial)."""
        return self.n - self.k

    @property
    def rate(self) -> float:
        """Code rate ``k / n``."""
        return self.k / self.n

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"BCH({self.n},{self.k},t={self.t})"

    # ------------------------------------------------------------------
    # tables, built once per code on first use
    # ------------------------------------------------------------------

    @cached_property
    def _remainders(self) -> np.ndarray:
        """``(n, n - k)``: row ``i`` is ``x^i mod g``."""
        return remainder_matrix(self.generator, self.n)

    @cached_property
    def _syndrome_planes(self) -> np.ndarray:
        """``(n, 2t*m)`` bit planes of ``alpha^(i*j)``, ``j = 1 .. 2t``.

        Column ``(j-1)*m + b`` is bit ``b`` of ``alpha^(i*j)``, so
        ``words @ planes & 1`` holds the bits of every syndrome.  Stored
        as float32 for a BLAS product (sums stay below 2^24, exact).
        """
        field = self.field
        i = np.arange(self.n)[:, None]
        j = np.arange(1, 2 * self.t + 1)[None, :]
        powers = field.exp[(i * j) % field.order]
        planes = (powers[:, :, None] >> np.arange(field.m)) & 1
        return planes.reshape(self.n, -1).astype(np.float32)

    @cached_property
    def _chien_exponents(self) -> np.ndarray:
        """``(t+1, n_full)``: ``-i*j mod (2^m - 1)`` for locator term ``j``."""
        order = self.field.order
        positions = np.arange(self.n_full)
        j = np.arange(self.t + 1)[:, None]
        return (order - positions * j) % order

    @cached_property
    def _log_exp(self) -> Tuple[List[int], List[int]]:
        """The field's log/antilog tables as lists, for scalar lookups."""
        return self.field.log.tolist(), self.field.exp.tolist()

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def encode(self, message) -> np.ndarray:
        """Systematic encoding: ``[parity | message]`` (lowest index first).

        Positions ``0 .. n-k-1`` carry parity, ``n-k .. n-1`` the message.
        ``message`` is ``(k,)`` or a stack ``(B, k)``.
        """
        msg = _as_bits(message, self.k, "message", stacked=True)
        parity = (msg @ self._remainders[self.n_parity :]) & 1
        return np.concatenate([parity, msg], axis=-1)

    def extract_message(self, codeword) -> np.ndarray:
        """Message bits of a (corrected) systematic codeword (or stack)."""
        cw = _as_bits(codeword, self.n, "codeword", stacked=True)
        return cw[..., self.n_parity :].copy()

    def is_codeword(self, word) -> bool:
        """True when ``word`` is divisible by the generator polynomial."""
        w = _as_bits(word, self.n, "word")
        return not ((w @ self._remainders) & 1).any()

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def _syndromes(self, words: np.ndarray) -> np.ndarray:
        """``S_j = r(alpha^j)``, ``j = 1 .. 2t``, for every row of
        ``words`` ``(B, n)``: a ``(B, 2t)`` array of field elements."""
        m = self.field.m
        sums = words.astype(np.float32) @ self._syndrome_planes
        bits = sums.astype(np.int64) & 1
        return bits.reshape(len(words), 2 * self.t, m) @ (1 << np.arange(m))

    def _berlekamp_massey(self, syndromes: List[int]) -> List[int]:
        """Error-locator polynomial (coefficients lowest-first)."""
        log, exp = self._log_exp
        order = self.field.order
        sigma = [1]
        prev = [1]
        l = 0
        shift = 1
        b = 1
        for step, s_n in enumerate(syndromes):
            d = s_n
            for i in range(1, l + 1):
                if i < len(sigma) and step - i >= 0:
                    c, s = sigma[i], syndromes[step - i]
                    if c and s:
                        d ^= exp[log[c] + log[s]]
            if d == 0:
                shift += 1
                continue
            log_coef = (log[d] - log[b]) % order  # log of d / b
            update = sigma.copy()
            # sigma -= coef * x^shift * prev
            needed = shift + len(prev)
            if len(update) < needed:
                update.extend([0] * (needed - len(update)))
            for i, c in enumerate(prev):
                if c:
                    update[shift + i] ^= exp[log_coef + log[c]]
            if 2 * l <= step:
                prev = sigma
                b = d
                l = step + 1 - l
                shift = 1
            else:
                shift += 1
            sigma = update
        # trim trailing zeros
        while len(sigma) > 1 and sigma[-1] == 0:
            sigma.pop()
        return sigma

    def _chien_search(self, sigma: List[int]) -> np.ndarray:
        """Error positions: ``i`` such that ``sigma(alpha^{-i}) = 0``."""
        field = self.field
        exps = self._chien_exponents
        acc = np.zeros(self.n_full, dtype=np.int64)
        for j, coef in enumerate(sigma):
            if coef == 0:
                continue
            acc ^= field.exp[(field.log[coef] + exps[j]) % field.order]
        return np.nonzero(acc == 0)[0]

    def _correct(self, word: np.ndarray, syndromes: List[int]) -> int:
        """Flip the located errors of one word in place; return their
        number, or raise :class:`BchDecodingError`."""
        sigma = self._berlekamp_massey(syndromes)
        n_errors = len(sigma) - 1
        if n_errors > self.t:
            raise BchDecodingError(
                f"locator degree {n_errors} exceeds correction power t={self.t}"
            )
        roots = self._chien_search(sigma)
        if roots.size != n_errors:
            raise BchDecodingError(
                f"found {roots.size} error locations for a degree-{n_errors} "
                "locator; received word is uncorrectable"
            )
        if np.any(roots >= self.n):
            raise BchDecodingError(
                "error located in the shortened (always-zero) prefix"
            )
        word[roots] ^= 1
        if ((word @ self._remainders) & 1).any():
            raise BchDecodingError("correction did not land on a codeword")
        return n_errors

    def decode(self, received):
        """Correct up to ``t`` errors per word.

        ``received`` is one word ``(n,)`` or a stack ``(B, n)``.  Returns
        ``(corrected codeword, number of corrected bits)`` — for a stack,
        the corrected ``(B, n)`` matrix and a ``(B,)`` count.  Raises
        :class:`BchDecodingError` at the first word (in order) that is
        uncorrectable *and* detectably so (locator degree does not match
        its root count, or an error lands in the shortened prefix).
        Words with more than ``t`` errors may also silently decode to a
        wrong codeword — an inherent property of bounded-distance
        decoding that the key-failure model accounts for.
        """
        rec = _as_bits(received, self.n, "received", stacked=True)
        corrected = rec.reshape(-1, self.n)
        syndromes = self._syndromes(corrected)
        n_errors = np.zeros(len(corrected), dtype=np.int64)
        dirty = np.flatnonzero(syndromes.any(axis=1))
        for done, row in enumerate(dirty.tolist()):
            try:
                n_errors[row] = self._correct(corrected[row], syndromes[row].tolist())
            except BchDecodingError:
                _count_words(row + 1, row - done, int(n_errors.sum()), failed=True)
                raise
        _count_words(len(corrected), len(corrected) - dirty.size, int(n_errors.sum()))
        if rec.ndim == 1:
            return corrected[0], int(n_errors[0])
        return corrected, n_errors


def _count_words(
    decoded: int, clean: int, corrected_bits: int, failed: bool = False
) -> None:
    """The per-word decode counters, for ``decoded`` words in order."""
    telemetry.count("ecc.bch_decodes", decoded)
    if clean:
        telemetry.count("ecc.bch_clean_words", clean)
    if corrected_bits:
        telemetry.count("ecc.bch_corrected_bits", corrected_bits)
    if failed:
        telemetry.count("ecc.bch_decode_failures")


def standard_codes(max_m: int = 10, max_t: int = 32) -> List[BchCode]:
    """A palette of practical BCH codes for the design-space search."""
    codes = []
    for m in range(5, max_m + 1):
        for t in range(1, max_t + 1):
            try:
                code = BchCode.design(m, t)
            except ValueError:
                break
            if code.k < 8:
                break
            codes.append(code)
    return codes
