"""Concatenated (repetition inner, BCH outer) codes and key-level codecs.

``ConcatenatedCode`` is the linear code actually used by the fuzzy
extractor: the outer BCH codeword is expanded bit-by-bit through the inner
repetition code.  Linearity is what makes the code-offset construction
work, and concatenating two linear codes preserves it.

``KeyCodec`` stacks as many concatenated blocks as the key needs (a 128-bit
key over a ``k=64`` outer code needs two blocks) and exposes the aggregate
geometry the design-space search optimises.  It reshapes a key to its
``(n_blocks, n)`` block matrix and makes one call down the concatenated
code: every codec method takes one block or a stack of blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .bch import BchCode
from .repetition import RepetitionCode


@dataclass(frozen=True)
class ConcatenatedCode:
    """Repetition-inside-BCH concatenation (inner ``r`` may be 1)."""

    outer: BchCode
    inner: RepetitionCode

    @property
    def n(self) -> int:
        """Raw (PUF-side) bits per block."""
        return self.outer.n * self.inner.r

    @property
    def k(self) -> int:
        """Message bits per block."""
        return self.outer.k

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.inner} o {self.outer}"

    def encode(self, message) -> np.ndarray:
        """Outer-encode then repeat every codeword bit (``(k,)`` or
        ``(B, k)``)."""
        return self.inner.encode(self.outer.encode(message))

    def decode(self, received):
        """Majority-vote the groups, then BCH-decode the result.

        ``received`` is one block ``(n,)`` or a stack ``(B, n)``.  Returns
        ``(corrected outer codeword, outer errors corrected)``, per block
        for a stack.
        """
        rx = np.asarray(received)
        if rx.shape[-1:] != (self.n,) or rx.ndim > 2:
            raise ValueError(f"received must have shape ({self.n},) or (B, {self.n})")
        voted = self.inner.decode(rx)
        return self.outer.decode(voted)

    def decode_message(self, received) -> np.ndarray:
        """Decode straight to the message bits (per block for a stack)."""
        corrected, _ = self.decode(received)
        return self.outer.extract_message(corrected)

    def correct(self, received) -> np.ndarray:
        """Return the corrected *raw* codeword (inner-expanded).

        This is what the code-offset fuzzy extractor needs: the nearest
        codeword at the raw-bit level, so the exact enrolled response can
        be reconstructed as ``offset XOR codeword``.
        """
        corrected_outer, _ = self.decode(received)
        return self.inner.encode(corrected_outer)

    def block_failure_probability(self, p: float) -> float:
        """Probability one block fails at raw bit-error probability ``p``.

        The inner stage leaves each outer bit wrong independently with
        probability ``q`` (:meth:`RepetitionCode.decoded_error_probability`);
        the block fails when more than ``t`` outer bits are wrong.
        """
        q = self.inner.decoded_error_probability(p)
        return float(stats.binom.sf(self.outer.t, self.outer.n, q))


@dataclass(frozen=True)
class KeyCodec:
    """Enough concatenated blocks to carry ``key_bits`` message bits."""

    code: ConcatenatedCode
    key_bits: int

    def __post_init__(self) -> None:
        if self.key_bits < 1:
            raise ValueError("key_bits must be positive")

    @property
    def n_blocks(self) -> int:
        return -(-self.key_bits // self.code.k)  # ceil division

    @property
    def raw_bits(self) -> int:
        """Total PUF response bits consumed."""
        return self.n_blocks * self.code.n

    @property
    def message_bits(self) -> int:
        """Total message capacity (>= key_bits)."""
        return self.n_blocks * self.code.k

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.n_blocks} x [{self.code}]"

    def _blocks(self, bits, width: int, what: str) -> np.ndarray:
        """Validate a key-length vector; return its ``(n_blocks, width)``
        block matrix."""
        arr = np.asarray(bits)
        if arr.shape != (self.n_blocks * width,):
            raise ValueError(f"{what} must have shape ({self.n_blocks * width},)")
        return arr.reshape(self.n_blocks, width)

    def encode(self, message) -> np.ndarray:
        """Encode ``message_bits`` bits into ``raw_bits`` bits."""
        blocks = self._blocks(message, self.code.k, "message")
        return self.code.encode(blocks).reshape(-1)

    def decode(self, received) -> np.ndarray:
        """Decode ``raw_bits`` bits back to the ``message_bits`` bits."""
        blocks = self._blocks(received, self.code.n, "received")
        return self.code.decode_message(blocks).reshape(-1)

    def correct(self, received) -> np.ndarray:
        """Corrected raw codeword over all blocks (see
        :meth:`ConcatenatedCode.correct`)."""
        blocks = self._blocks(received, self.code.n, "received")
        return self.code.correct(blocks).reshape(-1)

    def key_failure_probability(self, p: float) -> float:
        """Probability the key regeneration fails at raw error rate ``p``."""
        p_block = self.code.block_failure_probability(p)
        return float(1.0 - (1.0 - p_block) ** self.n_blocks)
