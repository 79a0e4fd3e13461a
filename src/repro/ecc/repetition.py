"""Repetition code: the inner workhorse of high-error PUF key generators.

A raw bit-error probability around 30 % (the aged conventional RO-PUF) is
far beyond what any practical standalone BCH code handles, so key
generators concatenate a majority-voted repetition inner code that knocks
the error rate down to a level the outer BCH can finish off.  The price is
a factor-``r`` blow-up in raw PUF bits — the dominant term in the paper's
24x area comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats


@dataclass(frozen=True)
class RepetitionCode:
    """An ``r``-fold repetition code with majority decoding (``r`` odd)."""

    r: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.r % 2 == 0:
            raise ValueError("repetition factor must be a positive odd integer")

    @property
    def n(self) -> int:
        return self.r

    @property
    def k(self) -> int:
        return 1

    @property
    def t(self) -> int:
        """Errors corrected per group: ``(r - 1) // 2``."""
        return (self.r - 1) // 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rep({self.r})"

    def encode(self, message) -> np.ndarray:
        """Repeat every message bit ``r`` times (along the last axis)."""
        msg = np.atleast_1d(np.asarray(message))
        if not np.all((msg == 0) | (msg == 1)):
            raise ValueError("message must be a 0/1 bit vector")
        return np.repeat(msg.astype(np.uint8), self.r, axis=-1)

    def decode(self, received) -> np.ndarray:
        """Majority-vote every group of ``r`` bits (along the last axis)."""
        rx = np.atleast_1d(np.asarray(received))
        if rx.shape[-1] % self.r != 0:
            raise ValueError(
                f"received length {rx.shape[-1]} is not a multiple of r={self.r}"
            )
        if not np.all((rx == 0) | (rx == 1)):
            raise ValueError("received must be a 0/1 bit vector")
        groups = rx.reshape(*rx.shape[:-1], -1, self.r)
        return (groups.sum(axis=-1) > self.t).astype(np.uint8)

    def decoded_error_probability(self, p: float) -> float:
        """Residual bit-error probability after majority voting.

        A decoded bit is wrong when more than ``t`` of its ``r`` copies
        flipped: the binomial survival function at ``t``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        if self.r == 1:
            return p
        return float(stats.binom.sf(self.t, self.r, p))
