"""Hamming-distance primitives shared by all PUF quality metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_bits(x) -> np.ndarray:
    arr = np.asarray(x)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("responses must be 0/1 bit arrays")
    return arr.astype(np.uint8)


def hamming_distance(a, b) -> int:
    """Number of positions where two equal-length bit vectors differ."""
    a, b = _as_bits(a), _as_bits(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def fractional_hd(a, b) -> float:
    """Hamming distance normalised by the vector length."""
    a = _as_bits(a)
    if a.size == 0:
        raise ValueError("empty responses have no Hamming distance")
    return hamming_distance(a, b) / a.size


#: row-block budget of the Gram kernel, in elements of one ``(rows, n)``
#: slab of the pair-count matrix (8 MiB of float64)
_GRAM_BLOCK_ELEMS = 1 << 20


def _bit_matrix(responses: Sequence) -> np.ndarray:
    """Validated ``(n, width)`` 0/1 matrix of one response per row."""
    mat = _as_bits(np.stack([np.asarray(r) for r in responses]))
    if mat.ndim != 2:
        raise ValueError("responses must be bit vectors, one per row")
    if mat.shape[1] == 0:
        raise ValueError("responses are empty")
    return mat


def _hd_row_blocks(mat: np.ndarray, *, upper: bool):
    """Pair Hamming counts of a bit matrix, one row block at a time.

    Yields ``(lo, hi, counts)`` where ``counts[i - lo, j - c0]`` is the
    number of differing bits between rows ``i`` and ``j`` for ``i`` in
    ``[lo, hi)`` and every ``j >= c0`` (``c0 = lo`` when ``upper``, else
    0).  The counts come from the Gram matrix of the 0/1 rows:
    ``hd(i, j) = w_i + w_j - 2 * (B Bᵀ)_ij`` with ``w`` the row weights.
    Every term is an integer below 2**53, so the float64 counts are exact
    whatever order the matrix product sums in.  Row blocking keeps each
    temporary bounded by :data:`_GRAM_BLOCK_ELEMS` instead of the
    ``n²/2 × width`` bytes a gathered XOR would take.
    """
    bits = mat.astype(np.float64)
    weights = bits.sum(axis=1)
    n = bits.shape[0]
    rows = max(1, _GRAM_BLOCK_ELEMS // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        c0 = lo if upper else 0
        counts = bits[lo:hi] @ bits[c0:].T
        counts *= -2.0
        counts += weights[lo:hi, None]
        counts += weights[None, c0:]
        yield lo, hi, counts


def pairwise_fractional_hd(responses: Sequence) -> np.ndarray:
    """Fractional HDs between all unordered pairs of responses.

    ``responses`` is a sequence of equal-length bit vectors (or a 2-D
    array, rows = responses).  Returns the flat vector of
    ``n*(n-1)/2`` pairwise fractional distances in row-major
    upper-triangle order (pair ``(0, 1)``, ``(0, 2)``, …), the raw
    material of the inter-chip uniqueness statistic.
    """
    mat = _bit_matrix(responses)
    n, width = mat.shape
    if n < 2:
        raise ValueError("need at least two responses")
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for lo, hi, counts in _hd_row_blocks(mat, upper=True):
        # strict upper triangle of the slab, row-major: column j - lo > i - lo
        keep = np.arange(n - lo)[None, :] > np.arange(hi - lo)[:, None]
        vals = counts[keep]
        out[pos : pos + vals.size] = vals
        pos += vals.size
    out /= width
    return out


def hd_matrix(responses: Sequence) -> np.ndarray:
    """Full symmetric matrix of pairwise fractional HDs (zero diagonal)."""
    mat = _bit_matrix(responses)
    out = np.empty((mat.shape[0],) * 2)
    for lo, hi, counts in _hd_row_blocks(mat, upper=False):
        out[lo:hi] = counts
    out /= mat.shape[1]
    return out
