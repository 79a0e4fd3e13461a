"""Hamming-distance primitives."""

import numpy as np
import pytest

from repro.metrics import (
    fractional_hd,
    hamming_distance,
    hd_matrix,
    pairwise_fractional_hd,
)


class TestHammingDistance:
    def test_identical(self):
        assert hamming_distance([0, 1, 1], [0, 1, 1]) == 0

    def test_all_different(self):
        assert hamming_distance([0, 1, 0], [1, 0, 1]) == 3

    def test_symmetric(self):
        a, b = [0, 1, 1, 0], [1, 1, 0, 0]
        assert hamming_distance(a, b) == hamming_distance(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hamming_distance([0, 1], [0, 1, 1])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            hamming_distance([0, 2], [0, 1])


class TestFractionalHd:
    def test_half(self):
        assert fractional_hd([0, 0, 1, 1], [0, 1, 1, 0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fractional_hd([], [])


def _xor_pairwise(mat):
    """Reference: XOR-sum every unordered pair, row-major upper triangle."""
    n, width = mat.shape
    return np.array(
        [
            np.count_nonzero(mat[i] ^ mat[j]) / width
            for i in range(n)
            for j in range(i + 1, n)
        ]
    )


def _xor_matrix(mat):
    n, width = mat.shape
    return np.array(
        [[np.count_nonzero(mat[i] ^ mat[j]) / width for j in range(n)] for i in range(n)]
    )


#: (n, width) shapes the Gram kernel must agree with XOR on exactly:
#: the smallest population, one-bit responses, the served 756-bit width,
#: and a population spanning several row blocks
KERNEL_SHAPES = [(2, 1), (2, 756), (3, 1), (7, 33), (19, 756), (300, 3)]


class TestPairwise:
    @pytest.mark.parametrize("n, width", KERNEL_SHAPES)
    def test_equals_xor_reference(self, n, width, monkeypatch):
        import repro.metrics.hamming as hamming

        # small row blocks, so the shapes above also cross block edges
        monkeypatch.setattr(hamming, "_GRAM_BLOCK_ELEMS", 2048)
        rng = np.random.default_rng(n * 1000 + width)
        mat = rng.integers(0, 2, (n, width), dtype=np.uint8)
        assert np.array_equal(pairwise_fractional_hd(mat), _xor_pairwise(mat))
        assert np.array_equal(pairwise_fractional_hd(list(mat)), _xor_pairwise(mat))

    @pytest.mark.parametrize("bit", [0, 1])
    def test_all_equal_rows(self, bit):
        mat = np.full((5, 40), bit, dtype=np.uint8)
        dists = pairwise_fractional_hd(mat)
        assert np.array_equal(dists, _xor_pairwise(mat))
        assert not dists.any()

    def test_rejects_non_binary_matrix(self):
        with pytest.raises(ValueError, match="0/1"):
            pairwise_fractional_hd(np.array([[0, 1], [2, 0]]))

    def test_rejects_scalar_rows(self):
        with pytest.raises(ValueError, match="one per row"):
            pairwise_fractional_hd([0, 1, 1])

    def test_rejects_empty_responses(self):
        with pytest.raises(ValueError, match="empty"):
            pairwise_fractional_hd(np.zeros((3, 0), dtype=np.uint8))

    def test_count(self):
        rng = np.random.default_rng(0)
        responses = rng.integers(0, 2, (6, 32))
        dists = pairwise_fractional_hd(responses)
        assert dists.shape == (15,)

    def test_values(self):
        responses = [[0, 0], [0, 1], [1, 1]]
        dists = pairwise_fractional_hd(responses)
        assert sorted(dists.tolist()) == [0.5, 0.5, 1.0]

    def test_needs_two(self):
        with pytest.raises(ValueError):
            pairwise_fractional_hd([[0, 1]])

    def test_random_responses_near_half(self):
        rng = np.random.default_rng(1)
        responses = rng.integers(0, 2, (30, 256))
        assert pairwise_fractional_hd(responses).mean() == pytest.approx(0.5, abs=0.02)


class TestMatrix:
    @pytest.mark.parametrize("n, width", KERNEL_SHAPES[:-1])
    def test_equals_xor_reference(self, n, width, monkeypatch):
        import repro.metrics.hamming as hamming

        monkeypatch.setattr(hamming, "_GRAM_BLOCK_ELEMS", 64)
        rng = np.random.default_rng(n * 1000 + width + 1)
        mat = rng.integers(0, 2, (n, width), dtype=np.uint8)
        assert np.array_equal(hd_matrix(mat), _xor_matrix(mat))

    def test_all_equal_rows_are_all_zero(self):
        assert np.array_equal(hd_matrix(np.ones((4, 9), dtype=np.uint8)), np.zeros((4, 4)))

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(2)
        responses = rng.integers(0, 2, (5, 16))
        mat = hd_matrix(responses)
        assert np.allclose(mat, mat.T)
        assert not np.any(np.diag(mat))

    def test_matches_pairwise(self):
        rng = np.random.default_rng(3)
        responses = rng.integers(0, 2, (4, 16))
        mat = hd_matrix(responses)
        flat = pairwise_fractional_hd(responses)
        iu = np.triu_indices(4, k=1)
        assert np.allclose(mat[iu], flat)
