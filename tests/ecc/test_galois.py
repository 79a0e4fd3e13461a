"""GF(2^m) arithmetic and GF(2)[x] polynomial helpers."""

import numpy as np
import pytest

from repro.ecc import (
    GF2m,
    PRIMITIVE_POLYS,
    poly_degree,
    poly_lcm_gf2,
    poly_mod_gf2,
    poly_mul_gf2,
    poly_trim,
)
from repro.ecc.galois import remainder_matrix


@pytest.fixture(scope="module")
def gf16():
    return GF2m(4)


@pytest.fixture(scope="module")
def gf256():
    return GF2m(8)


class TestConstruction:
    def test_table_sizes(self, gf16):
        assert gf16.order == 15
        assert gf16.size == 16
        assert len(gf16.log) == 16

    def test_exp_log_inverse(self, gf256):
        for x in range(1, 256):
            assert gf256.exp[gf256.log[x]] == x

    def test_non_primitive_poly_rejected(self):
        # x^4 + x^2 + 1 = (x^2+x+1)^2 is reducible
        with pytest.raises(ValueError, match="primitive"):
            GF2m(4, primitive_poly=0b10101)

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            GF2m(4, primitive_poly=0b1011)

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            GF2m(1)
        with pytest.raises(ValueError):
            GF2m(15)

    def test_equality_and_hash(self):
        assert GF2m(4) == GF2m(4)
        assert GF2m(4) != GF2m(5)
        assert hash(GF2m(4)) == hash(GF2m(4))

    @pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
    def test_all_default_polys_primitive(self, m):
        GF2m(m)  # constructor verifies primitivity


class TestArithmetic:
    def test_add_is_xor(self, gf16):
        assert gf16.add(0b1010, 0b0110) == 0b1100

    def test_mul_zero(self, gf16):
        assert gf16.mul(0, 7) == 0
        assert gf16.mul(7, 0) == 0

    def test_mul_identity(self, gf16):
        for x in range(16):
            assert gf16.mul(1, x) == x

    def test_inverse(self, gf256):
        for x in range(1, 256):
            assert gf256.mul(x, gf256.inv(x)) == 1

    def test_zero_inverse_raises(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.inv(0)

    def test_division(self, gf16):
        for a in range(16):
            for b in range(1, 16):
                assert gf16.mul(gf16.div(a, b), b) == a

    def test_division_by_zero(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.div(3, 0)

    def test_pow(self, gf16):
        assert gf16.pow(2, 0) == 1
        assert gf16.pow(2, gf16.order) == 1  # Fermat
        assert gf16.pow(0, 3) == 0
        assert gf16.pow(0, 0) == 1
        with pytest.raises(ZeroDivisionError):
            gf16.pow(0, -1)

    def test_negative_pow(self, gf16):
        for x in range(1, 16):
            assert gf16.mul(gf16.pow(x, -1), x) == 1

    def test_out_of_range_rejected(self, gf16):
        with pytest.raises(ValueError):
            gf16.mul(16, 1)

    def test_alpha_pow_wraps(self, gf16):
        assert gf16.alpha_pow(0) == 1
        assert gf16.alpha_pow(15) == 1
        assert gf16.alpha_pow(-1) == gf16.alpha_pow(14)


class TestStructures:
    def test_cyclotomic_coset_closed_under_doubling(self, gf16):
        coset = gf16.cyclotomic_coset(1)
        assert coset == [1, 2, 4, 8]
        for c in coset:
            assert (2 * c) % 15 in coset

    def test_coset_of_zero(self, gf16):
        assert gf16.cyclotomic_coset(0) == [0]

    def test_minimal_polynomial_of_alpha(self, gf16):
        """alpha's minimal polynomial is the field's primitive polynomial."""
        mp = gf16.minimal_polynomial(1)
        as_int = int(sum(int(c) << i for i, c in enumerate(mp)))
        assert as_int == gf16.primitive_poly

    def test_minimal_polynomial_has_root(self, gf256):
        mp = gf256.minimal_polynomial(5)
        root = gf256.alpha_pow(5)
        acc = 0
        for i, c in enumerate(mp):
            if c:
                acc ^= gf256.pow(root, i)
        assert acc == 0


class TestPolyGf2:
    def test_trim(self):
        assert poly_trim([1, 0, 1, 0, 0]).tolist() == [1, 0, 1]
        assert poly_trim([0, 0]).tolist() == [0]

    def test_degree(self):
        assert poly_degree([1, 0, 1]) == 2
        assert poly_degree([0]) == -1

    def test_mul(self):
        # (1 + x)(1 + x) = 1 + x^2 over GF(2)
        assert poly_mul_gf2([1, 1], [1, 1]).tolist() == [1, 0, 1]

    def test_mod(self):
        # x^2 mod (x + 1) = 1  (x = 1 is a root of x+1)
        rem = poly_mod_gf2([0, 0, 1], [1, 1])
        assert rem.tolist() == [1]

    def test_mod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_mod_gf2([1, 1], [0])

    def test_exact_division_leaves_zero(self):
        a = poly_mul_gf2([1, 1, 0, 1], [1, 0, 1])
        rem = poly_mod_gf2(a, np.array([1, 0, 1]))
        assert not rem.any()

    def test_lcm_dedups(self):
        p = [1, 1]
        lcm = poly_lcm_gf2([p, p, [1, 0, 1]])
        assert lcm.tolist() == poly_mul_gf2([1, 1], [1, 0, 1]).tolist()

    def test_lcm_empty_rejected(self):
        with pytest.raises(ValueError):
            poly_lcm_gf2([])

    def test_remainder_matrix_rows_are_powers_of_x(self):
        mod = np.array([1, 1, 0, 1], dtype=np.uint8)  # x^3 + x + 1
        rows = remainder_matrix(mod, 10)
        assert rows.shape == (10, 3)
        for i in range(10):
            x_i = np.zeros(i + 1, dtype=np.uint8)
            x_i[i] = 1
            assert rows[i].tolist() == poly_mod_gf2(x_i, mod).tolist()

    def test_remainder_matrix_reduces_any_word(self):
        mod = np.array([1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
        rows = remainder_matrix(mod, 23)
        words = np.random.default_rng(0).integers(0, 2, (50, 23)).astype(np.uint8)
        for word, rem in zip(words, (words @ rows) & 1):
            assert rem.tolist() == poly_mod_gf2(word, mod).tolist()

    def test_remainder_matrix_needs_nonconstant_modulus(self):
        with pytest.raises(ValueError):
            remainder_matrix(np.array([1], dtype=np.uint8), 4)
