"""Property-based tests: coding-theory round trips under random errors.

The table-driven codec is held to a scalar oracle kept here, in the
tests only: per-position ``alpha_pow`` syndromes, Berlekamp–Massey over
the range-checked field operations, a point-by-point Chien search,
``poly_mod_gf2`` long-division encoding and codeword checks, and the
block-by-block key codec loop.  Stacked ``(B, n)`` decodes must return
the oracle's codeword for every block, or raise the oracle's message for
the first failing block.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.ecc import (
    GOLAY_GENERATOR,
    BchCode,
    BchDecodingError,
    ConcatenatedCode,
    GolayCode,
    KeyCodec,
    RepetitionCode,
    poly_mod_gf2,
)

BCH = BchCode.design(5, 3)  # (31, 16, t=3)
CONCAT = ConcatenatedCode(outer=BCH, inner=RepetitionCode(3))


def bits(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=np.uint8)
    )


def error_positions(n, max_errors):
    return st.lists(
        st.integers(0, n - 1), min_size=0, max_size=max_errors, unique=True
    )


# ----------------------------------------------------------------------
# the scalar oracle
# ----------------------------------------------------------------------


def _generator(code):
    return GOLAY_GENERATOR if isinstance(code, GolayCode) else code.generator


def oracle_encode(code, msg):
    """Long-division systematic encoding: ``[x^(n-k) msg mod g | msg]``."""
    n_parity = code.n - code.k
    shifted = np.zeros(code.n, dtype=np.uint8)
    shifted[n_parity:] = msg
    parity = poly_mod_gf2(shifted, _generator(code))
    return np.concatenate([parity[:n_parity], msg]).astype(np.uint8)


def oracle_is_codeword(code, word):
    return not poly_mod_gf2(word, _generator(code)).any()


def oracle_syndromes(code, word):
    field = code.field
    ones = np.nonzero(word)[0]
    syndromes = []
    for j in range(1, 2 * code.t + 1):
        s = 0
        for i in ones:
            s ^= field.alpha_pow(int(i) * j)
        syndromes.append(s)
    return syndromes


def oracle_berlekamp_massey(field, syndromes):
    sigma, prev = [1], [1]
    l, shift, b = 0, 1, 1
    for step, s_n in enumerate(syndromes):
        d = s_n
        for i in range(1, l + 1):
            if i < len(sigma) and step - i >= 0:
                d ^= field.mul(sigma[i], syndromes[step - i])
        if d == 0:
            shift += 1
            continue
        coef = field.div(d, b)
        update = sigma + [0] * max(0, shift + len(prev) - len(sigma))
        for i, c in enumerate(prev):
            update[shift + i] ^= field.mul(coef, c)
        if 2 * l <= step:
            prev, b, l, shift = sigma, d, step + 1 - l, 1
        else:
            shift += 1
        sigma = update
    while len(sigma) > 1 and sigma[-1] == 0:
        sigma.pop()
    return sigma


def oracle_chien(code, sigma):
    field = code.field
    roots = []
    for i in range(code.n_full):
        acc = 0
        for j, coef in enumerate(sigma):
            acc ^= field.mul(coef, field.alpha_pow(-i * j))
        if acc == 0:
            roots.append(i)
    return np.array(roots, dtype=np.int64)


def oracle_bch_decode(code, word):
    syndromes = oracle_syndromes(code, word)
    if not any(syndromes):
        return word.copy(), 0
    sigma = oracle_berlekamp_massey(code.field, syndromes)
    n_errors = len(sigma) - 1
    if n_errors > code.t:
        raise BchDecodingError(
            f"locator degree {n_errors} exceeds correction power t={code.t}"
        )
    roots = oracle_chien(code, sigma)
    if roots.size != n_errors:
        raise BchDecodingError(
            f"found {roots.size} error locations for a degree-{n_errors} "
            "locator; received word is uncorrectable"
        )
    if np.any(roots >= code.n):
        raise BchDecodingError("error located in the shortened (always-zero) prefix")
    corrected = word.copy()
    corrected[roots] ^= 1
    if not oracle_is_codeword(code, corrected):
        raise BchDecodingError("correction did not land on a codeword")
    return corrected, n_errors


@lru_cache(maxsize=None)
def oracle_golay_table():
    """Syndrome (as a bit tuple) -> the weight-<=3 error positions."""
    table = {}
    for weight in range(4):
        for positions in itertools.combinations(range(23), weight):
            err = np.zeros(23, dtype=np.uint8)
            err[list(positions)] = 1
            table[tuple(poly_mod_gf2(err, GOLAY_GENERATOR))] = positions
    return table


def oracle_golay_decode(code, word):
    full = np.zeros(23, dtype=np.uint8)
    full[: code.n] = word
    positions = oracle_golay_table()[tuple(poly_mod_gf2(full, GOLAY_GENERATOR))]
    if any(p >= code.n for p in positions):
        raise BchDecodingError("error located in the shortened (always-zero) prefix")
    corrected = word.copy()
    corrected[list(positions)] ^= 1
    return corrected, len(positions)


def oracle_decode(code, word):
    if isinstance(code, GolayCode):
        return oracle_golay_decode(code, word)
    return oracle_bch_decode(code, word)


def oracle_key_correct(codec, received):
    """The block-by-block key codec: majority vote, decode, re-expand."""
    code = codec.code
    out = []
    for block in received.reshape(codec.n_blocks, code.n):
        voted = (block.reshape(-1, code.inner.r).sum(axis=1) > code.inner.t)
        corrected, _ = oracle_decode(code.outer, voted.astype(np.uint8))
        out.append(np.repeat(corrected, code.inner.r))
    return np.concatenate(out)


def _outcome(fn, *args):
    """``fn(*args)``'s result, or the message it raised."""
    try:
        return fn(*args)
    except BchDecodingError as exc:
        return str(exc)


OUTER_CODES = {
    "BCH(31,16,3)": BchCode.design(5, 3),
    "BCH(63,39,4)": BchCode.design(6, 4),
    "BCH(80,24,9)": BchCode.design(7, 9).shortened(80),
    "Golay(23,12,3)": GolayCode(),
    "Golay(18,7,3)": GolayCode().shortened(18),
}
CASES = [
    (name, weight)
    for name, code in OUTER_CODES.items()
    for weight in range(code.t + 4)
]


@st.composite
def received_word(draw, code, weight):
    """``(codeword, received)`` with exactly ``weight`` flipped bits."""
    codeword = code.encode(draw(bits(code.k)))
    flips = draw(
        st.lists(
            st.integers(0, code.n - 1), min_size=weight, max_size=weight, unique=True
        )
    )
    received = codeword.copy()
    received[flips] ^= 1
    return codeword, received


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("name", list(OUTER_CODES))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_encode_matches_long_division(self, name, data):
        code = OUTER_CODES[name]
        n_blocks = data.draw(st.integers(1, 4))
        msgs = np.array([data.draw(bits(code.k)) for _ in range(n_blocks)])
        expected = np.array([oracle_encode(code, m) for m in msgs])
        assert np.array_equal(code.encode(msgs), expected)
        assert np.array_equal(code.encode(msgs[0]), expected[0])
        assert code.encode(msgs).dtype == np.uint8

    @pytest.mark.parametrize("name,weight", CASES)
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_stacked_decode_matches_oracle(self, name, weight, data):
        """Block 0 carries exactly ``weight`` errors, the others any
        weight up to t+3: every block equals the oracle, or the stack
        raises the oracle's message for its first failing block."""
        code = OUTER_CODES[name]
        weights = [weight] + data.draw(
            st.lists(st.integers(0, code.t + 3), min_size=0, max_size=3)
        )
        rows = np.array([data.draw(received_word(code, w))[1] for w in weights])
        expected = [_outcome(oracle_decode, code, row) for row in rows]
        for row, want in zip(rows, expected):
            assert code.is_codeword(row) == oracle_is_codeword(code, row)
            got = _outcome(code.decode, row)
            if isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        first_failure = next(
            (i for i, want in enumerate(expected) if isinstance(want, str)), None
        )
        with telemetry.session() as tr:
            got = _outcome(code.decode, rows)
        if first_failure is not None:
            assert got == expected[first_failure]
        else:
            corrected, n_errors = got
            assert corrected.shape == rows.shape
            assert np.array_equal(corrected, np.array([w[0] for w in expected]))
            assert n_errors.tolist() == [w[1] for w in expected]
        if isinstance(code, BchCode):
            decoded = len(rows) if first_failure is None else first_failure + 1
            assert tr.counters["ecc.bch_decodes"] == decoded
            assert tr.counters.get("ecc.bch_decode_failures", 0) == (
                first_failure is not None
            )


KEY_CODECS = {
    "4 x [Rep(3) o BCH(63,39,4)]": KeyCodec(
        ConcatenatedCode(BchCode.design(6, 4), RepetitionCode(3)), 128
    ),
    "3 x [Rep(5) o BCH(80,24,9)]": KeyCodec(
        ConcatenatedCode(BchCode.design(7, 9).shortened(80), RepetitionCode(5)), 64
    ),
    "4 x [Rep(3) o Golay(18,7,3)]": KeyCodec(
        ConcatenatedCode(GolayCode().shortened(18), RepetitionCode(3)), 28
    ),
}


class TestKeyCodecAgainstBlockLoop:
    @pytest.mark.parametrize("name", list(KEY_CODECS))
    @given(msg_seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 0.35))
    @settings(max_examples=25, deadline=None)
    def test_correct_and_decode_match_block_loop(self, name, msg_seed, p):
        codec = KEY_CODECS[name]
        code = codec.code
        rng = np.random.default_rng(msg_seed)
        msg = rng.integers(0, 2, codec.message_bits).astype(np.uint8)
        blocks = msg.reshape(codec.n_blocks, code.k)
        encoded = codec.encode(msg)
        expected_encoding = np.concatenate(
            [np.repeat(oracle_encode(code.outer, b), code.inner.r) for b in blocks]
        )
        assert np.array_equal(encoded, expected_encoding)
        received = encoded ^ (rng.random(encoded.size) < p).astype(np.uint8)
        want = _outcome(oracle_key_correct, codec, received)
        got = _outcome(codec.correct, received)
        if isinstance(want, str):
            assert got == want
            assert _outcome(codec.decode, received) == want
        else:
            assert np.array_equal(got, want)
            message = want.reshape(codec.n_blocks, -1)[:, :: code.inner.r]
            assert np.array_equal(
                codec.decode(received), message[:, code.outer.n_parity :].reshape(-1)
            )


class TestBchProperties:
    @given(msg=bits(BCH.k))
    @settings(max_examples=40)
    def test_encode_decode_identity(self, msg):
        cw = BCH.encode(msg)
        corrected, n = BCH.decode(cw)
        assert n == 0
        assert np.array_equal(corrected, cw)

    @given(msg=bits(BCH.k), errs=error_positions(BCH.n, BCH.t))
    @settings(max_examples=60)
    def test_corrects_any_pattern_up_to_t(self, msg, errs):
        cw = BCH.encode(msg)
        rx = cw.copy()
        rx[errs] ^= 1
        corrected, found = BCH.decode(rx)
        assert np.array_equal(corrected, cw)
        assert found == len(errs)

    @given(m1=bits(BCH.k), m2=bits(BCH.k))
    @settings(max_examples=40)
    def test_linearity(self, m1, m2):
        assert np.array_equal(
            BCH.encode(m1) ^ BCH.encode(m2), BCH.encode(m1 ^ m2)
        )

    @given(msg=bits(BCH.k))
    @settings(max_examples=40)
    def test_systematic_extraction(self, msg):
        assert np.array_equal(BCH.extract_message(BCH.encode(msg)), msg)


class TestRepetitionProperties:
    @given(msg=bits(8))
    @settings(max_examples=40)
    def test_roundtrip(self, msg):
        code = RepetitionCode(5)
        assert np.array_equal(code.decode(code.encode(msg)), msg)

    @given(msg=bits(4), flips=error_positions(4 * 5, 4))
    @settings(max_examples=60)
    def test_sub_majority_flips_per_group_corrected(self, msg, flips):
        code = RepetitionCode(5)
        cw = code.encode(msg)
        groups = {}
        for f in flips:
            groups.setdefault(f // 5, []).append(f)
        safe = [f for g, fs in groups.items() if len(fs) <= code.t for f in fs]
        rx = cw.copy()
        rx[safe] ^= 1
        assert np.array_equal(code.decode(rx), msg)


class TestConcatenatedProperties:
    @given(msg=bits(CONCAT.k))
    @settings(max_examples=30)
    def test_roundtrip(self, msg):
        assert np.array_equal(CONCAT.decode_message(CONCAT.encode(msg)), msg)

    @given(msg=bits(CONCAT.k), errs=error_positions(CONCAT.n, 3))
    @settings(max_examples=40)
    def test_scattered_errors_corrected(self, msg, errs):
        """Up to three scattered raw flips can at worst flip three outer
        bits — within the outer code's t=3."""
        cw = CONCAT.encode(msg)
        rx = cw.copy()
        rx[errs] ^= 1
        assert np.array_equal(CONCAT.decode_message(rx), msg)

    @given(msg=bits(CONCAT.k), errs=error_positions(CONCAT.n, 3))
    @settings(max_examples=40)
    def test_correct_returns_nearest_codeword(self, msg, errs):
        cw = CONCAT.encode(msg)
        rx = cw.copy()
        rx[errs] ^= 1
        assert np.array_equal(CONCAT.correct(rx), cw)


class TestKeyCodecProperties:
    CODEC = KeyCodec(code=CONCAT, key_bits=32)

    @given(msg=bits(KeyCodec(code=CONCAT, key_bits=32).message_bits))
    @settings(max_examples=20)
    def test_roundtrip(self, msg):
        assert np.array_equal(self.CODEC.decode(self.CODEC.encode(msg)), msg)

    @given(p=st.floats(0.0, 0.49))
    def test_failure_probability_is_probability(self, p):
        assert 0.0 <= self.CODEC.key_failure_probability(p) <= 1.0

    @given(p=st.floats(0.0, 0.3), q=st.floats(0.0, 0.3))
    def test_failure_monotone(self, p, q):
        lo, hi = sorted((p, q))
        assert self.CODEC.key_failure_probability(
            lo
        ) <= self.CODEC.key_failure_probability(hi) + 1e-12
