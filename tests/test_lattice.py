import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfrelay.errors import LengthMismatchError, NotInCodebookError, SpecMismatchError
from ccfrelay.galois import FieldMatrix
from ccfrelay.lattice import (
    ChainPoint,
    ChainSpec,
    LevelPair,
    combine,
    decode_codeword,
    encode_message,
    make_chain_spec,
    mod_level,
    point_add,
    point_scale,
    point_sub,
    quantize_level,
    real_embed,
)


def rand_point(spec, rng, batch=(), int_range=3):
    return ChainPoint(
        spec,
        rng.integers(0, spec.gamma, size=batch + (spec.kMax,)),
        rng.integers(-int_range, int_range + 1, size=batch + (spec.n,)),
    )


def specs(rng):
    for gamma in (2, 3, 5):
        for n in (2, 4):
            yield make_chain_spec(gamma, n, n, rng=rng)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_chain_spec(3, 2, 3)
    with pytest.raises(ValueError):
        make_chain_spec(3, 2, 2, scale=0.0)
    G = FieldMatrix(np.array([[1, 1], [0, 1]]), 3)
    with pytest.raises(ValueError):
        ChainSpec(gamma=3, n=2, kMax=2, G=G)


def test_level_pair_validation():
    with pytest.raises(ValueError):
        LevelPair(2, 2)
    with pytest.raises(ValueError):
        LevelPair(1, -1)


def test_point_validation():
    spec = make_chain_spec(3, 2, 2)
    with pytest.raises(ValueError):
        ChainPoint(spec, np.array([0, 3]), np.array([0, 0]))
    with pytest.raises(ValueError):
        ChainPoint(spec, np.array([0]), np.array([0, 0]))


def test_point_and_message_reject_values_the_int64_cast_would_change():
    spec = make_chain_spec(3, 4, 4)
    zeros = [0, 0, 0, 0]
    for digits, ints in (
        ([1.7, 0, 2.9, 0], [0.5, 0, 0, 0]),
        ([1, 0, 2, 0], [0.5, 0, 0, 0]),
        ([np.nan, 0, 0, 0], zeros),
        ([1, 0, 2, 0], [1e19, 0, 0, 0]),
        ([1, 0, 2, 0], np.array([2**64 - 1, 0, 0, 0], dtype=np.uint64)),
        ([1, 0, 2, 0], [2**70, 0, 0, 0]),
    ):
        with pytest.raises(ValueError):
            ChainPoint(spec, digits, ints)
    # integer-valued input of any dtype is still accepted
    x = ChainPoint(spec, np.array([1.0, 0, 2, 0]), np.array([-3, 0, 0, 1], dtype=np.int8))
    assert x == ChainPoint(spec, np.array([1, 0, 2, 0]), np.array([-3, 0, 0, 1]))
    assert x.digits.dtype == x.ints.dtype == np.int64
    lp = LevelPair(3, 1)
    with pytest.raises(ValueError):
        encode_message([1.9, 2.2], lp, spec)
    assert encode_message([1.0, 2.0], lp, spec) == encode_message(np.array([1, 2]), lp, spec)


def test_point_leaves_the_callers_arrays_writeable():
    spec = make_chain_spec(3, 4, 4)
    d = np.zeros(4, dtype=np.int64)
    buf = np.zeros((2, 4), dtype=np.int64)
    z = buf[1]
    x = ChainPoint(spec, d, z)
    d[0] = 1
    z[0] = 5
    assert d.flags.writeable and buf.flags.writeable
    assert x == ChainPoint(spec, np.zeros(4), np.zeros(4))
    assert not x.digits.flags.writeable and not x.ints.flags.writeable
    # an input that is already read-only is kept, not copied
    assert ChainPoint(spec, x.digits, x.ints).digits is x.digits


def test_code_word_matches_the_full_generator_product():
    # parity rows below the identity block; digits need not be canonical
    rng = np.random.default_rng(11)
    for gamma, n, kMax in ((2, 5, 2), (3, 8, 5), (5, 6, 3), (7, 4, 4), (257, 9, 4)):
        spec = make_chain_spec(gamma, n, kMax, rng=rng)
        for d in (
            rng.integers(0, gamma, size=(7, kMax)),
            rng.integers(-5 * gamma, 5 * gamma, size=(2, 3, kMax)),
            rng.integers(-(2**20), 2**20, size=kMax),
        ):
            np.testing.assert_array_equal(spec.code_word(d), np.mod(d @ spec.G.entries.T, gamma))


def test_embedding_is_group_homomorphism():
    # n > kMax puts parity rows under the carries
    rng = np.random.default_rng(0)
    parity = [make_chain_spec(gamma, n, k, rng=rng) for gamma, n, k in ((2, 5, 2), (3, 4, 2), (5, 6, 3), (7, 3, 1))]
    for spec in list(specs(rng)) + parity:
        x = rand_point(spec, rng, batch=(6,))
        y = rand_point(spec, rng, batch=(6,))
        w = rand_point(spec, rng, batch=(6,))
        np.testing.assert_allclose(
            real_embed(point_add(x, y)), real_embed(x) + real_embed(y), atol=1e-9
        )
        for c in (-3, -1, 0, 2, 5):
            np.testing.assert_allclose(
                real_embed(point_scale(x, c)), c * real_embed(x), atol=1e-9
            )
        c = rng.integers(-7, 8, size=3)
        np.testing.assert_allclose(
            real_embed(combine([x, y, w], c)),
            c[0] * real_embed(x) + c[1] * real_embed(y) + c[2] * real_embed(w),
            atol=1e-9,
        )


def test_representation_unique_exhaustive():
    # distinct (digits, ints) must map to distinct real points
    rng = np.random.default_rng(1)
    spec = make_chain_spec(2, 2, 2, rng=rng)
    seen = set()
    for digits in itertools.product(range(2), repeat=2):
        for ints in itertools.product(range(-1, 2), repeat=2):
            e = real_embed(ChainPoint(spec, np.array(digits), np.array(ints)))
            key = tuple(np.round(e * 4).astype(int))
            assert key not in seen
            seen.add(key)


def test_group_laws_exhaustive():
    rng = np.random.default_rng(2)
    spec = make_chain_spec(3, 2, 2, rng=rng)
    pts = [
        ChainPoint(spec, np.array(d), np.array(z))
        for d in itertools.product(range(3), repeat=2)
        for z in [(0, 0), (1, -1)]
    ]
    zero = ChainPoint(spec, np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64))
    for x in pts:
        assert point_add(x, zero) == x
        assert point_add(x, point_scale(x, -1)) == zero
        assert point_scale(x, 2) == point_add(x, x)
    for x, y in itertools.product(pts[:6], pts[:6]):
        assert point_add(x, y) == point_add(y, x)
        assert point_sub(point_add(x, y), y) == x


def test_mod_level_is_canonical_coset_representative():
    # the removed part must be a point of the level-k sublattice: gamma times
    # its embedding is an integer vector congruent to a level-k code word
    rng = np.random.default_rng(3)
    for spec in specs(rng):
        x = rand_point(spec, rng, batch=(8,))
        for k in range(spec.kMax + 1):
            q = quantize_level(x, k)
            assert np.all(q.digits[..., k:] == 0)
            scaled = real_embed(q) * spec.gamma / spec.scale
            np.testing.assert_allclose(scaled, np.rint(scaled), atol=1e-9)
            head = np.zeros_like(x.digits)
            head[..., :k] = q.digits[..., :k]
            np.testing.assert_array_equal(
                np.rint(scaled).astype(np.int64) % spec.gamma, spec.code_word(head) % spec.gamma
            )
            assert point_add(q, mod_level(x, k)) == x


def test_nested_mod_identity():
    rng = np.random.default_rng(4)
    spec = make_chain_spec(3, 4, 4, rng=rng)
    x = rand_point(spec, rng, batch=(5,))
    for k1 in range(5):
        for k2 in range(5):
            assert mod_level(mod_level(x, k1), k2) == mod_level(x, max(k1, k2))


def test_quantizer_shift_invariance():
    # adding a sublattice point must shift the quantization, not the residue
    rng = np.random.default_rng(5)
    spec = make_chain_spec(5, 3, 3, rng=rng)
    x = rand_point(spec, rng, batch=(6,))
    for k in range(spec.kMax + 1):
        digits = np.zeros((6, spec.kMax), dtype=np.int64)
        digits[..., :k] = rng.integers(0, 5, size=(6, k))
        lam = ChainPoint(spec, digits, rng.integers(-2, 3, size=(6, spec.n)))
        shifted = point_add(x, lam)
        assert mod_level(shifted, k) == mod_level(x, k)
        assert quantize_level(shifted, k) == point_add(quantize_level(x, k), lam)


def test_codebook_cardinality():
    rng = np.random.default_rng(6)
    for gamma, n in ((2, 4), (3, 3)):
        spec = make_chain_spec(gamma, n, n, rng=rng)
        lp = LevelPair(n - 1, 1)
        words = set()
        for w in itertools.product(range(gamma), repeat=lp.kCoding - lp.kShaping):
            t = encode_message(np.array(w), lp, spec)
            words.add(t.digits.tobytes())
            assert np.array_equal(decode_codeword(t, lp), np.array(w))
        assert len(words) == gamma ** (lp.kCoding - lp.kShaping)


def test_encode_decode_errors():
    spec = make_chain_spec(3, 3, 3)
    lp = LevelPair(2, 1)
    with pytest.raises(LengthMismatchError):
        encode_message(np.array([1, 2]), lp, spec)
    with pytest.raises(ValueError):
        encode_message(np.array([3]), lp, spec)
    bad = ChainPoint(spec, np.array([1, 1, 0]), np.array([0, 0, 0]))
    with pytest.raises(NotInCodebookError):
        decode_codeword(bad, lp)
    bad_int = ChainPoint(spec, np.array([0, 1, 0]), np.array([1, 0, 0]))
    with pytest.raises(NotInCodebookError):
        decode_codeword(bad_int, lp)


def test_spec_mismatch_rejected():
    a = make_chain_spec(3, 2, 2)
    b = make_chain_spec(5, 2, 2)
    with pytest.raises(SpecMismatchError):
        point_add(*(ChainPoint(spec, np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)) for spec in (a, b)))


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
@settings(max_examples=60, deadline=None)
def test_scale_distributes_over_add(c1, c2):
    rng = np.random.default_rng(abs(c1) * 13 + abs(c2))
    spec = make_chain_spec(5, 3, 3, rng=rng)
    x = rand_point(spec, rng)
    assert point_add(point_scale(x, c1), point_scale(x, c2)) == point_scale(x, c1 + c2)
