from types import SimpleNamespace

import numpy as np
import pytest

from ccfrelay.errors import DecodeFailure, SpecMismatchError
from ccfrelay.galois import FieldMatrix, mat_rank
from ccfrelay.lattice import ChainPoint, LevelPair, make_chain_spec, mod_level, quantize_level, real_embed
from ccfrelay.pipeline import (
    ChannelInstance,
    SchemeAssignment,
    compress,
    effective_noise_power,
    finest_participating_level,
    mmse_alpha,
    mmse_noise_power,
    noisy_compute_demo,
    relay_combination,
    source_encode,
)
from ccfrelay.verify import encode_all, random_assignment, random_messages


def small_assignment(gamma=3, n=4, L=2, seed=0, **overrides):
    spec = make_chain_spec(gamma, n, n, rng=np.random.default_rng(seed))
    fields = dict(
        spec=spec,
        pi_c=(1, 2),
        pi_s=(1, 2),
        pi_d=(1, 2),
        pi_e=(1, 2),
        A=np.array([[1, 1], [0, 1]]),
        codingLevels=(4, 3),
        shapingLevels=(2, 1),
        powers=(1.0, 1.0),
        budgets=(1.0, 1.0),
    )
    fields.update(overrides)
    return SchemeAssignment(**fields)


def test_assignment_validation():
    with pytest.raises(ValueError):
        small_assignment(pi_c=(1, 1))
    with pytest.raises(ValueError):
        small_assignment(A=np.eye(3, dtype=np.int64))
    with pytest.raises(ValueError):
        small_assignment(codingLevels=(3, 4))  # must be non-increasing
    with pytest.raises(ValueError):
        small_assignment(shapingLevels=(4, 3))  # finest shaping above coarsest coding
    with pytest.raises(ValueError, match="kShaping < kCoding"):
        small_assignment(codingLevels=(4, 2), pi_c=(2, 1))  # source 1 shapes and codes at 2
    with pytest.raises(ValueError, match="0 <= kShaping"):
        small_assignment(shapingLevels=(1, -1))
    with pytest.raises(ValueError):
        small_assignment(powers=(0.0, 1.0))
    with pytest.raises(ValueError):
        small_assignment(powers=(2.0, 1.0))  # exceeds budget


@pytest.mark.parametrize(
    "override",
    [
        {"A": np.array([[1.5, 1], [0, 1]])},
        {"pi_c": (1.5, 2)},
        {"pi_e": (1, np.nan)},
        {"codingLevels": (4.7, 3)},
        {"shapingLevels": (2, 1.5)},
    ],
)
def test_assignment_rejects_values_the_int64_cast_would_change(override):
    # a fraction is an error, not truncated to the integer below it
    with pytest.raises(ValueError, match="must be integers"):
        small_assignment(**override)


def test_assignment_accepts_integer_values_of_any_dtype():
    asg = small_assignment(
        pi_c=(1.0, 2.0), A=np.array([[1.0, 1.0], [0, 1]]), codingLevels=np.array([4, 3], dtype=np.int8)
    )
    assert asg.pi_c == (1, 2) and all(type(v) is int for v in asg.pi_c + asg.codingLevels)
    assert asg.A.dtype == np.int64 and np.array_equal(asg.A, [[1, 1], [0, 1]])


@pytest.mark.parametrize("field", ["powers", "budgets"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assignment_rejects_non_finite_powers_and_budgets(field, bad):
    with pytest.raises(ValueError, match="powers must satisfy"):
        small_assignment(**{field: (bad, 1.0)})


def test_assignment_level_lookups():
    asg = small_assignment(pi_c=(2, 1), pi_d=(2, 1), pi_s=(1, 2), pi_e=(2, 1))
    assert asg.coding_level(1) == 3
    assert asg.coding_level(2) == 4
    assert asg.quantize_level_of(1) == 3
    assert asg.shaping_level(1) == 2
    assert asg.modulo_level_of(1) == 1
    assert asg.message_length(1) == 1
    assert mat_rank(asg.field_image) == asg.L


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelInstance(np.zeros((2, 3)), np.zeros(2), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        ChannelInstance(np.zeros((2, 2)), np.zeros(3), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        ChannelInstance(np.full((2, 2), np.nan), np.zeros(2), np.ones(2), np.ones(2))
    for P, P_R in (([0.0, 1.0], [1.0, 1.0]), ([-1.0, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, -0.5])):
        with pytest.raises(ValueError):
            ChannelInstance(np.eye(2), np.ones(2), np.array(P), np.array(P_R))
    ChannelInstance(np.eye(2), np.ones(2), np.ones(2), np.zeros(2))  # silent relays are allowed


def test_relay_combination_is_integer_linear():
    rng = np.random.default_rng(1)
    asg = random_assignment(rng, gamma=3, n=4, L=3)
    msgs = random_messages(rng, asg, 8)
    t = encode_all(msgs, asg)
    for m in range(1, 4):
        expect = sum(int(asg.A[m - 1, l - 1]) * real_embed(t[l - 1]) for l in range(1, 4))
        np.testing.assert_allclose(real_embed(relay_combination(t, m, asg)), expect, atol=1e-9)


def test_compress_is_quantize_then_mod():
    rng = np.random.default_rng(2)
    asg = random_assignment(rng, gamma=3, n=4, L=2)
    t = encode_all(random_messages(rng, asg, 8), asg)
    for m in (1, 2):
        delta = relay_combination(t, m, asg)
        got = compress(delta, m, asg)
        expect = mod_level(
            quantize_level(delta, asg.quantize_level_of(m)), asg.modulo_level_of(m)
        )
        assert got == expect
        # output is canonical: no integer part, no digits at or above the
        # quantization level, none below the modulo level
        assert np.all(got.ints == 0)
        assert np.all(got.digits[..., asg.quantize_level_of(m) :] == 0)
        assert np.all(got.digits[..., : asg.modulo_level_of(m)] == 0)


def test_compress_is_quantize_then_mod_at_every_level_pair():
    # compress reads only the spec and the relay's two levels, so a
    # stand-in assignment reaches the pairs ke >= kq that no valid
    # assignment has; there the result is the zero point
    rng = np.random.default_rng(3)
    for gamma, n, kMax, batch in ((2, 5, 3, (4,)), (3, 4, 4, ()), (7, 6, 4, (2, 3))):
        spec = make_chain_spec(gamma, n, kMax, rng=rng)
        delta = ChainPoint(spec, rng.integers(0, gamma, size=batch + (kMax,)), rng.integers(-3, 4, size=batch + (n,)))
        for ke in range(kMax + 1):
            for kq in range(kMax + 1):
                asg = SimpleNamespace(spec=spec, modulo_level_of=lambda m, k=ke: k, quantize_level_of=lambda m, k=kq: k)
                assert compress(delta, 1, asg) == mod_level(quantize_level(delta, kq), ke)
                if ke >= kq:
                    assert not np.any(compress(delta, 1, asg).digits)


def test_level_pairs_are_built_once(monkeypatch):
    # each source's LevelPair is checked and built with the assignment;
    # encoding reads it and builds none
    asg = small_assignment(pi_c=(2, 1), pi_s=(2, 1))
    assert [(asg.coding_level(l), asg.shaping_level(l)) for l in (1, 2)] == [(3, 1), (4, 2)]
    built = []
    check = LevelPair.__post_init__
    monkeypatch.setattr(LevelPair, "__post_init__", lambda lp: built.append(lp) or check(lp))
    for l in (1, 2):
        assert asg.level_pair(l) is asg.level_pair(l)
        w = np.random.default_rng(l).integers(0, 3, size=(5, asg.message_length(l)))
        for _ in range(3):
            source_encode(w, l, asg)
    assert built == []
    small_assignment()
    assert len(built) == 2


def test_field_image_is_built_once():
    asg = small_assignment(A=np.array([[4, -1], [0, 1]]))
    assert asg.field_image is asg.field_image
    assert asg.field_image == FieldMatrix(np.array([[1, 2], [0, 1]]), 3)


def test_mismatched_spec_rejected():
    asg = small_assignment()
    other = make_chain_spec(5, 4, 4)
    w = np.zeros(asg.message_length(1), dtype=np.int64)
    t = source_encode(w, 1, asg)
    t_bad = type(t)(other, t.digits, t.ints)
    for entry in (relay_combination, lambda t, m, asg: noisy_compute_demo(t, m, asg, np.eye(2), 0.1, None)):
        with pytest.raises(SpecMismatchError, match="codeword spec differs from assignment spec"):
            entry([t_bad, t], 1, asg)
        with pytest.raises(ValueError, match="expected 2 codewords, got 3"):
            entry([t, t, t], 1, asg)
        # only a dither may be None (the zero dither): a None codeword is
        # named by its position, not a bare AttributeError
        with pytest.raises(ValueError, match="codeword 1 is None"):
            entry([None, t], 1, asg)
    with pytest.raises(SpecMismatchError):
        compress(t_bad, 1, asg)


@pytest.mark.parametrize("shape", [(1, 2), (2, 3)])
def test_noisy_demo_rejects_channel_that_is_not_L_by_L(shape):
    # as max_rates_given_structure does, rather than a bare IndexError or a
    # matmul core-dimension error
    asg = small_assignment()
    t = [source_encode(np.zeros(asg.message_length(l), dtype=np.int64), l, asg) for l in (1, 2)]
    with pytest.raises(ValueError, match=r"expected a \(2, 2\) channel"):
        noisy_compute_demo(t, 1, asg, np.ones(shape), 0.1, np.random.default_rng(0))


def test_mmse_alpha_beats_dense_grid():
    rng = np.random.default_rng(3)
    for _ in range(100):
        L = int(rng.integers(1, 5))
        h = rng.normal(size=L)
        a = rng.integers(-4, 5, size=L)
        p = rng.uniform(0.1, 20.0, size=L)
        alpha = mmse_alpha(h, a, p)
        best = mmse_noise_power(h, a, p)
        assert abs(best - effective_noise_power(h, a, p, alpha)) <= 1e-12 * max(1.0, abs(best))
        grid = np.linspace(alpha - 2.0, alpha + 2.0, 2001)
        vals = np.array([effective_noise_power(h, a, p, x) for x in grid])
        assert np.all(vals - best >= -1e-12)


def test_mmse_quadratic_form_identity():
    # the noise power equals a^T D a for the projector-corrected metric
    rng = np.random.default_rng(4)
    for _ in range(100):
        L = int(rng.integers(1, 5))
        h = rng.normal(size=L)
        a = rng.integers(-4, 5, size=L).astype(float)
        p = rng.uniform(0.1, 20.0, size=L)
        ph = p * h
        D = np.diag(p) - np.outer(ph, ph) / (1.0 + h @ ph)
        assert abs(a @ D @ a - mmse_noise_power(h, a, p)) <= 1e-12 * max(1.0, abs(a @ D @ a))


def test_finest_participating_level():
    asg = small_assignment(A=np.array([[0, 1], [1, 1]]))
    assert finest_participating_level(1, asg) == asg.coding_level(2)
    assert finest_participating_level(2, asg) == 4
    empty_row = small_assignment(A=np.array([[1, 1], [0, 1]]))
    assert finest_participating_level(2, empty_row) == empty_row.coding_level(2)


@pytest.mark.parametrize("index", [0, -1, 4])
@pytest.mark.parametrize(
    "entry", ["source_encode", "relay_combination", "compress", "finest_participating_level", "noisy_compute_demo"]
)
def test_out_of_range_index_rejected(entry, index):
    # indexes are 1-based: 0 and -1 must not wrap to relay or source L
    # (or L - 1), nor L + 1 end in a bare IndexError
    rng = np.random.default_rng(11)
    asg = random_assignment(rng, 3, 6, 3, common_shaping=False)
    t = encode_all(random_messages(rng, asg, 2), asg)
    calls = {
        "source_encode": lambda: source_encode(rng.integers(0, 3, size=(2, asg.message_length(3))), index, asg),
        "relay_combination": lambda: relay_combination(t, index, asg),
        "compress": lambda: compress(relay_combination(t, 1, asg), index, asg),
        "finest_participating_level": lambda: finest_participating_level(index, asg),
        "noisy_compute_demo": lambda: noisy_compute_demo(t, index, asg, np.eye(3), 0.1, rng),
    }
    with pytest.raises(ValueError, match=rf"index {index} outside 1\.\.3"):
        calls[entry]()


def _demo_error_rate(noise_std, trials, seed):
    rng = np.random.default_rng(seed)
    asg = random_assignment(rng, gamma=3, n=2, L=2)
    H = asg.A.astype(float)
    failures = 0
    for t in range(trials):
        trial_rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        msgs = [trial_rng.integers(0, 3, size=asg.message_length(l)) for l in (1, 2)]
        pts = [source_encode(msgs[l - 1], l, asg) for l in (1, 2)]
        exact = relay_combination(pts, 1, asg)
        try:
            if noisy_compute_demo(pts, 1, asg, H, noise_std, trial_rng) != exact:
                failures += 1
        except DecodeFailure:
            failures += 1
    return failures / trials


def test_noisy_demo_exact_at_low_noise_and_monotone():
    low = _demo_error_rate(1e-4, 60, seed=11)
    mid = _demo_error_rate(0.05, 120, seed=11)
    high = _demo_error_rate(0.3, 120, seed=11)
    assert low == 0.0
    assert low <= mid <= high
    assert high > 0.0
