"""End-to-end acceptance checks at realistic scale.

Covers exact recovery over the whole configuration matrix, constructor
feasibility at volume, analytic optimality of the MMSE scaling, rate
conservation, the lattice reduction contract, per-instance scheme
dominance, and the Monte Carlo sum-rate curves with their expected dB
separations.  The sweep-based tests are slow (minutes) and marked
``slow``; everything here is deterministic given the fixed seeds.
"""

import itertools
import math

import numpy as np
import pytest

from ccfrelay import pipeline, recovery
from ccfrelay.cli import RunConfig, run_sweep
from ccfrelay.galois import (
    FieldMatrix,
    feasible_pi_d,
    feasible_pi_e,
    mat_rank,
    residual_sets,
    residual_submatrix,
)
from ccfrelay.lattice import mod_level
from ccfrelay.optimizer import (
    OptimizerConfig,
    evaluate_all,
    is_size_reduced,
    is_unimodular,
    lll_reduce,
    satisfies_lovasz,
)
from ccfrelay.pipeline import ChannelInstance, effective_noise_power, mmse_alpha, mmse_noise_power
from ccfrelay.rates import forwarding_rates
from ccfrelay.verify import (
    encode_all,
    random_assignment,
    random_full_rank_matrix,
    relay_outputs,
)


# ---------------------------------------------------------------- recovery


def _message_block(rng, asg, cap=10**4, samples=1000):
    """Every message tuple when the joint space fits under `cap`,
    otherwise `samples` random tuples."""
    widths = [asg.message_length(l) for l in range(1, asg.L + 1)]
    total = sum(widths)
    gamma = asg.spec.gamma
    if gamma**total <= cap:
        joint = np.array(
            list(itertools.product(range(gamma), repeat=total)), dtype=np.int64
        ).reshape(-1, total)
    else:
        joint = rng.integers(0, gamma, size=(samples, total))
    out = []
    start = 0
    for w in widths:
        out.append(joint[:, start : start + w])
        start += w
    return out


def test_exact_recovery_full_configuration_matrix():
    rng = np.random.default_rng(100)
    for gamma, n, L in itertools.product((2, 3, 5), (2, 4), (2, 3)):
        for _ in range(20):
            for algo in ("srq", "srm", "srmq"):
                asg = random_assignment(rng, gamma, n, L, common_shaping=(algo == "srq"))
                msgs = _message_block(rng, asg)
                t = encode_all(msgs, asg)
                if algo == "srq":
                    c = asg.shapingLevels[0]
                    got = recovery.srq(relay_outputs(t, asg, common_shaping_level=c), asg, c)
                elif algo == "srm":
                    v = [
                        mod_level(pipeline.relay_combination(t, m, asg), asg.modulo_level_of(m))
                        for m in range(1, L + 1)
                    ]
                    got = recovery.srm(v, None, asg)
                else:
                    got = recovery.srmq(relay_outputs(t, asg), None, asg)
                for l in range(L):
                    assert got[l] == t[l], f"gamma={gamma} n={n} L={L} algo={algo}"


# ------------------------------------------------- feasibility constructors


def test_greedy_constructors_always_feasible():
    rng = np.random.default_rng(101)
    for gamma, L in itertools.product((2, 3, 257), (2, 3, 4)):
        for _ in range(1000):
            Q = FieldMatrix(random_full_rank_matrix(rng, L, gamma), gamma)
            pi_c = tuple(int(x) for x in rng.permutation(L) + 1)
            pi_s = tuple(int(x) for x in rng.permutation(L) + 1)
            pi_d = feasible_pi_d(Q, pi_c)
            pi_e = feasible_pi_e(Q, pi_s)
            for j in range(1, L + 1):
                assert mat_rank(residual_submatrix(Q, *residual_sets(pi_c, pi_d, j, "d"))) == j
            for i in range(1, L + 1):
                assert mat_rank(residual_submatrix(Q, *residual_sets(pi_s, pi_e, i, "e"))) == L - i + 1


# ----------------------------------------------------------- mmse scaling


def test_mmse_alpha_grid_optimal_and_closed_forms_agree():
    rng = np.random.default_rng(102)
    grid01 = np.linspace(-1.0, 1.0, 100_000)
    for _ in range(1000):
        L = int(rng.integers(1, 5))
        h = rng.normal(size=L)
        a = rng.integers(-5, 6, size=L).astype(float)
        p = rng.uniform(0.1, 20.0, size=L)
        alpha = mmse_alpha(h, a, p)
        closed = mmse_noise_power(h, a, p)
        direct = effective_noise_power(h, a, p, alpha)
        assert abs(closed - direct) <= 1e-12 * max(1.0, abs(closed))
        grid = alpha + (1.0 + abs(alpha)) * grid01
        # quadratic in alpha, evaluated vectorized over the whole grid
        vals = grid * grid + ((grid[:, None] * h - a) ** 2 @ p)
        assert float(np.min(vals)) >= closed - 1e-12


# ------------------------------------------------------- rate conservation


def test_layered_forwarding_conserves_sum_rate_exactly():
    rng = np.random.default_rng(103)
    for _ in range(500):
        L = int(rng.integers(2, 5))
        asg = random_assignment(rng, 257, 2 * L, L, common_shaping=True)
        r = rng.uniform(0.0, 5.0, size=L)
        R = forwarding_rates(asg, r, "srq")
        assert sorted(R.tolist()) == sorted(r.tolist())
        assert math.fsum(R) == math.fsum(r)


# --------------------------------------------------------------- reduction


def test_lll_contract_at_volume():
    rng = np.random.default_rng(104)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        B = rng.normal(size=(n, n))
        while abs(np.linalg.det(B)) < 1e-6:
            B = rng.normal(size=(n, n))
        red, T = lll_reduce(B)
        assert is_size_reduced(red)
        assert satisfies_lovasz(red)
        assert is_unimodular(T)
        np.testing.assert_allclose(red, T @ B, atol=1e-8)


# --------------------------------------------------------------- dominance


def test_scheme_dominance_per_instance():
    cfg = OptimizerConfig(nBrute=32)
    tol = 1e-9
    for snr_db in (0.0, 10.0, 20.0):
        rng = np.random.default_rng((105, int(snr_db)))
        P = 10.0 ** (snr_db / 10.0)
        for _ in range(1000):
            H = rng.normal(size=(2, 2))
            g = rng.normal(size=2)
            ch = ChannelInstance(H, g, np.full(2, P), np.full(2, 0.25 * P))
            res = {s: rep.sumRate for s, (_, rep) in evaluate_all(ch, cfg).items()}
            assert res["scf"] <= res["scf-q"] + tol
            assert res["acf"] <= res["acf-m"] + tol
            assert res["acf-m"] <= res["acf-mq"] + tol


# ----------------------------------------------------- monte carlo sweeps


def _snr_at_rate(result, scheme, target):
    """SNR (dB) where the mean sum-rate curve crosses `target`, by linear
    interpolation along the rate axis."""
    means = np.array(result.meanSumRate[scheme])
    return float(np.interp(target, means, np.array(result.snrDb)))


@pytest.fixture(scope="module")
def sweep_l2():
    cfg = RunConfig(
        L=2,
        snrStart=0.0,
        snrStop=24.0,
        snrStep=2.0,
        trials=1000,
        seed=42,
        schemes=("scf", "scf-q", "acf", "acf-m", "acf-mq"),
        nBrute=100,
    )
    return run_sweep(cfg)


@pytest.mark.slow
def test_sweep_L2_curve_ordering(sweep_l2):
    tol = 1e-9
    m = sweep_l2.meanSumRate
    for i in range(len(sweep_l2.snrDb)):
        assert m["scf"][i] <= m["scf-q"][i] + tol
        assert m["scf"][i] <= m["acf"][i] + tol
        assert m["acf"][i] <= m["acf-m"][i] + tol
        assert m["acf-m"][i] <= m["acf-mq"][i] + tol
        assert m["scf-q"][i] <= m["acf-mq"][i] + tol


def _mid_range_target(result, schemes):
    """Midpoint of the sum-rate interval reachable by every listed curve."""
    lo = max(min(result.meanSumRate[s]) for s in schemes)
    hi = min(max(result.meanSumRate[s]) for s in schemes)
    return 0.5 * (lo + hi)


@pytest.mark.slow
@pytest.mark.parametrize(
    "baseline,improved,expected_db",
    [
        ("scf", "scf-q", 2.0),
        ("acf", "acf-m", 2.0),
        ("acf", "acf-mq", 3.0),
        ("scf", "acf-mq", 5.0),
    ],
)
def test_sweep_L2_gap(sweep_l2, baseline, improved, expected_db):
    target = _mid_range_target(sweep_l2, (baseline, improved))
    gap = _snr_at_rate(sweep_l2, baseline, target) - _snr_at_rate(sweep_l2, improved, target)
    assert gap == pytest.approx(expected_db, abs=1.5)


@pytest.fixture(scope="module")
def sweep_scaling():
    out = {}
    for L in (2, 4):
        cfg = RunConfig(
            L=L,
            snrStart=0.0,
            snrStop=24.0,
            snrStep=4.0,
            trials=200,
            seed=42,
            schemes=("scf", "scf-q"),
            nBrute=100,
        )
        out[L] = run_sweep(cfg)
    return out


def _layered_gain(result):
    target = _mid_range_target(result, ("scf", "scf-q"))
    return _snr_at_rate(result, "scf", target) - _snr_at_rate(result, "scf-q", target)


@pytest.mark.slow
def test_sweep_layered_gain_grows_with_network_size(sweep_scaling):
    assert _layered_gain(sweep_scaling[4]) > _layered_gain(sweep_scaling[2])


@pytest.mark.slow
@pytest.mark.parametrize("L,expected_db", [(2, 2.0), (4, 6.0)])
def test_sweep_layered_gain_magnitude(sweep_scaling, L, expected_db):
    assert _layered_gain(sweep_scaling[L]) == pytest.approx(expected_db, abs=2.0)
