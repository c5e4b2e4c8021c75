import numpy as np
import pytest

from ccfrelay.errors import InfeasibleStructureError, VariantMismatchError
from ccfrelay.pipeline import SchemeAssignment, mmse_noise_power
from ccfrelay.rates import (
    COMPUTATION_LIMITED,
    FORWARDING_LIMITED,
    RateReport,
    SecondHopRegion,
    VARIANTS,
    computation_rate,
    forwarding_rates,
    forwarding_source,
    max_rates_given_structure,
    region_check,
    second_hop_region,
)
from ccfrelay.verify import random_assignment


def draw_case(rng, L=None, pow_hi=8.0):
    L = L if L is not None else int(rng.integers(2, 5))
    base = random_assignment(np.random.default_rng(rng.integers(2**32)), 257, 2 * L, L)
    asg = SchemeAssignment(
        spec=base.spec,
        pi_c=base.pi_c,
        pi_s=base.pi_s,
        pi_d=base.pi_d,
        pi_e=base.pi_e,
        A=base.A,
        codingLevels=base.codingLevels,
        shapingLevels=base.shapingLevels,
        powers=tuple(rng.uniform(0.5, pow_hi, size=L)),
        budgets=(pow_hi,) * L,
    )
    H = rng.normal(size=(L, L))
    return asg, H


def test_second_hop_region_formula():
    g = np.array([0.0, 1.0, 2.0])
    P_R = np.array([4.0, 4.0, 4.0])
    region = second_hop_region(g, P_R)
    np.testing.assert_allclose(
        region.perRelayCapacity, [0.0, 0.5 * np.log2(5.0), 0.5 * np.log2(17.0)]
    )
    with pytest.raises(ValueError):
        SecondHopRegion((-0.1,))


def test_computation_rate_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        L = int(rng.integers(2, 5))
        H = rng.normal(size=(L, L))
        A = rng.integers(-3, 4, size=(L, L))
        p = rng.uniform(0.5, 20.0, size=L)
        r = computation_rate(H, A, p)
        for l in range(L):
            relays = np.nonzero(A[:, l])[0]
            if relays.size == 0:
                assert r[l] == 0.0
                continue
            worst = max(mmse_noise_power(H[m], A[m], p) for m in relays)
            assert abs(r[l] - max(0.0, 0.5 * np.log2(p[l] / worst))) <= 1e-12


def test_srq_forwarding_conserves_sum_rate():
    rng = np.random.default_rng(1)
    for _ in range(100):
        asg, _ = draw_case(rng)
        r = rng.uniform(0.0, 4.0, size=asg.L)
        R = forwarding_rates(asg, r, "srq")
        assert abs(float(np.sum(R)) - float(np.sum(r))) <= 1e-12
        # srq forwarding is a pure permutation of the source rates
        assert sorted(R.tolist()) == pytest.approx(sorted(r.tolist()))


def test_forwarding_source_is_permutation():
    rng = np.random.default_rng(2)
    asg, _ = draw_case(rng)
    src = forwarding_source(asg)
    assert sorted(src.tolist()) == list(range(1, asg.L + 1))


def test_unknown_variant_rejected():
    rng = np.random.default_rng(3)
    asg, H = draw_case(rng)
    with pytest.raises(VariantMismatchError):
        forwarding_rates(asg, np.zeros(asg.L), "bogus")
    with pytest.raises(VariantMismatchError):
        max_rates_given_structure(asg, H, SecondHopRegion((1.0,) * asg.L), "bogus")


def test_max_rates_feasible_and_grid_optimal():
    # oracle: the returned rates satisfy every constraint, and no random
    # candidate rate tuple that satisfies the constraints has a larger sum
    rng = np.random.default_rng(4)
    for _ in range(40):
        asg, H = draw_case(rng)
        caps = rng.uniform(0.5, 4.0, size=asg.L)
        region = SecondHopRegion(tuple(caps))
        for variant in VARIANTS:
            try:
                report = max_rates_given_structure(asg, H, region, variant)
            except InfeasibleStructureError:
                continue
            r = np.array(report.sourceRates)
            r_comp = computation_rate(H, asg.A, np.array(asg.powers))
            assert np.all(r <= r_comp + 1e-12)
            assert region_check(forwarding_rates(asg, r, variant), region)
            for _ in range(60):
                cand = r_comp * rng.uniform(0.0, 1.0, size=asg.L)
                if region_check(forwarding_rates(asg, cand, variant), region):
                    assert np.sum(cand) <= np.sum(r) + 1e-6


def test_limiting_tags():
    rng = np.random.default_rng(5)
    asg, H = draw_case(rng, L=2)
    huge = SecondHopRegion((100.0, 100.0))
    report = max_rates_given_structure(asg, H, huge, "srq")
    assert report.limiting == (COMPUTATION_LIMITED,) * 2
    tiny = SecondHopRegion((1e-6, 1e-6))
    report = max_rates_given_structure(asg, H, tiny, "srq")
    assert FORWARDING_LIMITED in report.limiting or report.sumRate <= 2e-6


def test_monotone_in_capacity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        asg, H = draw_case(rng)
        caps = rng.uniform(0.2, 2.0, size=asg.L)
        for variant in VARIANTS:
            try:
                lo = max_rates_given_structure(asg, H, SecondHopRegion(tuple(caps)), variant)
                hi = max_rates_given_structure(asg, H, SecondHopRegion(tuple(caps * 2)), variant)
            except InfeasibleStructureError:
                continue
            assert hi.sumRate >= lo.sumRate - 1e-12


def test_infeasible_structure_detected():
    # srm with zero capacity but a forced positive power offset: even zero
    # source rates need a positive forwarding rate
    rng = np.random.default_rng(7)
    base = random_assignment(np.random.default_rng(11), 257, 4, 2)
    asg = SchemeAssignment(
        spec=base.spec,
        pi_c=base.pi_c,
        pi_s=(1, 2),
        pi_d=base.pi_d,
        pi_e=(2, 1),
        A=np.array([[1, 1], [1, 1]]),
        codingLevels=base.codingLevels,
        shapingLevels=base.shapingLevels,
        powers=(1.0, 100.0),
        budgets=(100.0, 100.0),
    )
    H = rng.normal(size=(2, 2))
    with pytest.raises(InfeasibleStructureError):
        max_rates_given_structure(asg, H, SecondHopRegion((0.0, 0.0)), "srm")


def test_rate_report_coerces_types():
    rep = RateReport((1, 2), (2, 1), 3.0, True, ["computation-limited"] * 2)
    assert rep.sourceRates == (1.0, 2.0)
    assert isinstance(rep.limiting, tuple)
