import json
from pathlib import Path

import numpy as np
import pytest

from ccfrelay import rates
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
    second_hop_region,
)
from ccfrelay.verify import random_assignment

RATE_REPORTS = Path(__file__).parent / "data" / "rate_reports.json"


def draw_case(rng, L=None, pow_hi=8.0, gamma=257):
    L = L if L is not None else int(rng.integers(2, 5))
    base = random_assignment(np.random.default_rng(rng.integers(2**32)), gamma, 2 * L, L)
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


def test_second_hop_region_rejects_nan_and_negative_power():
    # a NaN capacity fails no `c < 0` test, and a negative relay power makes
    # the log's argument negative (NaN, with a RuntimeWarning); infinite
    # capacities stay allowed
    with pytest.raises(ValueError, match="capacities"):
        SecondHopRegion((1.0, float("nan")))
    with pytest.raises(ValueError, match="P_R"):
        second_hop_region([1.0, 1.0], [-2.0, 1.0])
    with pytest.raises(ValueError, match="P_R"):
        second_hop_region([0.0], [-1.0])
    assert SecondHopRegion((np.inf, 0.0)).perRelayCapacity == (np.inf, 0.0)
    assert second_hop_region([1.0], [np.inf]).perRelayCapacity == (np.inf,)


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
    # a stack of coefficient matrices (N, L, L) and power vectors (N, L)
    # gives, bit for bit, the rates of one matrix and power vector at a time
    for L in range(1, 5):
        H = rng.normal(size=(L, L))
        A = rng.integers(-3, 4, size=(30, L, L))
        p = rng.uniform(0.5, 20.0, size=(30, L))
        want = np.stack([computation_rate(H, A[n], p[n]) for n in range(30)])
        assert np.array_equal(computation_rate(H, A, p), want)
    # a source that no relay combines gets rate 0, alone or in a stack
    A = np.array([[1, 0, 2], [1, 0, 1], [0, 0, 1]])
    H = A + 0.1 * rng.normal(size=(3, 3))
    p = np.array([4.0, 5.0, 6.0])
    r = computation_rate(H, A, p)
    assert r[1] == 0.0 and r[0] > 0 and r[2] > 0
    assert np.array_equal(computation_rate(H, np.stack([A, A]), np.stack([p, p])), np.stack([r, r]))


@pytest.mark.parametrize("n", range(1, 8))
def test_fold_add_has_the_bits_of_numpy_sum_on_short_axes(n):
    # the grid search sums each candidate's source rates as a left-to-right
    # _fold over the source axis of its rows-last tables; on axes shorter
    # than 8 that must be bit for bit np.sum over a contiguous last axis,
    # for rates that span many magnitudes, with zeros, exact ties and inf
    rng = np.random.default_rng(50 + n)
    x = rng.uniform(0.0, 1.0, size=(2000, 3, n)) * 10.0 ** rng.integers(-12, 4, size=(2000, 3, n))
    x[rng.uniform(size=x.shape) < 0.1] = 0.0
    ties = rng.uniform(size=x.shape[:2]) < 0.2
    x[ties] = x[ties][:, :1]
    x[rng.uniform(size=x.shape) < 0.02] = np.inf
    got = rates._fold(np.add, np.ascontiguousarray(np.transpose(x, (1, 2, 0))), 1)
    assert got.tobytes() == np.sum(x, axis=-1).T.tobytes()


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


def test_mismatched_shapes_rejected():
    # one capacity, channel row or source rate per relay or source: fewer
    # must not broadcast into rates for all of them
    asg, H = draw_case(np.random.default_rng(3), L=2)
    region = SecondHopRegion((1.0, 1.0))
    with pytest.raises(ValueError, match=r"expected a \(2, 2\) channel and 2 capacities, got \(2, 2\) and 1"):
        max_rates_given_structure(asg, H, SecondHopRegion((1.0,)), "srm")
    with pytest.raises(ValueError, match=r"got \(1, 2\) and 2"):
        max_rates_given_structure(asg, H[:1], region, "srq")
    with pytest.raises(ValueError, match=r"expected 2 source rates, got shape \(1,\)"):
        forwarding_rates(asg, [0.5], "srm")
    max_rates_given_structure(asg, H, region, "srm")
    forwarding_rates(asg, [0.5, 0.5], "srm")


def near_integer_reports(rng, cases=40):
    """(asg, H, caps, variant, report) for every feasible variant on
    near-integer channels, where most sources have a positive computation
    rate."""
    for _ in range(cases):
        asg, H = draw_case(rng)
        H = asg.A + 0.1 * H
        caps = rng.uniform(0.5, 4.0, size=asg.L)
        region = SecondHopRegion(tuple(caps))
        for variant in VARIANTS:
            try:
                report = max_rates_given_structure(asg, H, region, variant)
            except InfeasibleStructureError:
                continue
            yield asg, H, caps, variant, report


def test_max_rates_feasible_and_grid_optimal():
    # oracle: the returned rates stay within the computation rates, and no
    # random candidate rate tuple that satisfies the forwarding constraints
    # has a larger sum
    rng = np.random.default_rng(4)
    sums = []
    for asg, H, caps, variant, report in near_integer_reports(rng):
        sums.append(report.sumRate)
        r = np.array(report.sourceRates)
        r_comp = computation_rate(H, asg.A, np.array(asg.powers))
        assert np.all(r <= r_comp + 1e-12)
        for _ in range(60):
            cand = r_comp * rng.uniform(0.0, 1.0, size=asg.L)
            if np.all(forwarding_rates(asg, cand, variant) <= caps):
                assert np.sum(cand) <= np.sum(r) + 1e-6
    assert np.count_nonzero(np.array(sums) > 0) > len(sums) / 2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a source at its forwarding bound forwards (caps - off) + off, which "
    "rounds up to 2 ulp above caps (CHANGES.md, max_rates_given_structure)",
)
def test_max_rates_forwarding_rates_within_caps():
    for asg, _, caps, variant, report in near_integer_reports(np.random.default_rng(4)):
        assert np.all(forwarding_rates(asg, np.array(report.sourceRates), variant) <= caps)


def test_reported_forwarding_rates_within_caps():
    # the report's own forwarding rates never exceed the caps, though
    # recomputing them from its source rates may round above (the xfail
    # above); elsewhere they are the recomputed rates
    for asg, _, caps, variant, report in near_integer_reports(np.random.default_rng(4)):
        R = forwarding_rates(asg, np.array(report.sourceRates), variant)
        assert np.all(np.array(report.forwardingRates) <= caps)
        assert np.array_equal(report.forwardingRates, np.minimum(R, caps))


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
    sums = []
    for _ in range(30):
        asg, H = draw_case(rng)
        H = asg.A + 0.1 * H
        caps = rng.uniform(0.2, 2.0, size=asg.L)
        for variant in VARIANTS:
            try:
                lo = max_rates_given_structure(asg, H, SecondHopRegion(tuple(caps)), variant)
                hi = max_rates_given_structure(asg, H, SecondHopRegion(tuple(caps * 2)), variant)
            except InfeasibleStructureError:
                continue
            sums.append(lo.sumRate)
            assert hi.sumRate >= lo.sumRate - 1e-12
    assert np.count_nonzero(np.array(sums) > 0) > len(sums) / 2


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


def test_max_rates_reads_one_link_table(monkeypatch):
    # the bounds and the forwarding rates of a report share one link table
    calls = []
    links = rates._links

    def counted(asg, variant):
        calls.append(variant)
        return links(asg, variant)

    monkeypatch.setattr(rates, "_links", counted)
    asg, H = draw_case(np.random.default_rng(5), L=3)
    H = asg.A + 0.1 * H
    for variant in VARIANTS:
        max_rates_given_structure(asg, H, SecondHopRegion((30.0,) * 3), variant)
    assert calls == list(VARIANTS)


def test_rate_report_coerces_types():
    rep = RateReport((1, 2), (2, 1), 3.0, ["computation-limited"] * 2)
    assert rep.sourceRates == (1.0, 2.0)
    assert isinstance(rep.limiting, tuple)


def rate_report_records():
    """repr of every field of max_rates_given_structure, or the name of the
    exception it raises, and of forwarding_rates on a random r >= 0, for
    seeded cases at L = 1..4 over every variant.  Coefficients mod 3 put
    zeros in A; a third of the cases draw caps small enough that the
    volume offsets make most srm, srmq and symmetric structures
    infeasible."""
    records = []
    for L in range(1, 5):
        for case in range(30):
            rng = np.random.default_rng((L, case))
            asg, H = draw_case(rng, L=L, pow_hi=1e3, gamma=3 if case % 2 else 257)
            # near-integer channels give most sources a positive computation rate
            H = asg.A + 0.1 * H
            caps = rng.uniform(0.0, 0.5 if case % 3 == 0 else 6.0, size=L)
            r = rng.uniform(0.0, 3.0, size=L) * (rng.uniform(size=L) < 0.8)
            for variant in VARIANTS:
                try:
                    rep = max_rates_given_structure(asg, H, SecondHopRegion(tuple(caps)), variant)
                    report = {
                        "sourceRates": repr(rep.sourceRates),
                        "forwardingRates": repr(rep.forwardingRates),
                        "sumRate": repr(rep.sumRate),
                        "limiting": repr(rep.limiting),
                    }
                except InfeasibleStructureError as exc:
                    report = type(exc).__name__
                records.append(
                    {
                        "L": L,
                        "case": case,
                        "variant": variant,
                        "report": report,
                        "forwarding": repr(tuple(float(R) for R in forwarding_rates(asg, r, variant))),
                    }
                )
    return records


def test_rate_reports_are_bit_identical_to_the_recorded_ones():
    recorded = json.loads(RATE_REPORTS.read_text(encoding="utf-8"))
    assert rate_report_records() == recorded


if __name__ == "__main__":
    # regenerate the recorded reports: python tests/test_rates.py
    lines = ",\n".join(json.dumps(record) for record in rate_report_records())
    RATE_REPORTS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
