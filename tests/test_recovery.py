import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ccfrelay.errors import SingularResidualError, SpecMismatchError
from ccfrelay.lattice import ChainPoint, make_chain_spec, mod_level, point_sub
from ccfrelay.pipeline import SchemeAssignment, compress, relay_combination
from ccfrelay.recovery import srm, srmq, srq
from ccfrelay.verify import encode_all, random_assignment, random_messages, relay_outputs

EXACT_CHAIN = Path(__file__).parent / "data" / "exact_chain.json"


def exact_case(rng, gamma, n, L, common_shaping):
    asg = random_assignment(rng, gamma, n, L, common_shaping=common_shaping)
    msgs = random_messages(rng, asg, 32)
    return asg, encode_all(msgs, asg)


def test_srq_recovers_ground_truth():
    rng = np.random.default_rng(0)
    for _ in range(30):
        gamma = int(rng.choice((2, 3, 5)))
        asg, t = exact_case(rng, gamma, 4, int(rng.choice((2, 3))), common_shaping=True)
        c = asg.shapingLevels[0]
        v = relay_outputs(t, asg, common_shaping_level=c)
        got = srq(v, asg, c)
        for l in range(asg.L):
            assert got[l] == t[l]


def test_srm_recovers_ground_truth():
    rng = np.random.default_rng(1)
    for _ in range(30):
        gamma = int(rng.choice((2, 3, 5)))
        asg, t = exact_case(rng, gamma, 4, int(rng.choice((2, 3))), common_shaping=False)
        v = [
            mod_level(relay_combination(t, m, asg), asg.modulo_level_of(m))
            for m in range(1, asg.L + 1)
        ]
        got = srm(v, None, asg)
        for l in range(asg.L):
            assert got[l] == t[l]


def test_srmq_recovers_ground_truth():
    rng = np.random.default_rng(2)
    for _ in range(30):
        gamma = int(rng.choice((2, 3, 5)))
        asg, t = exact_case(rng, gamma, 4, int(rng.choice((2, 3))), common_shaping=False)
        v = relay_outputs(t, asg)
        got = srmq(v, None, asg)
        for l in range(asg.L):
            assert got[l] == t[l]


@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("algo", [srm, srmq])
def test_srm_with_nonzero_dithers(algo, L):
    # sources transmit x = [t - d] mod shaping; the relays see combinations
    # of x, and recovery must re-attach the dithers
    rng = np.random.default_rng(3)
    for _ in range(20):
        asg, t = exact_case(rng, 3, 4, L, common_shaping=False)
        dithers = []
        x = []
        for l in range(1, asg.L + 1):
            d_digits = np.zeros((32, 4), dtype=np.int64)
            lo, hi = asg.shaping_level(l), asg.coding_level(l)
            d_digits[:, lo:hi] = rng.integers(0, 3, size=(32, hi - lo))
            d = ChainPoint(asg.spec, d_digits, np.zeros((32, 4), dtype=np.int64))
            dithers.append(d)
            x.append(mod_level(point_sub(t[l - 1], d), asg.shaping_level(l)))
        if algo is srm:
            v = [mod_level(relay_combination(x, m, asg), asg.modulo_level_of(m)) for m in range(1, asg.L + 1)]
        else:
            v = relay_outputs(x, asg)
        got = algo(v, dithers, asg)
        for l in range(1, asg.L + 1):
            want = mod_level(point_sub(t[l - 1], dithers[l - 1]), asg.shaping_level(l))
            assert got[l - 1] == want


def test_srmq_equals_srq_under_common_shaping():
    # with one common shaping level the modulo stage has nothing to do
    rng = np.random.default_rng(4)
    for _ in range(15):
        asg, t = exact_case(rng, 3, 4, 2, common_shaping=True)
        c = asg.shapingLevels[0]
        v = relay_outputs(t, asg)
        via_srmq = srmq(v, None, asg)
        via_srq = srq(relay_outputs(t, asg, common_shaping_level=c), asg, c)
        for l in range(asg.L):
            assert via_srmq[l] == via_srq[l]


def _fixed_assignment(A, pi_c=(1, 2), pi_s=(1, 2), pi_d=(1, 2), pi_e=(1, 2)):
    spec = make_chain_spec(3, 4, 4, rng=np.random.default_rng(8))
    return SchemeAssignment(
        spec=spec,
        pi_c=pi_c,
        pi_s=pi_s,
        pi_d=pi_d,
        pi_e=pi_e,
        A=np.asarray(A),
        codingLevels=(4, 3),
        shapingLevels=(2, 1),
        powers=(1.0, 1.0),
        budgets=(1.0, 1.0),
    )


def test_singular_residual_reported_with_phase_and_iteration():
    # relay 1 quantizes first but its row does not involve the first-coded
    # source, so the 1x1 quantization residual is zero
    asg = _fixed_assignment(A=np.array([[0, 1], [1, 0]]))
    t = encode_all(random_messages(np.random.default_rng(5), asg, 4), asg)
    c = asg.shapingLevels[0]
    v = relay_outputs(t, asg, common_shaping_level=c)
    with pytest.raises(SingularResidualError) as exc:
        srq(v, asg, c)
    assert exc.value.phase == "quantization"
    assert exc.value.iteration == 1

    v2 = [mod_level(relay_combination(t, m, asg), asg.modulo_level_of(m)) for m in (1, 2)]
    with pytest.raises(SingularResidualError) as exc:
        srm(v2, None, asg)
    assert exc.value.phase == "modulo"
    assert exc.value.iteration == 2


def test_wrong_relay_count_rejected():
    asg = _fixed_assignment(A=np.eye(2, dtype=np.int64))
    t = encode_all(random_messages(np.random.default_rng(6), asg, 4), asg)
    c = asg.shapingLevels[0]
    v = relay_outputs(t, asg, common_shaping_level=c)
    with pytest.raises(ValueError):
        srq(v[:1], asg, c)


def test_spec_mismatch_rejected():
    asg = _fixed_assignment(A=np.eye(2, dtype=np.int64))
    other = make_chain_spec(5, 4, 4)
    t = encode_all(random_messages(np.random.default_rng(7), asg, 4), asg)
    c = asg.shapingLevels[0]
    v = relay_outputs(t, asg, common_shaping_level=c)
    bad = [ChainPoint(other, v[0].digits, v[0].ints), v[1]]
    with pytest.raises(SpecMismatchError):
        srq(bad, asg, c)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_recovery_batched_matches_scalar(L):
    rng = np.random.default_rng(9)
    asg, t = exact_case(rng, 3, 4, L, common_shaping=False)
    v = relay_outputs(t, asg)
    batched = srmq(v, None, asg)
    for idx in (0, 7, 31):
        single = srmq([v_m[idx] for v_m in v], None, asg)
        for l in range(asg.L):
            assert batched[l][idx] == single[l]


def test_library_built_points_are_read_only():
    rng = np.random.default_rng(12)
    asg, t = exact_case(rng, 3, 4, 3, common_shaping=False)
    deltas = [relay_combination(t, m, asg) for m in range(1, asg.L + 1)]
    v = [compress(delta, m, asg) for m, delta in enumerate(deltas, 1)]
    points = deltas + v + [mod_level(deltas[0], 2)]
    points += srq(v, asg, asg.shapingLevels[0]) + srm(v, None, asg) + srmq(v, None, asg)
    for x in points:
        assert not x.digits.flags.writeable and not x.ints.flags.writeable


def test_greedy_permutations_keep_every_iteration_solvable():
    # each iteration's residual matrix must be invertible along the whole run
    rng = np.random.default_rng(10)
    for _ in range(20):
        gamma = int(rng.choice((2, 3)))
        L = int(rng.choice((2, 3)))
        asg, t = exact_case(rng, gamma, 4, L, common_shaping=False)
        v = relay_outputs(t, asg)
        srmq(v, None, asg)  # raises SingularResidualError on any failure


def _point_record(x: ChainPoint) -> str:
    """dtype and shape of a point's digits and integer part, then the
    digits run together (every gamma recorded is below 10) and the
    integer part."""
    d, z = x.digits, x.ints
    values = "".join(map(str, d.ravel().tolist())) + " | " + " ".join(map(str, z.ravel().tolist()))
    return f"{d.dtype}{list(d.shape)} {z.dtype}{list(z.shape)} {values}"


def _recovered(algo, *args):
    try:
        return [_point_record(t) for t in algo(*args)]
    except SingularResidualError as exc:
        return type(exc).__name__


def exact_chain_records():
    """Every relay's combination and compression, and the srq, srm and srmq
    results (or the name of the exception raised) on the compressed relay
    outputs, srq with the finest shaping level as the common one, for
    seeded chains:
    gamma in {2, 3, 5, 7}, L = 2..4, n = kMax and n > kMax (random parity
    rows), batch shapes (), (5,) and (2, 3), with zero and random dithers.
    Every third case draws pi_d and pi_e at random rather than by the
    greedy constructors, so some residual matrices are singular."""
    records = []
    axes = itertools.product((2, 3, 5, 7), (2, 3, 4), (False, True), ((), (5,), (2, 3)), (False, True))
    for case, (gamma, L, parity, batch, dithered) in enumerate(axes):
        rng = np.random.default_rng((gamma, L, case))
        kMax = int(rng.integers(L, L + 2))
        asg = random_assignment(rng, gamma, kMax, L)
        if parity:
            asg = replace(asg, spec=make_chain_spec(gamma, kMax + int(rng.integers(1, 3)), kMax, rng=rng))
        if case % 3 == 0:
            asg = replace(asg, pi_d=tuple(rng.permutation(L) + 1), pi_e=tuple(rng.permutation(L) + 1))
        spec = asg.spec
        t = encode_all([rng.integers(0, gamma, size=batch + (asg.message_length(l),)) for l in range(1, L + 1)], asg)
        dithers = None
        if dithered:
            dithers = []
            for l in range(1, L + 1):
                d = np.zeros(batch + (kMax,), dtype=np.int64)
                lo, hi = asg.shaping_level(l), asg.coding_level(l)
                d[..., lo:hi] = rng.integers(0, gamma, size=batch + (hi - lo,))
                dithers.append(ChainPoint(spec, d, np.zeros(batch + (spec.n,), dtype=np.int64)))
            t = [mod_level(point_sub(t_l, d), asg.shaping_level(l)) for l, (t_l, d) in enumerate(zip(t, dithers), 1)]
        deltas = [relay_combination(t, m, asg) for m in range(1, L + 1)]
        v = [compress(delta, m, asg) for m, delta in enumerate(deltas, 1)]
        records.append(
            {
                "case": case,
                "gamma": gamma,
                "L": L,
                "n": spec.n,
                "kMax": kMax,
                "batch": list(batch),
                "dithered": dithered,
                "combination": [_point_record(x) for x in deltas],
                "compress": [_point_record(x) for x in v],
                "srq": _recovered(srq, v, asg, asg.shapingLevels[0]),
                "srm": _recovered(srm, v, dithers, asg),
                "srmq": _recovered(srmq, v, dithers, asg),
            }
        )
    return records


def test_exact_chain_is_identical_to_the_recorded_one():
    recorded = json.loads(EXACT_CHAIN.read_text(encoding="utf-8"))
    assert exact_chain_records() == recorded


if __name__ == "__main__":
    # regenerate the recorded chain: python tests/test_recovery.py
    lines = ",\n".join(json.dumps(record) for record in exact_chain_records())
    EXACT_CHAIN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
