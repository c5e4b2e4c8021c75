import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import exact_oracle
from ccfrelay import recovery
from ccfrelay.errors import SingularMatrixError, SingularResidualError, SpecMismatchError
from ccfrelay.galois import mat_inverse, residual_sets, residual_submatrix
from ccfrelay.lattice import ChainPoint, LevelPair, make_chain_spec, mod_level, point_sub, quantize_level
from ccfrelay.optimizer import _feasible_perms
from ccfrelay.pipeline import SchemeAssignment, compress, relay_combination
from ccfrelay.recovery import srm, srmq, srq
from ccfrelay.verify import encode_all, random_assignment, random_messages, relay_outputs

EXACT_CHAIN = Path(__file__).parent / "data" / "exact_chain.json"


def exact_case(rng, gamma, n, L, common_shaping):
    asg = random_assignment(rng, gamma, n, L, common_shaping=common_shaping)
    msgs = random_messages(rng, asg, 32)
    return asg, encode_all(msgs, asg)


def common_shaping_outputs(t, asg, c):
    """Each relay's combination quantized at its quantization level, then
    reduced modulo the common shaping lattice Lambda(c) in place of its own
    modulo lattice."""
    return [
        mod_level(quantize_level(relay_combination(t, m, asg), asg.quantize_level_of(m)), c)
        for m in range(1, asg.L + 1)
    ]


def test_srq_recovers_ground_truth():
    rng = np.random.default_rng(0)
    for _ in range(30):
        gamma = int(rng.choice((2, 3, 5)))
        asg, t = exact_case(rng, gamma, 4, int(rng.choice((2, 3))), common_shaping=True)
        got = srq(relay_outputs(t, asg), asg)
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
    # sources transmit x = [t - d] mod shaping and the relays see
    # combinations of x; these dithers have no digits below the shaping
    # level, the only ones recovery reads, so it returns the residue x
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
        v = relay_outputs(t, asg)
        via_srmq = srmq(v, None, asg)
        via_srq = srq(v, asg)
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
    v = common_shaping_outputs(t, asg, c)
    with pytest.raises(SingularResidualError) as exc:
        srq(v, asg)
    assert exc.value.phase == "quantization"
    assert exc.value.iteration == 1

    v2 = [mod_level(relay_combination(t, m, asg), asg.modulo_level_of(m)) for m in (1, 2)]
    with pytest.raises(SingularResidualError) as exc:
        srm(v2, None, asg)
    assert exc.value.phase == "modulo"
    assert exc.value.iteration == 2


def _traceback_depth(exc: BaseException) -> int:
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


def test_singular_residual_raised_afresh_on_every_call():
    # srm keeps only the phase and iteration of a singular system: each
    # call raises a new error, whose traceback does not grow from call to
    # call as that of one re-raised object would
    asg = _fixed_assignment(A=np.array([[0, 1], [1, 0]]))
    t = encode_all(random_messages(np.random.default_rng(5), asg, 4), asg)
    v = [mod_level(relay_combination(t, m, asg), asg.modulo_level_of(m)) for m in (1, 2)]
    errors = []
    for _ in range(2):
        with pytest.raises(SingularResidualError) as exc:
            srm(v, None, asg)
        errors.append(exc.value)
    first, second = errors
    assert first is not second
    assert (first.phase, first.iteration) == (second.phase, second.iteration) == ("modulo", 2)
    assert _traceback_depth(first) == _traceback_depth(second)


def test_wrong_relay_count_rejected():
    asg = _fixed_assignment(A=np.eye(2, dtype=np.int64))
    t = encode_all(random_messages(np.random.default_rng(6), asg, 4), asg)
    c = asg.shapingLevels[0]
    v = common_shaping_outputs(t, asg, c)
    with pytest.raises(ValueError, match="expected 2 relay outputs, got 1"):
        srq(v[:1], asg)


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("point", [False, True])
@pytest.mark.parametrize("algo", [srm, srmq])
def test_wrong_dither_count_rejected(algo, point, count):
    # a short list must not read as zero dithers for the missing sources,
    # nor a long one end in a bare IndexError
    rng = np.random.default_rng(12)
    asg, t = exact_case(rng, 3, 4, 3, common_shaping=False)
    zero = ChainPoint(asg.spec, np.zeros((32, 4), dtype=np.int64), np.zeros((32, 4), dtype=np.int64))
    with pytest.raises(ValueError, match=f"expected 3 dithers, got {count}"):
        algo(relay_outputs(t, asg), [zero if point else None] * count, asg)


@pytest.mark.parametrize("algo", [srm, srmq])
def test_bad_dither_rejected(algo):
    # a dither of another spec, or whose batch shape does not broadcast to
    # the relay outputs', is rejected whichever source it belongs to, also
    # the last one recovered, whose dither srm never reads
    rng = np.random.default_rng(12)
    asg, t = exact_case(rng, 3, 4, 3, common_shaping=False)
    v = relay_outputs(t, asg)
    n, kMax = asg.spec.n, asg.spec.kMax
    other = make_chain_spec(7, n, kMax)
    for l in range(asg.L):
        for spec, batch, error in ((asg.spec, (5,), ValueError), (other, (32,), SpecMismatchError)):
            dithers = [None] * asg.L
            dithers[l] = ChainPoint(spec, np.zeros(batch + (kMax,), dtype=np.int64), np.zeros(batch + (n,), dtype=np.int64))
            with pytest.raises(error):
                algo(v, dithers, asg)


def test_spec_mismatch_rejected():
    asg = _fixed_assignment(A=np.eye(2, dtype=np.int64))
    other = make_chain_spec(5, 4, 4)
    t = encode_all(random_messages(np.random.default_rng(7), asg, 4), asg)
    c = asg.shapingLevels[0]
    v = common_shaping_outputs(t, asg, c)
    bad = [ChainPoint(other, v[0].digits, v[0].ints), v[1]]
    with pytest.raises(SpecMismatchError, match="relay output spec differs from assignment spec"):
        srq(bad, asg)


def test_none_relay_output_rejected_and_none_dither_entry_kept():
    # only a dither may be None (the zero dither): a None relay output is a
    # ValueError that names its position, not a bare AttributeError, while a
    # None entry of a dither list still recovers as the zero dither
    rng = np.random.default_rng(13)
    asg, t = exact_case(rng, 3, 4, 3, common_shaping=False)
    v = relay_outputs(t, asg)
    for call in (lambda v: srq(v, asg), lambda v: srm(v, None, asg)):
        with pytest.raises(ValueError, match="relay output 2 is None"):
            call([v[0], None, v[2]])
    zero = ChainPoint(asg.spec, np.zeros((32, 4), dtype=np.int64), np.zeros((32, 4), dtype=np.int64))
    for algo in (srm, srmq):
        assert algo(v, [None, zero, None], asg) == algo(v, None, asg)


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
    points += srq(v, asg) + srm(v, None, asg) + srmq(v, None, asg)
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


def _oracle_assignment(rng, gamma, L, common_shaping):
    """Random assignment on a chain with kMax in [L, L + 3) and one to
    three random parity rows (n > kMax)."""
    kMax = int(rng.integers(L, L + 3))
    asg = random_assignment(rng, gamma, kMax, L, common_shaping=common_shaping)
    return replace(asg, spec=make_chain_spec(gamma, kMax + int(rng.integers(1, 4)), kMax, rng=rng))


def _messages(rng, asg, batch):
    """Random message digits of every source with the given batch shape."""
    return [rng.integers(0, asg.spec.gamma, size=batch + (asg.message_length(l),)) for l in range(1, asg.L + 1)]


def _oracle_dithers(rng, asg, batch):
    """One random dither per source inside its codebook slice, or None (the
    zero dither) for about a third of the sources."""
    dithers = []
    for l in range(1, asg.L + 1):
        d = np.zeros(batch + (asg.spec.kMax,), dtype=np.int64)
        lo, hi = asg.shaping_level(l), asg.coding_level(l)
        d[..., lo:hi] = rng.integers(0, asg.spec.gamma, size=batch + (hi - lo,))
        zeros = np.zeros(batch + (asg.spec.n,), dtype=np.int64)
        dithers.append(None if rng.random() < 1 / 3 else ChainPoint(asg.spec, d, zeros))
    return dithers


def _reference(algo):
    """The full-array reference of a recovery algorithm, called with the
    library's arguments; the reference srq takes its common shaping level
    explicitly, and it is the assignment's finest."""
    if algo is srq:
        return lambda v, asg: exact_oracle.srq(v, asg, asg.shapingLevels[0])
    return getattr(exact_oracle, algo.__name__)


def _outcome(algo, *args):
    """The recovered points, or the phase and iteration of the
    SingularResidualError raised."""
    try:
        return algo(*args)
    except SingularResidualError as exc:
        return (exc.phase, exc.iteration)


def _assert_bit_equal(got, ref):
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        for a, b in ((g.digits, r.digits), (g.ints, r.ints)):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
@pytest.mark.parametrize("gamma", [2, 3, 5, 7, 257])
def test_recovery_matches_the_full_array_reference(gamma, L):
    # every output must be the sent codeword and bit-equal to the
    # reference, which runs every cancellation on the whole digit array
    rng = np.random.default_rng((gamma, L, 1))
    for batch, dithered in itertools.product(((), (6,), (2, 3)), (False, True)):
        asg = _oracle_assignment(rng, gamma, L, common_shaping=True)
        t = encode_all(_messages(rng, asg, batch), asg)
        v = relay_outputs(t, asg)
        got = srq(v, asg)
        _assert_bit_equal(got, _reference(srq)(v, asg))
        assert got == t

        asg = _oracle_assignment(rng, gamma, L, common_shaping=False)
        t = encode_all(_messages(rng, asg, batch), asg)
        dithers = _oracle_dithers(rng, asg, batch) if dithered else None
        # sources send x = [t - d] mod shaping; recovery returns x
        x = list(t)
        for l, d in enumerate(dithers or (), 1):
            if d is not None:
                x[l - 1] = mod_level(point_sub(t[l - 1], d), asg.shaping_level(l))
        v = [mod_level(relay_combination(x, m, asg), asg.modulo_level_of(m)) for m in range(1, L + 1)]
        got = srm(v, dithers, asg)
        _assert_bit_equal(got, exact_oracle.srm(v, dithers, asg))
        assert got == x
        v = relay_outputs(x, asg)
        got = srmq(v, dithers, asg)
        _assert_bit_equal(got, exact_oracle.srmq(v, dithers, asg))
        assert got == x


@pytest.mark.parametrize("L", [2, 3, 4])
def test_chain_at_a_large_batch_matches_the_full_array_reference(L):
    # 4,096 messages: every full-batch buffer lies above glibc's 128 KiB
    # mmap threshold, where fresh pages come back zero-filled and can hide
    # a read of an uninitialized np.empty (CI also runs this file under
    # MALLOC_PERTURB_).  Chains with n = kMax, as in the benchmark, and
    # with parity rows.
    rng = np.random.default_rng((L, 28))
    batch = (4096,)
    for kind in ("square", "parity"):
        for common in (True, False):
            if kind == "square":
                asg = random_assignment(rng, 3, 8, L, common_shaping=common)
            else:
                asg = _oracle_assignment(rng, 3, L, common_shaping=common)
            t = encode_all(_messages(rng, asg, batch), asg)
            deltas = [relay_combination(t, m, asg) for m in range(1, L + 1)]
            for m, delta in enumerate(deltas, 1):
                digits, ints = exact_oracle.combine(t, asg.A[m - 1])
                np.testing.assert_array_equal(delta.digits, digits)
                np.testing.assert_array_equal(delta.ints, ints)
            v = [compress(delta, m, asg) for m, delta in enumerate(deltas, 1)]
            for m, (delta, v_m) in enumerate(zip(deltas, v), 1):
                kq, ke = asg.quantize_level_of(m), asg.modulo_level_of(m)
                assert v_m == mod_level(quantize_level(delta, kq), ke)
            if common:
                got = srq(v, asg)
                _assert_bit_equal(got, _reference(srq)(v, asg))
                assert got == t
                continue
            dithers = _oracle_dithers(rng, asg, batch)
            # sources send x = [t - d] mod shaping; recovery returns x
            x = [
                t_l if d is None else mod_level(point_sub(t_l, d), asg.shaping_level(l))
                for l, (t_l, d) in enumerate(zip(t, dithers), 1)
            ]
            w = [mod_level(relay_combination(x, m, asg), asg.modulo_level_of(m)) for m in range(1, L + 1)]
            got = srm(w, dithers, asg)
            _assert_bit_equal(got, exact_oracle.srm(w, dithers, asg))
            assert got == x
            v = relay_outputs(x, asg)
            got = srmq(v, dithers, asg)
            _assert_bit_equal(got, exact_oracle.srmq(v, dithers, asg))
            assert got == x


def test_shared_zero_part_reads_zero_after_a_chain_run():
    # codewords, relay outputs, residues modulo a level and recovered
    # codewords share one zero integer part per shape, a view of an
    # immutable buffer: neither it, its base nor a slice of it can be made
    # writable, and a whole chain leaves it zero
    rng = np.random.default_rng(28)
    asg = random_assignment(rng, 3, 8, 3)
    t = encode_all(random_messages(rng, asg, 64), asg)
    v = relay_outputs(t, asg)
    got = srmq(v, None, asg)
    assert got == t
    zero = t[0].ints
    residue = mod_level(relay_combination(t, 1, asg), 2)
    assert all(x.ints is zero for x in t + v + got + srq(v, asg) + srm(v, None, asg) + [residue])
    for z in (zero, zero.base, got[0][5].ints):
        with pytest.raises(ValueError):
            z.setflags(write=True)
    with pytest.raises(ValueError):
        zero[0, 0] = 1
    assert zero.shape == (64, 8) and not np.any(zero)


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("gamma", [2, 3, 5])
def test_dither_digits_below_the_shaping_level_are_cancelled(gamma, L):
    # dithers with random digits everywhere and an integer part; the relays
    # combine y_l = t_l - Q_{k_s(l)}(t_l - d_l), whose digits below the
    # shaping level are the dither's, and recovery must return t itself.
    # Only those dither digits are read: the dithers quantized onto their
    # shaping lattices give the same result, and reduced modulo them, the
    # zero dithers' result.
    rng = np.random.default_rng((gamma, L, 3))
    for _ in range(10):
        asg = _oracle_assignment(rng, gamma, L, common_shaping=False)
        spec = asg.spec
        t = encode_all(_messages(rng, asg, (6,)), asg)
        dithers = [
            ChainPoint(spec, rng.integers(0, gamma, size=(6, spec.kMax)), rng.integers(-3, 4, size=(6, spec.n)))
            for _ in range(L)
        ]
        shaping = [asg.shaping_level(l) for l in range(1, L + 1)]
        y = [point_sub(t_l, quantize_level(point_sub(t_l, d), k)) for t_l, d, k in zip(t, dithers, shaping)]
        v_srm = [mod_level(relay_combination(y, m, asg), asg.modulo_level_of(m)) for m in range(1, L + 1)]
        for algo, v in ((srm, v_srm), (srmq, relay_outputs(y, asg))):
            got = algo(v, dithers, asg)
            _assert_bit_equal(got, t)
            _assert_bit_equal(got, getattr(exact_oracle, algo.__name__)(v, dithers, asg))
            _assert_bit_equal(algo(v, [quantize_level(d, k) for d, k in zip(dithers, shaping)], asg), got)
            _assert_bit_equal(algo(v, [mod_level(d, k) for d, k in zip(dithers, shaping)], asg), algo(v, None, asg))


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("gamma", [2, 3, 5])
def test_infeasible_permutations_fail_where_the_reference_fails(gamma, L):
    # random pi_d and pi_e: recovery must raise exactly when _feasible_perms
    # rejects the pair, in the reference's phase and iteration
    rng = np.random.default_rng((gamma, L, 2))
    raised = 0
    for _ in range(12):
        asg = _oracle_assignment(rng, gamma, L, common_shaping=False)
        asg = replace(asg, pi_d=tuple(rng.permutation(L) + 1), pi_e=tuple(rng.permutation(L) + 1))
        feasible = [
            _feasible_perms(asg.A[None], np.array([pi]), np.array([perm]), gamma, kind)[0, 0]
            for pi, perm, kind in ((asg.pi_c, asg.pi_d, "d"), (asg.pi_s, asg.pi_e, "e"))
        ]
        dithers = _oracle_dithers(rng, asg, (4,))
        t = encode_all(random_messages(rng, asg, 4), asg)
        v = relay_outputs(t, asg)
        for algo, args, phase in (
            (srq, (v, asg), "quantization"),
            (srm, (v, dithers, asg), "modulo"),
            (srmq, (v, dithers, asg), "quantization" if not feasible[0] else "modulo"),
        ):
            got = _outcome(algo, *args)
            _assert_bit_equal(got, _outcome(_reference(algo), *args))
            ok = feasible[phase == "modulo"] and (algo is not srmq or all(feasible))
            assert isinstance(got, list) == ok
            if not ok:
                assert got[0] == phase
                raised += 1
    assert raised > 0


def test_recovery_rejects_out_of_range_levels():
    asg = _fixed_assignment(A=np.array([[1, 1], [1, 2]]))
    t = encode_all(random_messages(np.random.default_rng(13), asg, 4), asg)
    v = [mod_level(relay_combination(t, m, asg), asg.modulo_level_of(m)) for m in (1, 2)]
    finest_shaping = asg.shapingLevels[0]
    for level in (-1, 0, finest_shaping - 1, asg.spec.kMax + 1, 99):
        with pytest.raises(ValueError):
            srm(v, None, asg, fine_level=level)
    for level in (finest_shaping, asg.codingLevels[0] - 1, asg.spec.kMax):
        assert srm(v, None, asg, fine_level=level) == exact_oracle.srm(v, None, asg, fine_level=level)


@pytest.mark.parametrize("level", [2.5, float("nan")])
@pytest.mark.parametrize(
    "call",
    [
        lambda v, asg, k: LevelPair(k, 1),
        lambda v, asg, k: mod_level(v[0], k),
        lambda v, asg, k: quantize_level(v[0], k),
        lambda v, asg, k: srm(v, None, asg, fine_level=k),
    ],
    ids=["LevelPair", "mod_level", "quantize_level", "srm"],
)
def test_levels_that_are_not_integers_rejected(call, level):
    # a fraction must not reach a digit slice (a bare TypeError) or build
    asg = _fixed_assignment(A=np.array([[1, 1], [1, 2]]))
    t = encode_all(random_messages(np.random.default_rng(13), asg, 4), asg)
    v = [mod_level(relay_combination(t, m, asg), asg.modulo_level_of(m)) for m in (1, 2)]
    with pytest.raises(ValueError, match="must be integers"):
        call(v, asg, level)


def test_assignment_keeps_its_own_copy_of_A():
    # the caller's array stays writable, and writing to it changes neither
    # the assignment's A nor a later recovery
    A = np.array([[1, 1], [0, 1]])
    asg = _fixed_assignment(A=A)
    t = encode_all(random_messages(np.random.default_rng(14), asg, 4), asg)
    v = relay_outputs(t, asg)
    first = srmq(v, None, asg)
    A[0, 0] = 5
    np.testing.assert_array_equal(asg.A, [[1, 1], [0, 1]])
    assert not asg.A.flags.writeable
    _assert_bit_equal(srmq(v, None, asg), first)
    assert first == t


@pytest.mark.parametrize("gamma", [2, 3, 5, 7])
def test_residual_systems_are_solved_once_per_assignment_and_kind(gamma, monkeypatch):
    # the first srq/srm/srmq calls on an assignment invert each kind's L
    # residual systems once; later calls invert none, return the first
    # call's digits bit for bit, or raise in the same phase and iteration.
    # Each kept system is its iteration's masks and the inverse of its
    # residual matrix, None when that matrix is singular.
    inversions = []
    monkeypatch.setattr(recovery, "mat_inverse", lambda M: inversions.append(M) or mat_inverse(M))
    rng = np.random.default_rng((gamma, 4))
    raised = 0
    for L, case in itertools.product((2, 3, 4), range(4)):
        asg = random_assignment(rng, gamma, int(rng.integers(L, L + 2)), L)
        if case % 2:
            asg = replace(asg, pi_d=tuple(rng.permutation(L) + 1), pi_e=tuple(rng.permutation(L) + 1))
        t = encode_all(random_messages(rng, asg, 3), asg)
        v = relay_outputs(t, asg)
        dithers = _oracle_dithers(rng, asg, (3,))
        calls = [(srq, (v, asg)), (srm, (v, dithers, asg)), (srmq, (v, dithers, asg))]
        first = [_outcome(algo, *args) for algo, args in calls]
        assert len(inversions) == 2 * L
        inversions.clear()
        for (algo, args), got in zip(calls, first):
            _assert_bit_equal(got, _outcome(_reference(algo), *args))
            _assert_bit_equal(_outcome(algo, *args), got)
            raised += isinstance(got, tuple)
        assert inversions == []
        for kind, labels in (("d", (asg.pi_c, asg.pi_d)), ("e", (asg.pi_s, asg.pi_e))):
            plan = recovery._plan(asg, kind)
            assert len(plan) == L
            for it, (sources, relays, inv) in enumerate(plan, 1):
                want = residual_sets(*labels, it, kind)
                np.testing.assert_array_equal(sources, want[0])
                np.testing.assert_array_equal(relays, want[1])
                try:
                    np.testing.assert_array_equal(inv, mat_inverse(residual_submatrix(asg.field_image, *want)).entries)
                except SingularMatrixError:
                    assert inv is None
    assert raised > 0


@pytest.mark.parametrize("L", [2, 3, 4, 5])
@pytest.mark.parametrize("gamma", [2, 3, 5, 257])
def test_srm_bands_are_the_unit_responses_of_their_columns(gamma, L):
    # srm is linear over F_gamma in every column, and a column's treatment
    # changes only at shaping levels.  The iterative form, run on the unit
    # inputs over all columns, must give a band's compiled relay and dither
    # matrices in every column of that band and zero in every column
    # outside the bands, which together span [shapingLevels[-1], fine level)
    rng = np.random.default_rng((gamma, L, 29))
    compiled = 0
    for case in range(6):
        asg = _oracle_assignment(rng, gamma, L, common_shaping=False)
        if case % 2:
            asg = replace(asg, pi_e=tuple(rng.permutation(L) + 1))
        kMax = asg.spec.kMax
        unit = np.eye(2 * L, dtype=np.int64)
        D = [np.broadcast_to(unit[L + l, :, None], (2 * L, kMax)) for l in range(L)]
        for fine in range(asg.shapingLevels[0], kMax + 1):
            bands, singular = recovery._srm_bands(asg, fine)
            try:
                T = recovery._srm_digits(np.repeat(unit[:L, :, None], fine, axis=-1), D, asg, fine)
            except SingularResidualError as exc:
                assert (bands, singular) == ((), (exc.phase, exc.iteration))
                continue
            assert singular is None
            covered = np.zeros(kMax, dtype=bool)
            for lo, hi, R, E in bands:
                assert lo < hi and not covered[lo:hi].any()
                assert lo in asg.shapingLevels and (hi == fine or hi in asg.shapingLevels)
                for c in range(lo, hi):
                    np.testing.assert_array_equal(T[:, :L, c], R)
                    np.testing.assert_array_equal(T[:, L:, c], E)
                covered[lo:hi] = True
            np.testing.assert_array_equal(covered, (np.arange(kMax) >= asg.shapingLevels[-1]) & (np.arange(kMax) < fine))
            assert not T[..., ~covered].any()
            compiled += 1
    assert compiled > 0


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
                "srq": _recovered(srq, v, asg),
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
