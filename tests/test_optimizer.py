import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ccfrelay import optimizer
from ccfrelay.errors import ConfigError, NotFullRankError, ReductionError
from ccfrelay.galois import FieldMatrix, mat_rank, residual_sets, residual_submatrix
from ccfrelay.optimizer import (
    _SCHEME_ROWS,
    OptimizerConfig,
    _feasible_perms,
    _gram,
    _Grid,
    _grid_rows,
    _lagrange2,
    _level_masks,
    _lll_batched,
    _metric2,
    _power_grid,
    _select_A,
    _select_A2,
    evaluate_all,
    is_size_reduced,
    is_unimodular,
    lll_reduce,
    pi_d_is_feasible,
    pi_e_is_feasible,
    satisfies_lovasz,
    select_coefficients,
)
from ccfrelay.lattice import mod_level
from ccfrelay.pipeline import ChannelInstance, compress, mmse_noise_power, relay_combination
from ccfrelay.rates import second_hop_region
from ccfrelay.recovery import srm, srmq
from ccfrelay.verify import encode_all, random_messages
from scalar_oracle import (
    ScalarRows,
    gram_matrix,
    relay_transforms,
    scalar_select_coefficients,
    scalar_select_from_gram,
)


def test_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(nBrute=0)
    with pytest.raises(ConfigError):
        OptimizerConfig(gammaOpt=4)


def test_gram_matrix_matches_noise_power():
    rng = np.random.default_rng(0)
    for _ in range(100):
        L = int(rng.integers(1, 5))
        h = rng.normal(size=L)
        p = rng.uniform(0.1, 30.0, size=L)
        D = gram_matrix(h, p)
        a = rng.integers(-5, 6, size=L).astype(float)
        assert abs(a @ D @ a - mmse_noise_power(h, a, p)) <= 1e-10
        C = np.linalg.cholesky(D)
        np.testing.assert_allclose(C @ C.T, D, atol=1e-10)


def test_lll_identity_is_fixed_point():
    red, T = lll_reduce(np.eye(3))
    np.testing.assert_allclose(red, np.eye(3))
    assert np.array_equal(T, np.eye(3, dtype=np.int64))


def test_lll_shortens_skewed_basis():
    B = np.array([[1.0, 0.0], [0.99, 1.0]])
    red, T = lll_reduce(B)
    assert np.linalg.norm(red[0]) <= np.linalg.norm(B[1])
    assert is_unimodular(T)
    np.testing.assert_allclose(red, T @ B)


def test_lll_contract_on_random_bases():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        B = rng.normal(size=(n, n))
        while abs(np.linalg.det(B)) < 1e-6:
            B = rng.normal(size=(n, n))
        red, T = lll_reduce(B)
        assert is_size_reduced(red)
        assert satisfies_lovasz(red)
        assert is_unimodular(T)
        np.testing.assert_allclose(red, T @ B, atol=1e-8)


def test_lll_rejects_rank_deficient():
    with pytest.raises(NotFullRankError):
        lll_reduce(np.array([[1.0, 2.0], [2.0, 4.0]]))


def brute_best_row(D, gamma, max_coeff, exclude=None):
    """Smallest-metric integer row, nonzero mod gamma, optionally linearly
    independent mod gamma from a previous row."""
    best = None
    L = D.shape[0]
    for cand in itertools.product(range(-max_coeff, max_coeff + 1), repeat=L):
        a = np.array(cand)
        if not np.any(a % gamma):
            continue
        if exclude is not None:
            stack = FieldMatrix(np.stack([exclude, a]), gamma)
            if mat_rank(stack) < 2:
                continue
        met = float(a @ D @ a)
        if best is None or met < best - 1e-12:
            best = met
    return best


def test_select_coefficients_L1():
    A = select_coefficients(np.array([[1.3]]), np.array([2.0]), 257)
    assert A.shape == (1, 1) and abs(A[0, 0]) == 1


def test_select_coefficients_matches_brute_force_L2():
    rng = np.random.default_rng(2)
    for _ in range(60):
        H = rng.normal(size=(2, 2))
        p = rng.uniform(0.5, 50.0, size=2)
        A = select_coefficients(H, p, 257)
        assert mat_rank(FieldMatrix(A, 257)) == 2
        for m in range(2):
            D = gram_matrix(H[m], p)
            met = float(A[m] @ D @ A[m])
            exclude = A[0] if m == 1 else None
            best = brute_best_row(D, 257, 10, exclude=exclude)
            assert met <= best + 1e-9


def test_select_coefficients_diagonal_channel():
    H = np.diag([5.0, -5.0, 5.0])
    p = np.ones(3)
    A = select_coefficients(H, p, 257)
    assert np.array_equal(np.abs(A), np.eye(3, dtype=np.int64))


def test_select_coefficients_always_full_rank():
    cfg = OptimizerConfig()
    rng = np.random.default_rng(3)
    for _ in range(200):
        L = int(rng.integers(1, 5))
        H = rng.normal(size=(L, L))
        p = rng.uniform(0.2, 100.0, size=L)
        A = select_coefficients(H, p, cfg.gammaOpt)
        assert mat_rank(FieldMatrix(A, cfg.gammaOpt)) == L


def gram_stacks_L2():
    """L = 2 metric stacks (N, 2, 2, 2), indexed by row then relay: the
    effective-noise metrics of random channels and powers, and small
    integer metrics, which make exact metric ties (D00 == D11 among them)
    and reduced bases that equal the unit vectors."""
    rng = np.random.default_rng(11)
    H = rng.normal(size=(2, 2))
    real = _gram(H, 10 ** rng.uniform(-1.0, 4.0, size=(300, 2)))
    a, b, c = rng.integers(1, 7, size=600), rng.integers(-6, 7, size=600), rng.integers(1, 7, size=600)
    c[::3] = a[::3]
    keep = a * c > b * b
    D = np.stack([np.stack([a, b], axis=1), np.stack([b, c], axis=1)], axis=1)[keep].astype(float)
    D = D[: len(D) // 2 * 2].reshape(-1, 2, 2, 2)
    return [real, D]


def test_select_A2_matches_scalar_oracle():
    # the sort-free selection must take the decisions of the scalar Gauss
    # reduction, candidate sort and rank-greedy loop, for small and large
    # gamma, exact metric ties and candidates that coincide
    stacks = gram_stacks_L2()
    ints = stacks[1].reshape(-1, 2, 2)
    assert np.sum(ints[:, 0, 0] == ints[:, 1, 1]) > 50
    u0, u1, _, _ = _lagrange2(ints[:, 0, 0], ints[:, 0, 1], ints[:, 1, 1])
    assert np.sum((np.abs(u0) + np.abs(u1)) == 1) > 50
    for D in stacks:
        for gamma in (2, 3, 5, 257):
            A = _select_A2(D, gamma)
            want = np.stack([scalar_select_from_gram(Ds, gamma) for Ds in D])
            assert np.array_equal(A, want)


def gram_stack_ints(L, count, seed):
    """Small integer metric stacks (count, L, L, L), indexed by row then
    relay: Gram matrices M M^T of random integer M, which reduce to rows
    other than the unit vectors, alternating with diagonally dominant ones
    whose diagonals repeat, which reduce to unit vectors and tie them
    exactly."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count * L:
        if len(out) % 2:
            M = rng.integers(-3, 4, size=(L, L))
            if round(abs(np.linalg.det(M))) == 0:
                continue
            out.append(M @ M.T)
        else:
            off = np.triu(rng.integers(-1, 2, size=(L, L)), 1)
            out.append(off + off.T + np.diag(rng.choice((L, L + 1), size=L)))
    return np.array(out, dtype=float).reshape(count, L, L, L)


def reduced_rows(D):
    """Each relay's reduced coordinate rows (N, L, L, L), as coefficient
    selection computes them from the metrics D (N, L, L, L): the Gauss
    reduction at L = 2, LLL otherwise."""
    N, L = D.shape[:2]
    flat = D.reshape(-1, L, L)
    if L == 2:
        T = np.stack(_lagrange2(flat[:, 0, 0], flat[:, 0, 1], flat[:, 1, 1]), axis=1)
    else:
        T = _lll_batched(np.linalg.cholesky(flat))[1]
    return T.reshape(N, L, L, L)


@pytest.mark.parametrize("L", [3, 4])
def test_select_A_matches_scalar_oracle_on_integer_metrics(L):
    # the masked lexicographic minimum must break exact metric ties and
    # choose among coinciding candidates as the scalar candidate sort and
    # rank-greedy walk do, for small and large gamma
    D = gram_stack_ints(L, 60, seed=L)
    cand = np.concatenate([reduced_rows(D), np.broadcast_to(np.eye(L, dtype=np.int64), D.shape)], axis=2)
    lead = np.take_along_axis(cand, np.argmax(cand != 0, axis=3)[..., None], axis=3)
    cand = cand * np.where(lead < 0, -1, 1)
    met = np.einsum("nmci,nmij,nmcj->nmc", cand, D, cand)
    i, j = np.triu_indices(2 * L, 1)
    distinct = np.any(cand[:, :, i] != cand[:, :, j], axis=3)
    # relays with an exact metric tie between distinct candidates, and
    # relays with a reduced row equal to a unit vector
    assert np.sum(np.any(distinct & (met[:, :, i] == met[:, :, j]), axis=2)) > 30
    assert np.sum(np.any(~distinct, axis=2)) > 30
    for gamma in (2, 3, 5, 257):
        want = np.stack([scalar_select_from_gram(Ds, gamma) for Ds in D])
        assert np.array_equal(_select_A(D, gamma), want)


@pytest.mark.parametrize("gamma", [2, 3])
def test_selected_rows_always_extend_the_rank(gamma):
    # the reduction transform is unimodular, so over a prime gamma its rows
    # span the whole space, as the unit vectors do: at every relay both
    # sets hold a row that extends the rank of the rows chosen before, so
    # selection cannot run out of candidates.  The rank mask must reject
    # the smallest candidate somewhere, and a unit vector that is none of
    # the reduced rows must be taken somewhere
    rng = np.random.default_rng(21)
    masked = unit_picks = 0
    for L in (1, 2, 3, 4):
        units = np.eye(L, dtype=np.int64)
        for _ in range(6):
            H = rng.normal(size=(L, L))
            p = 10 ** rng.uniform(-1.0, 3.0, size=(40, L))
            D = _gram(H, p)
            A = select_coefficients(H, p, gamma)
            for a, t, d in zip(A, reduced_rows(D), D):
                assert mat_rank(FieldMatrix(a, gamma)) == L

                def extends(row):
                    return mat_rank(FieldMatrix(np.vstack([a[:m], row]), gamma)) == m + 1

                for m in range(L):
                    assert any(map(extends, t[m])) and any(map(extends, units))
                    cand = np.vstack([t[m], units])
                    masked += not extends(cand[np.argmin(np.einsum("ci,ij,cj->c", cand, d[m], cand))])
                    unit_picks += np.sum(np.abs(a[m])) == 1 and not np.any(np.all(np.abs(t[m]) == np.abs(a[m]), axis=1))
    assert masked > 0 and unit_picks > 0


def test_metric2_matches_einsum_bitwise():
    for D in gram_stacks_L2():
        D = D.reshape(-1, 2, 2)
        u0, u1, v0, v1 = _lagrange2(D[:, 0, 0], D[:, 0, 1], D[:, 1, 1])
        ones, zeros = np.ones_like(u0), np.zeros_like(u0)
        cand = np.stack([np.stack(xy, axis=1) for xy in ((u0, u1), (-v0, -v1), (ones, zeros), (zeros, ones))], axis=1)
        met = np.stack([_metric2(cand[:, k, 0], cand[:, k, 1], D) for k in range(4)], axis=1)
        assert np.array_equal(met, np.einsum("nci,nij,ncj->nc", cand, D, cand))
        assert np.array_equal(met, np.stack([np.einsum("ci,ij,cj->c", c, d, c) for c, d in zip(cand, D)]))


def test_select_coefficients_L2_single_row_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        H = rng.normal(size=(2, 2))
        p = 10 ** rng.uniform(-1.0, 4.0, size=2)
        for gamma in (2, 257):
            A = select_coefficients(H, p, gamma)
            assert A.shape == (2, 2)
            assert np.array_equal(A, scalar_select_coefficients(H, p, gamma))


def test_L2_reduction_failure_is_explicit():
    # at 200 dB the Gram data has no precision left: the reduction must
    # raise, not cast NaN or infinite steps into garbage coefficients
    rng = np.random.default_rng(13)
    P = 1e20
    ch = ChannelInstance(rng.normal(size=(2, 2)), rng.normal(size=2), np.full(2, P), np.full(2, 0.25 * P))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ReductionError, match="reduction failed to converge"):
            evaluate_all(ch, OptimizerConfig())


def test_non_finite_metric_is_a_reduction_error():
    # 1e200 squared overflows the effective-noise metric to NaN, which no
    # reduction can order: at L = 3 the batched LLL would spin on the NaN
    # bases until its round guard
    H = np.array([[1e200, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    ch = ChannelInstance(H, np.ones(3), np.full(3, 100.0), np.full(3, 25.0))
    with pytest.raises(ReductionError, match="effective-noise metric is not finite"):
        evaluate_all(ch, OptimizerConfig(nBrute=2))


def brute_feasible_pairs(Q):
    L = Q.rows
    pi_c = tuple(range(1, L + 1))
    pi_s = tuple(range(1, L + 1))
    out = set()
    for pd in itertools.permutations(range(1, L + 1)):
        for pe in itertools.permutations(range(1, L + 1)):
            ok = all(
                mat_rank(residual_submatrix(Q, *residual_sets(pi_c, pd, j, "d"))) == j for j in range(1, L + 1)
            ) and all(
                mat_rank(residual_submatrix(Q, *residual_sets(pi_s, pe, i, "e"))) == L - i + 1
                for i in range(1, L + 1)
            )
            if ok:
                out.add((pd, pe))
    return out


def feasible_pairs(A, pi_c, pi_s, gamma):
    """Feasible (pi_d, pi_e) pairs of one A, as the grid evaluator finds them:
    the product of the feasible pi_d and the feasible pi_e."""
    L = len(A)
    perms = np.array(list(itertools.permutations(range(1, L + 1))))
    A = np.asarray(A)[None]
    feas_d = _feasible_perms(A, np.array([pi_c]), perms, gamma, "d")[0]
    feas_e = _feasible_perms(A, np.array([pi_s]), perms, gamma, "e")[0]
    return {(tuple(pd), tuple(pe)) for pd in perms[feas_d].tolist() for pe in perms[feas_e].tolist()}


def test_enumerate_matches_brute_force():
    A = np.array([[1, 1], [1, 0]])
    pi = (1, 2)
    assert feasible_pairs(A, pi, pi, 2) == brute_feasible_pairs(FieldMatrix(A, 2))
    assert ((1, 2), (1, 2)) in feasible_pairs(np.eye(2, dtype=np.int64), pi, pi, 3)


def test_feasible_pairs_nonempty_on_full_rank():
    rng = np.random.default_rng(4)
    for _ in range(100):
        gamma = int(rng.choice((2, 3, 257)))
        L = int(rng.integers(2, 5))
        while True:
            Q = FieldMatrix(rng.integers(0, gamma, size=(L, L)), gamma)
            if mat_rank(Q) == L:
                break
        pi_c = rng.permutation(L) + 1
        pi_s = rng.permutation(L) + 1
        assert feasible_pairs(Q.entries, pi_c, pi_s, gamma)


def test_minor_feasibility_matches_rank_checks():
    rng = np.random.default_rng(8)
    for gamma in (2, 3, 257):
        for L in (1, 2, 3, 4):
            perms = np.array(list(itertools.permutations(range(1, L + 1))))
            A = rng.integers(-3, 4, size=(30, L, L))
            pi = np.array([rng.permutation(L) + 1 for _ in range(30)])
            feas_d = _feasible_perms(A, pi, perms, gamma, "d")
            feas_e = _feasible_perms(A, pi, perms, gamma, "e")
            for k in range(30):
                Q = FieldMatrix(A[k], gamma)
                key = tuple(int(x) for x in pi[k])
                for i, perm in enumerate(perms.tolist()):
                    assert feas_d[k, i] == pi_d_is_feasible(Q, key, tuple(perm))
                    assert feas_e[k, i] == pi_e_is_feasible(Q, key, tuple(perm))


def test_level_masks_pack_the_residual_sets():
    # bit l-1 of the mask of iteration t is set when index l is in the
    # residual system of t
    for L in (1, 2, 3, 4):
        perms = np.array(list(itertools.permutations(range(1, L + 1))))
        pi_src, pi_rel = perms, perms[::-1][: len(perms) // 2 + 1]
        for kind in "de":
            sources, relays = _level_masks(pi_src, pi_rel, kind)
            assert sources.shape == (len(pi_src), L) and relays.shape == (len(pi_rel), L)
            for t in range(1, L + 1):
                for x in range(len(pi_src)):
                    mask = residual_sets(tuple(pi_src[x]), pi_rel[0], t, kind)[0]
                    assert sources[x, t - 1] == sum(1 << l for l in np.flatnonzero(mask))
                for x in range(len(pi_rel)):
                    mask = residual_sets(pi_src[0], tuple(pi_rel[x]), t, kind)[1]
                    assert relays[x, t - 1] == sum(1 << m for m in np.flatnonzero(mask))


def test_power_grid_shape():
    grid = _power_grid(8.0, 5)
    assert len(grid) == 5
    assert grid[-1] == 8.0
    assert np.all(grid > 8.0 / 5)
    assert np.all(np.diff(grid) > 0)
    assert _power_grid(8.0, 1).tolist() == [8.0]


def test_grid_rows_cap(monkeypatch):
    monkeypatch.setattr(optimizer, "_MAX_GRID_ROWS", 1000)
    cfg = OptimizerConfig(nBrute=100)
    rows = _grid_rows(np.full(3, 8.0), False, cfg)
    assert rows.shape[0] <= 1000
    assert rows.shape[1] == 3
    common = _grid_rows(np.full(3, 8.0), True, cfg)
    assert common.shape == (100, 3)
    assert np.all(common[:, 0] == common[:, 1])


@pytest.mark.parametrize("L,nBrute,draws", [(2, 8, 40), (3, 5, 8), (4, 3, 4)])
def test_batched_matches_scalar_oracle(L, nBrute, draws):
    # the grid evaluator must take the scalar per-row decisions at every L:
    # the same coefficients on every row (and, where LLL runs, the same
    # reduction transforms), and the same value, row and winning
    # permutations for every variant, ties broken in (row, pi_d, pi_e) order
    cfg = OptimizerConfig(nBrute=nBrute)
    rng = np.random.default_rng(5)
    for _ in range(draws):
        H = rng.normal(size=(L, L))
        g = rng.normal(size=L)
        P = 10 ** rng.uniform(0.0, 2.4)
        caps = 0.5 * np.log2(1.0 + g * g * 0.25 * P)
        for common in (True, False):
            rows = _grid_rows(np.full(L, P), common, cfg)
            fast = _Grid(H, caps, rows, cfg.gammaOpt)
            slow = ScalarRows(H, caps, rows, cfg.gammaOpt)
            assert np.array_equal(fast.A, np.stack([row["A"] for row in slow.rows]))
            if L > 2:
                _, T = _lll_batched(np.linalg.cholesky(_gram(H, rows).reshape(-1, L, L)))
                want = np.concatenate([relay_transforms(H, p) for p in rows])
                assert np.array_equal(T, want)
            for variant in ("symmetric", "srq", "srm", "srmq"):
                f = fast.evaluate(variant)
                s = slow.evaluate(variant)
                assert (f is None) == (s is None)
                if f is None:
                    continue
                assert f == s
                assert tuple(fast.pi_c[f[1]].tolist()) == slow.rows[s[1]]["pi_c"]
                assert tuple(fast.pi_s[f[1]].tolist()) == slow.rows[s[1]]["pi_s"]


def test_grid_blocks_bound_memory_and_keep_winners(monkeypatch):
    # blocks are sized to an element budget, not a row count: an L = 6 srm
    # bounds block holds 6! * 6 * 6 elements per row.  Block boundaries
    # must not move the winner.
    for L in range(1, 8):
        per_row = math.factorial(L) * L * L
        rows = optimizer._block_rows(per_row)
        assert rows == 1 or rows * per_row <= optimizer._BLOCK_ELEMS
    L = 6
    rng = np.random.default_rng(9)
    H = rng.normal(size=(L, L))
    caps = rng.uniform(2.0, 6.0, size=L)
    p = rng.uniform(1.0, 100.0, size=(120, L))
    ctx = _Grid(H, caps, p, 257)
    assert ctx.block < len(p)
    tracemalloc.start()
    try:
        ctx.evaluate("srm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # eight float64 temporaries of the budget
    assert peak < 8 * 8 * optimizer._BLOCK_ELEMS
    # two-row blocks and feasibility chunks of a few groups, then one block
    for budget in (1 << 16, 1 << 40):
        monkeypatch.setattr(optimizer, "_BLOCK_ELEMS", budget)
        other = _Grid(H, caps, p, 257)
        assert np.array_equal(other.A, ctx.A)
        for variant in ("symmetric", "srq", "srm"):
            assert other.evaluate(variant) == ctx.evaluate(variant)


@pytest.mark.parametrize("budget", [None, 1 << 10])
@pytest.mark.parametrize("L,nBrute,max_rows", [(2, 7, 30), (3, 5, 100), (4, 3, 50)])
def test_stacked_grid_slices_match_separate_grids(monkeypatch, L, nBrute, max_rows, budget):
    # evaluate_all stacks the per-source and common-power grids into one
    # _Grid.  Every per-row computation is row-independent, so each slice,
    # in either stacking order and whatever the block size, must give what
    # a _Grid built on its grid alone gives.  The mesh is shrunk below
    # nBrute^L, as in test_grid_rows_cap.
    monkeypatch.setattr(optimizer, "_MAX_GRID_ROWS", max_rows)
    if budget is not None:
        monkeypatch.setattr(optimizer, "_BLOCK_ELEMS", budget)
    cfg = OptimizerConfig(nBrute=nBrute)
    rng = np.random.default_rng(13)
    for _ in range(3):
        H = rng.normal(size=(L, L))
        P = 10 ** rng.uniform(0.5, 2.4, size=L)
        caps = rng.uniform(1.0, 6.0, size=L)
        alone = {common: _Grid(H, caps, _grid_rows(P, common, cfg), cfg.gammaOpt) for common in (True, False)}
        assert nBrute < len(alone[False].p) < nBrute**L
        for order in ((True, False), (False, True)):
            stacked = _Grid(H, caps, np.concatenate([alone[c].p for c in order]), cfg.gammaOpt)
            start = 0
            for ctx in (alone[c] for c in order):
                span = slice(start, start + len(ctx.p))
                assert np.array_equal(stacked.A[span], ctx.A)
                for variant in ("symmetric", "srq", "srm", "srmq"):
                    got = stacked.evaluate(variant, span)
                    want = ctx.evaluate(variant)
                    assert (got is None) == (want is None)
                    if want is None:
                        continue
                    assert got == (want[0], start + want[1], *want[2:])
                    for name in ("p", "A", "pi_c", "pi_s"):
                        assert np.array_equal(getattr(stacked, name)[got[1]], getattr(ctx, name)[want[1]])
                start = span.stop


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_bounds_match_direct_log_ratios(L):
    # _bounds reads the forwarding log-ratios from one (N, L, L) table per
    # grid; each bound must be bit for bit the one computed from the
    # ratios directly, for every pi_e and (srmq) every bijection sigma
    rng = np.random.default_rng(17 + L)
    p = rng.uniform(0.5, 200.0, size=(12, L))
    p[:3] = p[:3, :1]
    p[3:6, -1] = p[3:6, 0]
    caps = rng.uniform(1.0, 6.0, size=L)
    ctx = _Grid(rng.normal(size=(L, L)), caps, p, 257)
    ps = np.sort(p, axis=1)
    for variant in ("symmetric", "srm"):
        pe_pow = ps[:, None, -1:] if variant == "symmetric" else ps[:, ctx.perms - 1]
        off = 0.5 * np.log2(pe_pow[..., None] / p[:, None, None, :])
        want = np.min(np.where(ctx.mask[:, None], caps[None, None, :, None] - off, np.inf), axis=2)
        [(kd, got)] = ctx._bounds(variant, slice(None))
        assert kd is None and got.shape == want.shape and got.tobytes() == want.tobytes()
    pe_pow = ps[:, ctx.perms - 1]
    got = list(ctx._bounds("srmq", slice(None)))
    assert len(got) == len(ctx.perms)
    for sigma, (_, bounds) in zip(ctx.perms - 1, got):
        want = caps[sigma] - 0.5 * np.log2(pe_pow[:, :, sigma] / p[:, None, :])
        assert bounds.shape == want.shape and bounds.tobytes() == want.tobytes()


def test_evaluate_all_selects_once_per_draw(monkeypatch):
    # the five schemes share one grid: coefficient selection runs once,
    # over the 125 mesh rows and the 5 common-power rows together
    calls = []
    select = _Grid._select

    def counted(self, p):
        calls.append(len(p))
        return select(self, p)

    monkeypatch.setattr(_Grid, "_select", counted)
    cfg = OptimizerConfig(nBrute=5)
    rng = np.random.default_rng(21)
    ch = ChannelInstance(rng.normal(size=(3, 3)), rng.normal(size=3), np.full(3, 40.0), np.full(3, 10.0))
    assert list(evaluate_all(ch, cfg)) == list(optimizer.SCHEMES)
    assert calls == [125 + 5]


@pytest.mark.parametrize("L,nBrute", [(2, 10), (3, 10), (4, 6)])
def test_reported_rates_match_search_value(L, nBrute):
    # the winner is rebuilt as a full assignment and its rates recomputed
    # analytically; the rebuilt sum rate must equal the searched value
    cfg = OptimizerConfig(nBrute=nBrute)
    rng = np.random.default_rng(6)
    for _ in range(8):
        H = rng.normal(size=(L, L))
        g = rng.normal(size=L)
        ch = ChannelInstance(H, g, np.full(L, 50.0), np.full(L, 12.5))
        caps = np.asarray(second_hop_region(ch.g, ch.P_R).perRelayCapacity)
        # evaluate_all's grid: the per-source mesh, then the common-power
        # rows, which alone are searched by the common-power schemes
        common = _grid_rows(ch.P, True, cfg)
        ctx = _Grid(ch.H, caps, np.concatenate([_grid_rows(ch.P, False, cfg), common]), cfg.gammaOpt)
        for scheme, (_, report) in evaluate_all(ch, cfg).items():
            variant, common_only = _SCHEME_ROWS[scheme]
            picked = ctx.evaluate(variant, slice(-len(common), None) if common_only else slice(None))
            assert abs(picked[0] - report.sumRate) <= 1e-9


@pytest.mark.parametrize("L,nBrute,draws", [(2, 20, 30), (3, 5, 20), (4, 3, 10)])
def test_winners_recover_exactly(L, nBrute, draws):
    # each acf-m / acf-mq winner is an assignment its own recovery runs on:
    # random messages encoded on its chain come back bit for bit from the
    # relay outputs (srm: each combination modulo its relay's lattice;
    # srmq: the compressed combinations)
    cfg = OptimizerConfig(nBrute=nBrute)
    rng = np.random.default_rng(31 + L)
    for _ in range(draws):
        P = np.full(L, 10 ** rng.uniform(1.0, 2.4))
        ch = ChannelInstance(rng.normal(size=(L, L)), rng.normal(size=L), P, 0.25 * P)
        for scheme, (asg, _) in evaluate_all(ch, cfg, ("acf-m", "acf-mq")).items():
            assert asg is not None
            t = encode_all(random_messages(rng, asg, 8), asg)
            combos = [relay_combination(t, m, asg) for m in range(1, L + 1)]
            if scheme == "acf-m":
                got = srm([mod_level(c, asg.modulo_level_of(m)) for m, c in enumerate(combos, 1)], None, asg)
            else:
                got = srmq([compress(c, m, asg) for m, c in enumerate(combos, 1)], None, asg)
            assert got == t


def test_scheme_dominance_random_draws():
    cfg = OptimizerConfig(nBrute=10)
    rng = np.random.default_rng(7)
    for _ in range(60):
        H = rng.normal(size=(2, 2))
        g = rng.normal(size=2)
        P = 10 ** rng.uniform(0.0, 2.0)
        ch = ChannelInstance(H, g, np.full(2, P), np.full(2, 0.25 * P))
        res = {s: rep.sumRate for s, (_, rep) in evaluate_all(ch, cfg).items()}
        tol = 1e-9
        assert res["scf"] <= res["scf-q"] + tol
        assert res["scf"] <= res["acf"] + tol
        assert res["acf"] <= res["acf-m"] + tol
        assert res["acf-m"] <= res["acf-mq"] + tol


@pytest.mark.parametrize(
    "budgets,L,nBrute,draws,max_rows,seed",
    [
        ("unequal", 2, 20, 30, None, 43),
        ("unequal", 3, 5, 20, None, 44),
        ("unequal", 4, 3, 10, None, 45),
        # the mesh axis (10) is shorter than nBrute (20)
        ("equal", 3, 20, 12, 1000, 46),
    ],
)
def test_scheme_dominance_over_common_power_rows(monkeypatch, budgets, L, nBrute, draws, max_rows, seed):
    # the acf schemes may send at any p_l <= P_l, a set that holds scf's
    # common power, also when the per-source mesh does not hold those rows
    # (unequal budgets, or a mesh axis cut below nBrute).  By construction:
    # scf <= acf (the same variant on more rows), acf <= acf-m (srm's
    # offsets never exceed the symmetric ones) and scf-q <= acf-mq (on a
    # common-power row srmq is srq plus some feasible pi_e)
    if max_rows is not None:
        monkeypatch.setattr(optimizer, "_MAX_GRID_ROWS", max_rows)
    cfg = OptimizerConfig(nBrute=nBrute)
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        P = 10 ** rng.uniform(0.5, 2.4, size=L if budgets == "unequal" else 1) * np.ones(L)
        ch = ChannelInstance(rng.normal(size=(L, L)), rng.normal(size=L), P, np.full(L, np.mean(P) / 4))
        results = evaluate_all(ch, cfg)
        assert all(asg is not None for asg, _ in results.values())
        res = {s: rep.sumRate for s, (_, rep) in results.items()}
        tol = 1e-9
        assert res["scf"] <= res["acf"] + tol
        assert res["acf"] <= res["acf-m"] + tol
        assert res["scf-q"] <= res["acf-mq"] + tol


def test_determinism():
    cfg = OptimizerConfig(nBrute=12)
    ch = ChannelInstance(
        np.array([[0.4, -1.2], [0.8, 0.3]]), np.array([1.1, -0.7]), np.full(2, 30.0), np.full(2, 7.5)
    )
    a = {s: rep.sumRate for s, (_, rep) in evaluate_all(ch, cfg).items()}
    b = {s: rep.sumRate for s, (_, rep) in evaluate_all(ch, cfg).items()}
    assert a == b


def test_evaluate_all_scheme_subset():
    cfg = OptimizerConfig(nBrute=10)
    ch = ChannelInstance(
        np.array([[0.9, 0.2], [-0.5, 1.4]]), np.array([0.8, 1.3]), np.full(2, 20.0), np.full(2, 5.0)
    )
    results = evaluate_all(ch, cfg, ("acf-mq",))
    assert list(results) == ["acf-mq"]
    asg, report = results["acf-mq"]
    assert report.sumRate == evaluate_all(ch, cfg)["acf-mq"][1].sumRate
    assert mat_rank(asg.field_image) == 2
    with pytest.raises(ConfigError):
        evaluate_all(ch, cfg, ("bogus",))


def test_evaluate_all_rejects_L_whose_row_of_bounds_exceeds_a_block(monkeypatch):
    # a block holds at least one row, whose srm bounds hold L! * L * L
    # elements: 246,960 at L = 7, within the budget, and 2,580,480 at L = 8
    def no_grid(*args):
        raise AssertionError("an evaluator was built")

    def channel(L):
        return ChannelInstance(np.eye(L), np.ones(L), np.full(L, 10.0), np.full(L, 2.5))

    monkeypatch.setattr(optimizer, "_Grid", no_grid)
    cfg = OptimizerConfig(nBrute=1)
    with pytest.raises(AssertionError, match="an evaluator was built"):
        evaluate_all(channel(7), cfg)
    with pytest.raises(ConfigError, match="L <= 7"):
        evaluate_all(channel(8), cfg)


def test_evaluate_all_checks_schemes_before_any_work(monkeypatch):
    cfg = OptimizerConfig(nBrute=10)
    ch = ChannelInstance(
        np.array([[0.9, 0.2], [-0.5, 1.4]]), np.array([0.8, 1.3]), np.full(2, 20.0), np.full(2, 5.0)
    )
    assert evaluate_all(ch, cfg, ()) == {}

    def no_work(*args):
        raise AssertionError("a power grid was built before the scheme check")

    monkeypatch.setattr(optimizer, "_grid_rows", no_work)
    with pytest.raises(ConfigError, match="scheme 'scf' listed twice"):
        evaluate_all(ch, cfg, ("scf", "acf", "scf"))
    with pytest.raises(ConfigError, match="unknown scheme 'bogus'"):
        evaluate_all(ch, cfg, ("scf", "bogus"))
