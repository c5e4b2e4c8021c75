import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccfrelay.errors import NotFullRankError, SingularMatrixError
from ccfrelay.galois import (
    FieldMatrix,
    feasible_pi_d,
    feasible_pi_e,
    is_permutation,
    mat_inverse,
    mat_rank,
    perm_inverse,
    residual_sets,
    residual_submatrix,
)

PRIMES = (2, 3, 5, 7)


def brute_rank(entries, gamma):
    """Rank oracle: largest k with a k x k submatrix of nonzero determinant,
    determinant computed exactly by cofactor expansion mod gamma."""

    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0] % gamma
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
        return total % gamma

    ent = [[int(x) for x in row] for row in entries]
    rows, cols = len(ent), len(ent[0])
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[ent[r][c] for c in ci] for r in ri]
                if det(sub) != 0:
                    return k
    return 0


def random_matrix(rng, rows, cols, gamma):
    return FieldMatrix(rng.integers(-gamma, gamma + 1, size=(rows, cols)), gamma)


def test_matrix_rejects_nonprime_modulus():
    with pytest.raises(ValueError):
        FieldMatrix(np.eye(2, dtype=np.int64), 6)


def test_rank_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(120):
        gamma = int(rng.choice(PRIMES))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        M = random_matrix(rng, rows, cols, gamma)
        assert mat_rank(M) == brute_rank(M.entries.tolist(), gamma)


def test_inverse_roundtrip_and_singular_detection():
    rng = np.random.default_rng(8)
    for _ in range(150):
        gamma = int(rng.choice(PRIMES))
        L = int(rng.integers(1, 5))
        M = random_matrix(rng, L, L, gamma)
        if mat_rank(M) == L:
            inv = mat_inverse(M)
            assert np.array_equal((inv.entries @ M.entries) % gamma, np.eye(L, dtype=np.int64))
            assert np.array_equal((M.entries @ inv.entries) % gamma, np.eye(L, dtype=np.int64))
        else:
            with pytest.raises(SingularMatrixError):
                mat_inverse(M)


def cofactor_inverse(entries, gamma):
    """Inverse oracle: adjugate over determinant mod gamma, or None when
    the determinant is zero; determinants by cofactor expansion."""

    def det(mat):
        if not mat:
            return 1
        return sum((-1) ** j * mat[0][j] * det([row[:j] + row[j + 1 :] for row in mat[1:]]) for j in range(len(mat)))

    def minor(i, j):
        return [row[:j] + row[j + 1 :] for k, row in enumerate(ent) if k != i]

    ent = [[int(x) for x in row] for row in entries]
    n = len(ent)
    d = det(ent) % gamma
    if d == 0:
        return None
    d_inv = pow(d, -1, gamma)
    return [[(-1) ** (i + j) * det(minor(j, i)) * d_inv % gamma for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("gamma", (2, 3, 7, 257, 65521, 2147483647))
def test_rank_and_inverse_match_the_scalar_oracles(gamma):
    # every third matrix repeats a combination of two rows, so singular
    # matrices occur at every size and modulus
    rng = np.random.default_rng(gamma)
    singular = 0
    for case in range(60):
        rows, cols = (int(v) for v in rng.integers(1, 5, size=2))
        if case % 2:
            cols = rows
        entries = rng.integers(-gamma, gamma + 1, size=(rows, cols))
        if case % 3 == 0 and rows > 2:
            c1, c2 = (int(v) for v in rng.integers(0, gamma, size=2))
            entries[-1] = (c1 * entries[0] + c2 * (entries[1] % gamma)) % gamma
        M = FieldMatrix(entries, gamma)
        assert mat_rank(M) == brute_rank(M.entries.tolist(), gamma)
        if rows != cols:
            continue
        want = cofactor_inverse(M.entries.tolist(), gamma)
        if want is None:
            singular += 1
            with pytest.raises(SingularMatrixError):
                mat_inverse(M)
        else:
            assert mat_inverse(M).entries.tolist() == want
    assert singular > 0


def test_matrix_rejects_non_integer_entries():
    for entries in ([[1.5, 2], [0, 1]], [[np.nan, 0], [0, 1]], [[1e19, 0], [0, 1]], [[2**70, 0], [0, 1]]):
        with pytest.raises(ValueError):
            FieldMatrix(entries, 3)
    assert FieldMatrix([[4.0, 2], [0, -1]], 3) == FieldMatrix(np.array([[1, 2], [0, 2]], dtype=np.int8), 3)


def test_residual_submatrix_indexing():
    M = FieldMatrix(np.arange(9).reshape(3, 3), 11)
    sub = residual_submatrix(M, sources=np.array([True, False, True]), relays=np.array([False, True, True]))
    # rows pick relays, columns pick sources, both ascending
    assert np.array_equal(sub.entries, np.array([[3, 5], [6, 8]]))


def test_permutation_helpers():
    assert is_permutation((2, 3, 1), 3)
    assert not is_permutation((1, 1, 2), 3)
    assert perm_inverse((2, 3, 1)) == (3, 1, 2)


def test_index_sets_definition():
    sources, relays = residual_sets((2, 1, 3), (3, 1, 2), 2, "d")
    assert sources.tolist() == [True, True, False]
    assert relays.tolist() == [False, True, True]
    sources, relays = residual_sets((1, 3, 2), (2, 1, 3), 2, "e")
    assert sources.tolist() == [False, True, True]
    assert relays.tolist() == [True, False, True]
    # iteration t of quantization takes the indices labelled <= t, of
    # modulo those labelled >= t, for every labelling
    for L in range(1, 5):
        perms = list(itertools.permutations(range(1, L + 1)))
        for pi_src, pi_rel, t in itertools.product(perms, perms, range(1, L + 1)):
            for kind, inside in (("d", lambda label: label <= t), ("e", lambda label: label >= t)):
                sources, relays = residual_sets(pi_src, pi_rel, t, kind)
                assert set(np.flatnonzero(sources) + 1) == {l for l in range(1, L + 1) if inside(pi_src[l - 1])}
                assert set(np.flatnonzero(relays) + 1) == {m for m in range(1, L + 1) if inside(pi_rel[m - 1])}


def brute_feasible_pi_d(Q, pi_c):
    L = Q.rows
    for pd in itertools.permutations(range(1, L + 1)):
        if all(
            mat_rank(residual_submatrix(Q, *residual_sets(pi_c, pd, j, "d"))) == j for j in range(1, L + 1)
        ):
            yield pd


def test_greedy_constructors_produce_feasible_permutations():
    rng = np.random.default_rng(10)
    for _ in range(200):
        gamma = int(rng.choice(PRIMES))
        L = int(rng.integers(2, 5))
        while True:
            Q = random_matrix(rng, L, L, gamma)
            if mat_rank(Q) == L:
                break
        pi_c = tuple(int(x) for x in rng.permutation(L) + 1)
        pi_s = tuple(int(x) for x in rng.permutation(L) + 1)
        pd = feasible_pi_d(Q, pi_c)
        pe = feasible_pi_e(Q, pi_s)
        assert is_permutation(pd, L) and is_permutation(pe, L)
        for j in range(1, L + 1):
            assert mat_rank(residual_submatrix(Q, *residual_sets(pi_c, pd, j, "d"))) == j
        for i in range(1, L + 1):
            assert mat_rank(residual_submatrix(Q, *residual_sets(pi_s, pe, i, "e"))) == L - i + 1


def test_greedy_pi_d_is_in_brute_force_feasible_set():
    rng = np.random.default_rng(11)
    for _ in range(40):
        gamma = int(rng.choice((2, 3)))
        L = 3
        while True:
            Q = random_matrix(rng, L, L, gamma)
            if mat_rank(Q) == L:
                break
        pi_c = tuple(int(x) for x in rng.permutation(L) + 1)
        assert feasible_pi_d(Q, pi_c) in set(brute_feasible_pi_d(Q, pi_c))


def rank_greedy(Q, column_order, labels):
    """Reference for the permutation constructors, by rank computations:
    after each column deletion, delete the first active relay row whose
    removal keeps the residual submatrix full rank, and give it the next
    label; the survivor gets the last label."""
    L = Q.rows
    if mat_rank(Q) < L:
        raise NotFullRankError("coefficient matrix is singular over F_gamma")
    active_rel = np.ones(L, dtype=bool)
    active_src = np.ones(L, dtype=bool)
    assignment = [0] * L
    for col, label in zip(column_order, labels[:-1]):
        active_src[col - 1] = False
        for cand in np.flatnonzero(active_rel):
            trial = active_rel.copy()
            trial[cand] = False
            if mat_rank(residual_submatrix(Q, active_src, trial)) == np.count_nonzero(active_src):
                break
        assignment[cand] = label
        active_rel[cand] = False
    assignment[np.flatnonzero(active_rel)[0]] = labels[-1]
    return tuple(assignment)


def rank_greedy_pi_d(Q, pi_c):
    # delete the sources coded coarsest first, labelling relays L down to 1
    L = Q.rows
    inv = perm_inverse(pi_c)
    return rank_greedy(Q, [inv[j - 1] for j in range(L, 1, -1)], list(range(L, 0, -1)))


def rank_greedy_pi_e(Q, pi_s):
    # delete the sources shaped finest first, labelling relays 1 up to L
    L = Q.rows
    inv = perm_inverse(pi_s)
    return rank_greedy(Q, [inv[i - 1] for i in range(1, L)], list(range(1, L + 1)))


@pytest.mark.parametrize("gamma", (2, 3, 5, 257))
def test_constructors_match_the_rank_greedy(gamma):
    # the constructors read the nonsingular-minors table; they must make the
    # rank greedy's choice, or raise where it raises.  Every third matrix
    # repeats a row scaled, so singular ones occur at every L and gamma.
    rng = np.random.default_rng(gamma)
    forced = singular = 0
    for L in range(1, 6):
        for case in range(100):
            entries = rng.integers(-gamma, gamma + 1, size=(L, L))
            if case % 3 == 0 and L > 1:
                entries[-1] = int(rng.integers(0, gamma)) * entries[0]
                forced += 1
            Q = FieldMatrix(entries, gamma)
            singular += mat_rank(Q) < L
            pi = tuple(int(x) for x in rng.permutation(L) + 1)
            for construct, reference in ((feasible_pi_d, rank_greedy_pi_d), (feasible_pi_e, rank_greedy_pi_e)):
                try:
                    want = reference(Q, pi)
                except NotFullRankError:
                    with pytest.raises(NotFullRankError):
                        construct(Q, pi)
                    continue
                assert construct(Q, pi) == want
    assert singular >= forced


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.sampled_from(PRIMES),
)
@settings(max_examples=100, deadline=None)
def test_scalar_canonicalization(value, gamma):
    s = int(FieldMatrix([[value]], gamma).entries[0, 0])
    assert 0 <= s < gamma
    assert (s - value) % gamma == 0


@given(st.integers(min_value=2, max_value=60))
@settings(max_examples=60, deadline=None)
def test_modulus_primality_enforced(gamma):
    is_prime = gamma >= 2 and all(gamma % d for d in range(2, int(gamma**0.5) + 1))
    if is_prime:
        FieldMatrix([[0]], gamma)
    else:
        with pytest.raises(ValueError):
            FieldMatrix([[0]], gamma)
