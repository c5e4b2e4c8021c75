"""Sum-rate maximization over coefficients, permutations and powers.

The outer search discretizes the per-source powers on a geometric grid,
selects integer combination coefficients through lattice reduction in the
effective-noise metric, enumerates feasible permutation assignments, and
solves the inner rate maximization in closed form.  Five scheme variants
restrict the search space:

- scf:    common power, symmetric modulo, trivial quantization
- scf-q:  scf plus a searched quantization permutation
- acf:    per-source powers, symmetric modulo, trivial quantization
- acf-m:  acf plus a searched modulo permutation
- acf-mq: acf plus searched quantization and modulo permutations

One evaluator, ``_Grid``, runs the search of a channel draw at every size
over one power grid, the per-source mesh followed by the common-power
rows; scf and scf-q search only the common-power rows, and the acf
schemes every row, since p_l <= P_l admits a common power.  Its
constructor builds each per-row table once: coefficients and rates, the
forwarding log-ratios, and permutation feasibility (once per distinct
coefficient matrix and ordering; the feasible pi_d are indexed by
sigma, the relay that forwards each source); the variant bounds then run in blocks of
rows.  The tables and the metrics of coefficient selection keep the row
axis last: their other axes hold 2 to L! entries, so each numpy operation
then runs one long contiguous loop per slice rather than one short loop
per row.  Only coefficient selection depends on L.  Each relay takes its
smallest candidate row (reduced basis rows and unit vectors) in (metric,
coordinates) that extends the rank over F_gamma: on (N,) columns after
the exact two-dimensional reduction at L = 2, and on (N, 2L) arrays after
a batched LLL otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotFullRankError, ReductionError
from .galois import (
    FieldMatrix,
    _check_prime,
    mat_rank,
    nonsingular_minors,
    residual_sets,
    residual_submatrix,
)
from .lattice import make_chain_spec
from .pipeline import ChannelInstance, SchemeAssignment, mmse_denominator
from .rates import (
    _fold,
    computation_rate,
    max_rates_given_structure,
    second_hop_region,
)

# scheme -> (rate variant, whether it searches only the common-power rows)
_SCHEME_ROWS = {
    "scf": ("symmetric", True),
    "scf-q": ("srq", True),
    "acf": ("symmetric", False),
    "acf-m": ("srm", False),
    "acf-mq": ("srmq", False),
}
SCHEMES = tuple(_SCHEME_ROWS)

# Array elements per block of the batched evaluator.  The largest
# temporaries hold 2 L^3 elements per grid row in coefficient selection
# (candidate rows of every relay), L! * L * L in the bounds (the limits of
# every pi_e, relay and source) and 4^L + L! * L * L per distinct (A, pi)
# in the feasibility (minors, and the residual relays of every iteration
# for every permutation's relay labels), so blocks take as many rows as
# fit this budget: about 8 MiB per float temporary, whatever the mesh size.
# A block holds at least one row, so evaluate_all rejects the L whose one
# row of bounds exceeds the budget (L! * L * L > _BLOCK_ELEMS, L >= 8).
_BLOCK_ELEMS = 1 << 20


def _block_rows(per_row: int) -> int:
    """Rows per block when each row needs ``per_row`` elements."""
    return max(1, _BLOCK_ELEMS // per_row)


# Lovasz parameter of every LLL reduction, and the slack of the checks of its output
_LLL_DELTA, _LLL_TOL = 0.75, 1e-9
# per-source meshes shrink their axis length until they hold at most this many rows
_MAX_GRID_ROWS = 200_000


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the outer search: power grid points per source and the
    prime field of coefficient selection."""

    nBrute: int = 100
    gammaOpt: int = 257

    def __post_init__(self):
        # bool is an int subclass: True would pass as nBrute = 1
        if not isinstance(self.nBrute, (int, np.integer)) or isinstance(self.nBrute, bool) or self.nBrute < 1:
            raise ConfigError(f"nBrute must be an integer >= 1, got {self.nBrute!r}")
        try:
            _check_prime(self.gammaOpt)
        except ValueError as exc:
            raise ConfigError(f"gammaOpt: {exc}") from None


def _gram(H, p_rows) -> tuple:
    """Effective-noise metrics of every relay at every grid row, and their
    denominators.

    H: (L_relays, L) channel rows; p_rows: (N, L) powers.  Returns the
    metrics (L_relays, L, L, N), rows last, with the operation order of the
    scalar closed form (``np.vecdot`` is the same dot kernel as ``@`` on
    vectors), and their denominators (L_relays, N), ``mmse_denominator``
    of each relay's row at every grid row.  Raises ReductionError when
    an entry is not finite (the products overflowed), since neither
    reduction can order such metrics."""
    p_t = np.ascontiguousarray(p_rows.T)
    with np.errstate(over="ignore", invalid="ignore"):
        # each relay's row dotted with its powered rows, rows first: the
        # same kernel, and bits, as the scalar form
        denom = mmse_denominator(H[:, None, :], p_rows)
        ph = H[:, :, None] * p_t
        # diag(p) - ph ph^T / denom, computed in one buffer
        D = ph[:, :, None] * ph[:, None, :]
        D /= denom[:, None, None]
        np.subtract(p_t[:, None, :] * np.eye(H.shape[1])[..., None], D, out=D)
    if not np.all(np.isfinite(D)):
        raise ReductionError("the effective-noise metric is not finite: the channel and powers overflow")
    return D, denom


def _gso(B: np.ndarray):
    """Gram-Schmidt data of a stack of bases (M, n, d): squared norms of the
    orthogonalized rows (M, n) and the lower-triangular projection
    coefficients (M, n, n)."""
    M, n, _ = B.shape
    mu = np.broadcast_to(np.eye(n), (M, n, n)).copy()
    star = np.empty_like(B)
    norms2 = np.empty((M, n))
    for i in range(n):
        s = B[:, i]
        for j in range(i):
            mu[:, i, j] = np.vecdot(B[:, i], star[:, j]) / norms2[:, j]
            s = s - mu[:, i, j, None] * star[:, j]
        star[:, i] = s
        norms2[:, i] = np.vecdot(s, s)
    return norms2, mu


def is_size_reduced(B) -> bool:
    _, mu = _gso(np.asarray(B, dtype=float)[None])
    return bool(np.all(np.abs(np.tril(mu[0], -1)) <= 0.5 + _LLL_TOL))


def satisfies_lovasz(B) -> bool:
    norms2, mu = _gso(np.asarray(B, dtype=float)[None])
    slack = _LLL_TOL * max(1.0, float(np.max(norms2)))
    bound = (_LLL_DELTA - np.float_power(np.diagonal(mu[0], -1), 2)) * norms2[0, :-1] - slack
    return bool(np.all(norms2[0, 1:] >= bound))


def is_unimodular(T) -> bool:
    T = np.asarray(T)
    if not np.issubdtype(T.dtype, np.integer):
        return False
    return abs(round(float(np.linalg.det(T.astype(float))))) == 1


_LLL_GUARD = 100000


def _lll_batched(B):
    """Lovasz-reduce the rows of every basis in a stack (M, n, d).

    Each basis takes the steps of the textbook loop: size reduction of row
    k against rows k-1 down to 0 with half-to-even rounding and a full
    Gram-Schmidt recompute after every nonzero step, then the Lovasz test
    on row k, and either k + 1 or a swap with k = max(k - 1, 1).  Each pass
    runs one whole size reduction and one test on every unfinished basis,
    so the guard counts passes.  Returns (reduced, transform) stacks."""
    B = np.array(B, dtype=float)
    M, n, _ = B.shape
    T = np.broadcast_to(np.eye(n, dtype=np.int64), (M, n, n)).copy()
    k = np.ones(M, dtype=np.intp)
    norms2, mu = _gso(B)
    for passes in itertools.count():
        active = np.flatnonzero(k < n)
        if not active.size:
            return B, T
        if passes == _LLL_GUARD:
            raise ReductionError("LLL reduction failed to converge")
        for j in range(n - 2, -1, -1):
            size = active[k[active] > j]
            q = np.rint(mu[size, k[size], j])
            t, q = size[q != 0], q[q != 0]
            if t.size:
                B[t, k[t]] -= q[:, None] * B[t, j]
                T[t, k[t]] -= q.astype(np.int64)[:, None] * T[t, j]
                norms2[t], mu[t] = _gso(B[t])
        kl = k[active]
        # np.float_power is libm pow, as `**` on a numpy scalar; the
        # square x * x can differ from it in the last bit
        ok = norms2[active, kl] >= (_LLL_DELTA - np.float_power(mu[active, kl, kl - 1], 2)) * norms2[active, kl - 1]
        k[active[ok]] += 1
        sw, ks = active[~ok], kl[~ok]
        if sw.size:
            B[sw, ks - 1], B[sw, ks] = B[sw, ks], B[sw, ks - 1]
            T[sw, ks - 1], T[sw, ks] = T[sw, ks], T[sw, ks - 1]
            k[sw] = np.maximum(ks - 1, 1)
            norms2[sw], mu[sw] = _gso(B[sw])


def lll_reduce(basis):
    """Lovasz-reduce the rows of ``basis``.

    Returns (reduced, transform) with reduced = transform @ basis and an
    integer transform of determinant +-1.  Raises ValueError unless the
    basis is a 2-D array of finite entries."""
    B = np.array(basis, dtype=float)
    if B.ndim != 2:
        raise ValueError(f"basis must be a 2-D array of rows, got {B.ndim} dimensions")
    if not np.all(np.isfinite(B)):
        raise ValueError("basis entries must be finite")
    n = B.shape[0]
    if B.shape[1] < n or np.linalg.matrix_rank(B) < n:
        raise NotFullRankError("basis rows are linearly dependent")
    B, T = _lll_batched(B[None])
    return B[0], T[0]


def _lagrange2(a, b, c):
    """Batched two-dimensional (Gauss) reduction on Gram data (g11, g12,
    g22): the reduced integer coordinate rows, shorter first, as columns
    (u0, u1, v0, v1).  Raises when a step leaves the int64 range (the Gram
    data has lost its precision) or 64 passes do not converge."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    for _ in range(64):
        swap = c < a
        u0, u1, v0, v1 = (np.where(swap, s, t) for s, t in ((v0, u0), (v1, u1), (u0, v0), (u1, v1)))
        a, c = np.where(swap, c, a), np.where(swap, a, c)
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.rint(b / np.where(a > 0, a, 1.0))
        step = r != 0
        if not np.all(np.abs(r) < 2.0**63) or not np.any(step):
            break
        ri = r.astype(np.int64)
        v0, v1 = v0 - ri * u0, v1 - ri * u1
        c = np.where(step, c + (r * r * a - 2.0 * r * b), c)
        b = np.where(step, b - r * a, b)
    if np.any(step):
        raise ReductionError("two-dimensional reduction failed to converge")
    return u0, u1, v0, v1


def _metric2(x, y, D):
    """Metric of the rows (x, y) under D (2, 2, N), summed in the order of
    ``np.einsum("nci,nij,ncj->nc")``."""
    x, y = x.astype(float), y.astype(float)
    return ((x * D[0, 0] * x + x * D[0, 1] * y) + y * D[1, 0] * x) + y * D[1, 1] * y


def _pick2(D, ok):
    """Columns (x, y) of one relay's smallest candidate row at L = 2 that
    ``ok(x, y)`` admits, lexicographically in (metric, x, y), the first one
    winning exact ties.  The candidates are the two reduced rows of D
    (2, 2, N) and the unit vectors, sign-normalized; ``ok`` admits one of
    the unit vectors on every row."""
    u0, u1, v0, v1 = _lagrange2(D[0, 0], D[0, 1], D[1, 1])
    candidates = []
    for xk, yk in ((u0, u1), (v0, v1)):
        sign = np.where(np.where(xk != 0, xk, yk) < 0, -1, 1)
        xk, yk = sign * xk, sign * yk
        candidates.append((xk, yk, _metric2(xk, yk, D)))
    # a unit vector's metric is its diagonal entry: the other terms of
    # _metric2 are +-0, as _gram's D is finite
    candidates += [(1, 0, D[0, 0]), (0, 1, D[1, 1])]
    x, y, met = 0, 0, np.inf
    for xk, yk, mk in candidates:
        take = ok(xk, yk) & ((mk < met) | ((mk == met) & ((xk < x) | ((xk == x) & (yk < y)))))
        x, y, met = np.where(take, xk, x), np.where(take, yk, y), np.where(take, mk, met)
    return x, y


def _nonzero_mod(v, gamma: int):
    """``v % gamma != 0`` for integers v, by a floor division, which numpy
    runs several times faster than the remainder on int64 arrays.  Exact
    for every int64: where ``v // gamma * gamma`` wraps, v is no multiple
    of gamma and the wrapped product still differs from it."""
    return v // gamma * gamma != v


def _select_A2(D: np.ndarray, gamma: int) -> np.ndarray:
    """Batched coefficient selection at L = 2.

    ``D`` has shape (2, 2, 2, N), indexed by relay, rows last, as _gram
    returns it.  Relay 1 takes its smallest candidate nonzero modulo gamma,
    relay 2 its smallest one independent of relay 1's modulo gamma.
    Returns the integer matrices (N, 2, 2)."""
    x1, y1 = _pick2(D[0], lambda x, y: _nonzero_mod(x, gamma) | _nonzero_mod(y, gamma))
    x2, y2 = _pick2(D[1], lambda x, y: _nonzero_mod(x1 * y - y1 * x, gamma))
    return np.stack([x1, y1, x2, y2], axis=1).reshape(-1, 2, 2)


def _select_A(D: np.ndarray, gamma: int) -> np.ndarray:
    """Batched coefficient selection for any L.

    ``D`` has shape (L, L, L, N), indexed by relay, rows last, as _gram
    returns it.  Each relay's candidates are the rows of its reduced
    Cholesky basis and the unit vectors, sign-normalized; relay by relay,
    the smallest of them in (metric, coordinates) outside the span of the
    rows already chosen (modulo gamma) is taken, the first one winning
    exact ties.  Over a prime gamma a unit vector always qualifies.
    Returns the integer matrices (N, L, L)."""
    L, N = D.shape[0], D.shape[-1]
    # the Cholesky factorization and LLL run row by row: rows first
    flat = np.moveaxis(D, -1, 0).reshape(N * L, L, L)
    _, T = _lll_batched(np.linalg.cholesky(flat))
    cand = np.concatenate([T, np.broadcast_to(np.eye(L, dtype=np.int64), T.shape)], axis=1)
    lead = np.take_along_axis(cand, np.argmax(cand != 0, axis=2)[..., None], axis=2)
    cand = cand * np.where(lead < 0, -1, 1)
    met = np.einsum("nci,nij,ncj->nc", cand, flat, cand).reshape(N, L, 2 * L)
    cand = cand.reshape(N, L, 2 * L, L)
    rows = np.arange(N)
    A = np.empty((N, L, L), dtype=np.int64)
    # echelon rows of the chosen rows mod gamma: basis[:, i] is zero at the
    # pivots of the other rows and nonzero at its own pivot pivots[:, i]
    basis = np.zeros((N, L, L), dtype=np.int64)
    pivots = np.zeros((N, L), dtype=np.intp)
    for m in range(L):
        res = cand[:, m] % gamma
        for i in range(m):
            b = basis[:, i, None, :]
            lead = np.take_along_axis(b, pivots[:, i, None, None], axis=2)
            res = (res * lead - res[rows, :, pivots[:, i]][..., None] * b) % gamma
        # masked lexicographic minimum in (metric, coordinates)
        keep = np.any(res != 0, axis=2)
        keep &= met[:, m] == np.min(np.where(keep, met[:, m], np.inf), axis=1, keepdims=True)
        for c in np.moveaxis(cand[:, m], 2, 0):
            keep &= c == np.min(np.where(keep, c, np.iinfo(c.dtype).max), axis=1, keepdims=True)
        pick = np.argmax(keep, axis=1)
        A[:, m] = cand[rows, m, pick]
        w = res[rows, pick]
        pv = np.argmax(w != 0, axis=1)
        for i in range(m):
            basis[:, i] = (basis[:, i] * w[rows, pv, None] - basis[rows, i, pv, None] * w) % gamma
        basis[:, m] = w
        pivots[:, m] = pv
    return A


def select_coefficients(H, p, gamma: int) -> np.ndarray:
    """Integer combination coefficients, one row per relay, for a power
    vector p (L,), or for every row of a power grid p (N, L) at once.

    Each relay's candidates come from reducing the identity basis in its
    effective-noise metric; relay by relay, the smallest candidate by metric
    that keeps the stack full rank over F_gamma is taken.  Raises
    ValueError unless H is square and p holds one nonnegative power per
    source (in every row)."""
    H = np.asarray(H, dtype=float)
    p = np.asarray(p, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square channel matrix, got shape {H.shape}")
    if p.ndim not in (1, 2) or p.shape[-1] != len(H):
        raise ValueError(f"expected {len(H)} powers per row, got shape {p.shape}")
    if not np.all(p >= 0):
        raise ValueError("powers must be nonnegative numbers, not NaN")
    D, _ = _gram(H, np.atleast_2d(p))
    A = _select_A2(D, gamma) if len(D) == 2 else _select_A(D, gamma)
    return A if p.ndim == 2 else A[0]


def pi_d_is_feasible(Q: FieldMatrix, pi_c, pi_d) -> bool:
    return all(mat_rank(residual_submatrix(Q, *residual_sets(pi_c, pi_d, j, "d"))) == j for j in range(1, Q.rows + 1))


def pi_e_is_feasible(Q: FieldMatrix, pi_s, pi_e) -> bool:
    L = Q.rows
    return all(
        mat_rank(residual_submatrix(Q, *residual_sets(pi_s, pi_e, i, "e"))) == L - i + 1 for i in range(1, L + 1)
    )


def _group_rows(keys):
    """Distinct rows of an integer array (N, K): the index of one row of
    each group and the group of every row.  A lexsort, much faster than
    ``np.unique(axis=0)`` on large grids."""
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = _fold(np.logical_or, sorted_keys[1:] != sorted_keys[:-1], 1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _level_masks(pi_src, pi_rel, kind: str) -> tuple:
    """Bit masks (..., L) of the residual sources and relays of recovery
    iterations t = 1..L for each source labelling pi_src (..., L) and each
    relay labelling pi_rel (..., L), by residual_sets."""
    L = pi_src.shape[-1]
    sets = residual_sets(pi_src[..., None, :], pi_rel[..., None, :], np.arange(1, L + 1)[:, None], kind)
    return tuple(np.sum(mask << np.arange(L), axis=-1) for mask in sets)


def _feasible_perms(A, pi, rel, gamma: int, kind: str) -> np.ndarray:
    """(K, P) mask of the feasible relay labels rel, pi_d ("d", given pi_c =
    pi[k]) or pi_e ("e", given pi_s = pi[k]), for each A (K, L, L): rel is
    (P, L), the same for every A, or (K, P, L).  The rank conditions of
    pi_d_is_feasible / pi_e_is_feasible, read off the nonsingular minors of
    A."""
    nonsingular = nonsingular_minors(A, gamma)
    sources, relays = _level_masks(pi, rel, kind)
    return _fold(np.logical_and, nonsingular[np.arange(len(A))[:, None, None], relays, sources[:, None]], 2)


def _power_grid(P: float, n: int) -> np.ndarray:
    """Geometric grid of n candidate powers over (P/n, P]."""
    return P * float(n) ** (-(n - 1 - np.arange(n)) / n)


def _rank_perms(keys) -> np.ndarray:
    """Row-wise permutations assigning position 1 to the smallest key, ties
    to the earlier column (the stable ranking): rank_l = 1 + #{k < l :
    key_k <= key_l} + #{k > l : key_k < key_l}, L^2 comparisons of the
    key columns (N,)."""
    cols = np.asarray(keys).T
    L = len(cols)
    ranks = np.ones(cols.shape, dtype=np.intp)
    for l in range(L):
        for k in range(L):
            if k != l:
                ranks[l] += cols[k] <= cols[l] if k < l else cols[k] < cols[l]
    return ranks.T


def _coding_key(p, r_comp):
    """Per-source coding-lattice volume surrogate; smaller means finer.

    Computed in the log domain and rounded so that different but equally
    valid floating-point evaluation orders cannot flip the ranking."""
    r = np.minimum(np.asarray(r_comp, dtype=float), 500.0)
    key = np.log2(np.asarray(p, dtype=float)) - 2.0 * r
    return np.round(key * 1e9) / 1e9


def _argbest(vals, r):
    """(choice, row) of the largest finite value of ``vals`` (choices, rows),
    ties broken by the lexicographically largest rate tuple (``r`` has shape
    (choices, L, rows)) and then by the first (row, choice).  None when
    nothing is finite."""
    best = np.max(vals, where=np.isfinite(vals), initial=-np.inf)
    if best == -np.inf:
        return None
    ke, row = np.nonzero(vals == best)
    r_ties = r[ke, :, row]
    # np.lexsort's last key is the primary one
    keys = (ke, row) + tuple(-r_ties[:, i] for i in reversed(range(r_ties.shape[1])))
    pick = np.lexsort(keys)[0]
    return int(ke[pick]), int(row[pick])


class _Grid:
    """Batched evaluation context of one channel draw over the stacked rows
    of its power grids, for any L.

    The constructor builds every per-row table once: coefficients and
    computation rates (selected in blocks sized to ``_BLOCK_ELEMS``; at
    L = 2 the rates reuse the denominators of the selection metrics), the
    rankings pi_s and pi_c (counted by comparisons of the key columns), the
    forwarding log-ratios, and the feasible
    pi_e and pi_d = pi_c o sigma^-1, the latter indexed by sigma (sigma(l)
    is the relay that forwards source l).  Feasibility is computed once per
    distinct (A, pi_c) or (A, pi_s), from the nonsingular square submatrices
    of A, and shared by the rows that have it.  The variant search then runs
    in blocks.

    The tables the variant search reads (the nonzero mask of A, the
    computation rates, the log-ratios, the feasibility masks) are stored
    rows last: their other axes hold 2 to L! elements, so with rows first
    every broadcast, fold and sum would run one short inner loop per row
    instead of one long contiguous loop per slice."""

    def __init__(self, H, caps, p_rows, gamma):
        self.H = np.asarray(H, dtype=float)
        self.caps = np.asarray(caps, dtype=float)
        self.p = np.asarray(p_rows, dtype=float)
        self.gamma = gamma
        self.L = L = self.H.shape[0]
        self.block = _block_rows(math.factorial(L) * L * L)
        step = _block_rows(2 * L**3)
        blocks = [self._select(self.p[s : s + step]) for s in range(0, len(self.p), step)]
        self.A, r_comp = (np.concatenate(part) for part in zip(*blocks))
        # mask[m, l, n]: relay m combines source l at row n
        self.mask = np.ascontiguousarray(np.moveaxis(self.A != 0, 0, -1))
        self.r_comp = np.ascontiguousarray(r_comp.T)
        self.pi_s = _rank_perms(self.p)
        self.pi_c = _rank_perms(_coding_key(self.p, r_comp))
        self.perms = np.array(list(itertools.permutations(range(1, L + 1))))
        self.sigma_inv = np.argsort(self.perms, axis=1)
        # half_log_ratios[i, l, n] = 0.5 * log2(p_sorted[n, i] / p[n, l]), with
        # p_sorted each row's powers ascending: the offset of source l under the
        # modulo lattice of the (i + 1)-th smallest power, for every variant
        p_t = np.ascontiguousarray(self.p.T)
        p_sorted = np.sort(p_t, axis=0, kind="stable")
        self.half_log_ratios = 0.5 * np.log2(p_sorted[:, None] / p_t)
        # feasible pi_d = pi_c o sigma^-1 (given pi_c) for every sigma and
        # pi_e (given pi_s), both in perms order: a mask (L!, groups) over the
        # distinct (A, pi), keyed by A's group and pi's base-L code, and the
        # group (N,) of every row
        a_group = _group_rows(self.A.reshape(len(self.A), -1))[1]
        chunk = _block_rows(4**L + self.perms.size * L)
        feasible = []
        for kind, pi in (("d", self.pi_c), ("e", self.pi_s)):
            first, group = _group_rows((a_group * L**L + (pi - 1) @ L ** np.arange(L - 1, -1, -1))[:, None])
            mask = [
                _feasible_perms(self.A[g], pi[g], pi[g][:, self.sigma_inv] if kind == "d" else self.perms, gamma, kind)
                for g in (first[s : s + chunk] for s in range(0, len(first), chunk))
            ]
            feasible.append((np.ascontiguousarray(np.concatenate(mask).T), group))
        self.feas_d, self.feas_e = feasible

    def _select(self, p):
        """Coefficients and computation rates of a block of rows."""
        if self.L == 2:
            # what select_coefficients runs at L = 2: perfbench requires no
            # select_coefficients calls on sweep-l2 and some on sweep-l3,
            # until it counts distinct A over grid rows instead; the rates
            # reuse the metrics' denominators
            D, denom = _gram(self.H, p)
            A = _select_A2(D, self.gamma)
            return A, computation_rate(self.H, A, p, denom.T)
        A = select_coefficients(self.H, p, self.gamma)
        return A, computation_rate(self.H, A, p)

    def _bounds(self, variant, blk, s):
        """Forwarding bounds (pi_e choices, L, rows) of a block of rows, at
        sigma = perms[s] - 1 where pi_d is searched (s is None otherwise)."""
        caps = self.caps
        hl = self.half_log_ratios[..., blk]
        if variant in ("srm", "symmetric"):
            # relay m's modulo lattice is that of rank pi_e(m), and the
            # symmetric one is the coarsest, rank L, for every relay; the
            # limits are computed in the buffer of the gathered offsets
            ranks = self.perms if variant == "srm" else np.full((1, self.L), self.L)
            limits = hl[ranks - 1]
            np.subtract(caps[:, None, None], limits, out=limits)
            np.copyto(limits, np.inf, where=~self.mask[..., blk])
            return _fold(np.minimum, limits, 1)
        # sigma[l], the relay forwarding source l, runs over every bijection;
        # each row's pi_d = pi_c o sigma^-1 then takes each value once, and
        # the bound columns are the same for every row
        sigma = self.perms[s] - 1
        if variant == "srq":
            return caps[sigma][None, :, None]
        return caps[sigma][:, None] - hl[self.perms[:, sigma] - 1, np.arange(self.L)]

    def evaluate(self, variant, rows=slice(None)):
        """Best (value, row, pi_d, pi_e) over the grid rows of the slice
        ``rows`` and feasible (pi_d, pi_e); ``row`` indexes the whole grid,
        and a permutation the variant does not search is the identity.

        Ties go to the lexicographically largest rate tuple, then to the
        first candidate in (row, pi_d, pi_e) order: the smallest key
        (-value, -rates, row, pi_d, pi_e)."""
        best = None
        sigmas = range(len(self.perms)) if variant in ("srq", "srmq") else (None,)
        first, stop, _ = rows.indices(len(self.p))
        for start in range(first, stop, self.block):
            blk = slice(start, min(start + self.block, stop))
            ok_e = self.feas_e[0].take(self.feas_e[1][blk], axis=1) if variant in ("srm", "srmq") else True
            for s in sigmas:
                bounds = self._bounds(variant, blk, s)
                ok = _fold(np.logical_and, bounds >= 0, 1) & ok_e
                if s is not None:
                    ok = ok & self.feas_d[0][s].take(self.feas_d[1][blk])
                r = np.minimum(self.r_comp[:, blk], bounds)
                np.maximum(r, 0.0, out=r)
                # a left-to-right sum, which is np.sum's order on axes shorter than 8
                vals = np.where(ok, _fold(np.add, r, 1), -np.inf)
                pick = _argbest(vals, r)
                if pick is None:
                    continue
                ke, row = pick
                # the identity, perms[0], where a permutation is not searched
                pi_d = self.perms[0] if s is None else self.pi_c[start + row, self.sigma_inv[s]]
                pi_e = tuple(self.perms[ke].tolist())
                key = (-vals[ke, row], tuple(-r[ke, :, row]), start + row, tuple(pi_d.tolist()), pi_e)
                best = key if best is None else min(best, key)
        if best is None:
            return None
        value, _, row, pi_d, pi_e = best
        return -float(value), row, pi_d, pi_e


def _grid_rows(budgets, common: bool, config: OptimizerConfig) -> np.ndarray:
    L = len(budgets)
    if common:
        grid = _power_grid(float(np.min(budgets)), config.nBrute)
        return np.tile(grid[:, None], (1, L))
    n = config.nBrute
    while n > 1 and n**L > _MAX_GRID_ROWS:
        n -= 1
    axes = [_power_grid(float(b), n) for b in budgets]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def check_schemes(schemes) -> tuple:
    """The scheme names as a tuple; a name that is unknown or listed twice
    is a configuration error."""
    schemes = tuple(schemes)
    for i, s in enumerate(schemes):
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r}")
        if s in schemes[:i]:
            raise ConfigError(f"scheme {s!r} listed twice")
    return schemes


def evaluate_all(channel: ChannelInstance, config: OptimizerConfig, schemes=SCHEMES):
    """Evaluate the requested schemes on one channel draw.

    One evaluator runs over one grid, the per-source mesh (when a
    per-source scheme is requested) followed by the common-power rows, so
    coefficient selection, ranking and feasibility run once per draw and
    the comparisons are paired.  The common-power schemes search the
    common-power rows, the others every row.  Each winner is rebuilt as an
    assignment over one placeholder chain shared by the draw's winners (L
    strictly nested coding levels above L strictly nested shaping levels)
    with its analytic rate report.  Returns {scheme: (assignment, report)};
    every scheme has an assignment.  L >= 8 is a configuration error: one
    grid row's bounds would exceed the block budget."""
    schemes = check_schemes(schemes)
    L = channel.L
    if math.factorial(L) * L * L > _BLOCK_ELEMS:
        raise ConfigError(f"L = {L} is too large for the optimizer, which supports L <= 7")
    if not schemes:
        return {}
    region = second_hop_region(channel.g, channel.P_R)
    caps = np.asarray(region.perRelayCapacity, dtype=float)
    common = _grid_rows(channel.P, True, config)
    grids = [common]
    if not all(_SCHEME_ROWS[s][1] for s in schemes):
        # the mesh first: exact ties go to the earlier row
        grids.insert(0, _grid_rows(channel.P, False, config))
    ctx = _Grid(channel.H, caps, np.concatenate(grids), config.gammaOpt)
    spec = make_chain_spec(config.gammaOpt, 2 * L, 2 * L)
    coding, shaping, budgets = tuple(range(2 * L, L, -1)), tuple(range(L, 0, -1)), tuple(channel.P)
    results = {}
    for scheme in schemes:
        variant, common_only = _SCHEME_ROWS[scheme]
        # a common-power row has no forwarding offsets, and its full-rank A
        # has a feasible (pi_d, pi_e), so every scheme has a winner
        _, row, pi_d, pi_e = ctx.evaluate(variant, slice(-len(common), None) if common_only else slice(None))
        asg = SchemeAssignment(
            spec, ctx.pi_c[row], ctx.pi_s[row], pi_d, pi_e, ctx.A[row], coding, shaping, tuple(ctx.p[row]), budgets
        )
        results[scheme] = (asg, max_rates_given_structure(asg, channel.H, region, variant))
    return results
