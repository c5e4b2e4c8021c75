"""Exact arithmetic and linear algebra over the prime field F_gamma.

Matrices are stored as int64 arrays of canonical representatives in
[0, gamma).  gamma is restricted to primes below 2^31 so that products
of two representatives never overflow int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRangeError, NotFullRankError, SingularMatrixError

_GAMMA_LIMIT = 1 << 31


def _check_prime(gamma: int) -> None:
    if not isinstance(gamma, (int, np.integer)) or gamma < 2 or gamma >= _GAMMA_LIMIT:
        raise ValueError(f"modulus must be a prime in [2, 2^31), got {gamma}")
    if gamma % 2 == 0 and gamma != 2:
        raise ValueError(f"modulus {gamma} is not prime")
    d = 3
    while d * d <= gamma:
        if gamma % d == 0:
            raise ValueError(f"modulus {gamma} is not prime")
        d += 2


@dataclass(frozen=True)
class FieldScalar:
    """A single element of F_gamma."""

    value: int
    modulus: int

    def __post_init__(self):
        _check_prime(self.modulus)
        object.__setattr__(self, "value", int(self.value) % self.modulus)


@dataclass(frozen=True)
class FieldMatrix:
    """A matrix over F_gamma with canonical int64 entries."""

    entries: np.ndarray
    modulus: int

    def __post_init__(self):
        _check_prime(self.modulus)
        ent = np.asarray(self.entries, dtype=np.int64)
        if ent.ndim != 2:
            raise ValueError("entries must be two-dimensional")
        object.__setattr__(self, "entries", np.mod(ent, self.modulus))
        self.entries.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self.entries, other.entries)


@dataclass(frozen=True)
class IndexSets:
    """Paired ordered source/relay index sets, 1-based, no duplicates."""

    sourceSet: tuple = field(default=())
    relaySet: tuple = field(default=())

    def __post_init__(self):
        src = tuple(int(i) for i in self.sourceSet)
        rel = tuple(int(i) for i in self.relaySet)
        if len(set(src)) != len(src) or len(set(rel)) != len(rel):
            raise ValueError("index sets must not contain duplicates")
        if len(src) != len(rel):
            raise ValueError("source and relay sets must have equal cardinality")
        object.__setattr__(self, "sourceSet", src)
        object.__setattr__(self, "relaySet", rel)


def kappa(x):
    """Canonical integer representative(s) of a field scalar or matrix."""
    if isinstance(x, FieldScalar):
        return x.value
    if isinstance(x, FieldMatrix):
        return x.entries.copy()
    raise TypeError(f"kappa expects FieldScalar or FieldMatrix, got {type(x).__name__}")


def kappa_inv(x, gamma: int):
    """Inverse of kappa: lift integer(s) back to F_gamma."""
    if np.isscalar(x) or isinstance(x, (int, np.integer)):
        return FieldScalar(int(x), gamma)
    return FieldMatrix(np.asarray(x, dtype=np.int64), gamma)


def _eliminate(ent: np.ndarray, gamma: int):
    """Row-reduce a working int64 array in place; return pivot column list."""
    rows, cols = ent.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(ent[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + nz[0]
        if p != r:
            ent[[r, p]] = ent[[p, r]]
        inv = pow(int(ent[r, c]), -1, gamma)
        ent[r] = (ent[r] * inv) % gamma
        mask = np.nonzero(ent[:, c])[0]
        mask = mask[mask != r]
        ent[mask] = (ent[mask] - np.outer(ent[mask, c], ent[r])) % gamma
        pivots.append(c)
        r += 1
    return pivots


def mat_rank(M: FieldMatrix) -> int:
    """Rank of M over F_gamma by exact modular elimination."""
    work = M.entries.copy()
    return len(_eliminate(work, M.modulus))


def mat_inverse(M: FieldMatrix) -> FieldMatrix:
    """Inverse of a square matrix over F_gamma.

    Raises SingularMatrixError when the matrix is not full rank.
    """
    if M.rows != M.cols:
        raise SingularMatrixError("matrix is not square")
    n = M.rows
    work = np.concatenate([M.entries.copy(), np.eye(n, dtype=np.int64)], axis=1)
    pivots = _eliminate(work, M.modulus)
    if len(pivots) < n or pivots != list(range(n)):
        raise SingularMatrixError(f"matrix of rank {len(pivots)} < {n} has no inverse")
    return FieldMatrix(work[:, n:], M.modulus)


def residual_submatrix(Q: FieldMatrix, sources, relays) -> FieldMatrix:
    """Square submatrix of Q: rows picked by relay indices, columns by sources.

    Both index lists are 1-based and are applied in ascending order.
    """
    src = sorted(int(i) for i in sources)
    rel = sorted(int(i) for i in relays)
    if len(src) != len(rel):
        raise IndexOutOfRangeError("index sets must have equal cardinality")
    for i in src:
        if not 1 <= i <= Q.cols:
            raise IndexOutOfRangeError(f"source index {i} outside [1, {Q.cols}]")
    for i in rel:
        if not 1 <= i <= Q.rows:
            raise IndexOutOfRangeError(f"relay index {i} outside [1, {Q.rows}]")
    rows = np.asarray(rel, dtype=np.intp) - 1
    cols = np.asarray(src, dtype=np.intp) - 1
    return FieldMatrix(Q.entries[np.ix_(rows, cols)], Q.modulus)


def perm_inverse(perm) -> tuple:
    """Inverse of a 1-based permutation given as a tuple with perm[i] = pi(i+1)."""
    perm = tuple(int(v) for v in perm)
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def is_permutation(perm, L: int) -> bool:
    return sorted(int(v) for v in perm) == list(range(1, L + 1))


def _greedy_row_deletion(Q: FieldMatrix, column_order, labels):
    """Shared constructor for feasible_pi_d / feasible_pi_e.

    Starting from the full square matrix, repeatedly delete the next column
    in ``column_order`` (a 1-based source index) and then the first relay
    row whose removal preserves full rank.  The deleted relay receives the
    corresponding entry of ``labels``; the survivor gets the last label.
    """
    L = Q.rows
    if Q.rows != Q.cols:
        raise NotFullRankError("coefficient matrix must be square")
    if mat_rank(Q) < L:
        raise NotFullRankError("coefficient matrix is singular over F_gamma")
    active_rel = list(range(1, L + 1))
    active_src = list(range(1, L + 1))
    assignment = [0] * L
    for col, label in zip(column_order, labels[:-1]):
        active_src.remove(col)
        size = len(active_src)
        deleted = None
        for cand in active_rel:
            trial = [m for m in active_rel if m != cand]
            sub = residual_submatrix(Q, active_src, trial)
            if mat_rank(sub) == size:
                deleted = cand
                break
        # Appendix-style existence: a full-column-rank tall matrix always
        # admits a row whose removal keeps the rank, so deleted is never None.
        assignment[deleted - 1] = label
        active_rel.remove(deleted)
    assignment[active_rel[0] - 1] = labels[-1]
    return tuple(assignment)


def feasible_pi_d(Q: FieldMatrix, pi_c) -> tuple:
    """Greedy top-down construction of a feasible quantization permutation.

    The result satisfies: for every j, the submatrix of Q with columns
    {l : pi_c(l) <= j} and rows {m : pi_d(m) <= j} is full rank.
    """
    L = Q.rows
    pi_c_inv = perm_inverse(pi_c)
    column_order = [pi_c_inv[j - 1] for j in range(L, 1, -1)]
    labels = list(range(L, 1, -1)) + [1]
    return _greedy_row_deletion(Q, column_order, labels)


def feasible_pi_e(Q: FieldMatrix, pi_s) -> tuple:
    """Greedy bottom-up construction of a feasible modulo permutation.

    The result satisfies: for every i, the submatrix of Q with columns
    {l : pi_s(l) >= i} and rows {m : pi_e(m) >= i} is full rank.
    """
    L = Q.rows
    pi_s_inv = perm_inverse(pi_s)
    column_order = [pi_s_inv[i - 1] for i in range(1, L)]
    labels = list(range(1, L)) + [L]
    return _greedy_row_deletion(Q, column_order, labels)


def srq_index_sets(pi_c, pi_d, j: int) -> IndexSets:
    """Residual sets at quantization iteration j: indices with label <= j."""
    src = tuple(l for l in range(1, len(pi_c) + 1) if pi_c[l - 1] <= j)
    rel = tuple(m for m in range(1, len(pi_d) + 1) if pi_d[m - 1] <= j)
    return IndexSets(src, rel)


def srm_index_sets(pi_s, pi_e, i: int) -> IndexSets:
    """Residual sets at modulo iteration i: indices with label >= i."""
    src = tuple(l for l in range(1, len(pi_s) + 1) if pi_s[l - 1] >= i)
    rel = tuple(m for m in range(1, len(pi_e) + 1) if pi_e[m - 1] >= i)
    return IndexSets(src, rel)
