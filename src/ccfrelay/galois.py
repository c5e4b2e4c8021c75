"""Exact arithmetic and linear algebra over the prime field F_gamma.

Matrices are stored as int64 arrays of canonical representatives in
[0, gamma).  gamma is restricted to primes below 2^31 so that products
of two representatives never overflow int64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotFullRankError, SingularMatrixError

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


def int64_array(values, what: str) -> np.ndarray:
    """values as an int64 array.  Raises ValueError for any value the cast
    would change (a fraction, NaN, one out of the int64 range); arrays of
    signed integers need no check."""
    a = np.asarray(values)
    if a.dtype.kind == "i":
        return a.astype(np.int64, copy=False)
    try:
        with np.errstate(invalid="ignore"):
            z = a.astype(np.int64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be integers") from None
    if not np.array_equal(z, a):
        raise ValueError(f"{what} must be integers in the int64 range")
    return z


def int_divmod(x: np.ndarray, modulus: int) -> tuple:
    """np.divmod(x, modulus) for an integer array and a positive modulus, as
    a floor division and a multiply-subtract: 1.3-2 times faster than
    np.divmod on (10^4, 8) int64 arrays (numpy 2.4, 2-vCPU Xeon VM)."""
    q = x // modulus
    return q, x - q * modulus


@dataclass(frozen=True)
class FieldMatrix:
    """A matrix over F_gamma with canonical int64 entries."""

    entries: np.ndarray
    modulus: int

    def __post_init__(self):
        _check_prime(self.modulus)
        ent = int64_array(self.entries, "matrix entries")
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


def _eliminate(rows: list, gamma: int) -> list:
    """Row-reduce a list of rows of Python ints in place; return the pivot
    column list.  The matrices here are at most L x 2L, where a row of
    Python ints costs far less per operation than a numpy row."""
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = pow(rows[r][c], -1, gamma)
        pivot = rows[r] = [v * inv % gamma for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(v - f * w) % gamma for v, w in zip(row, pivot)]
        pivots.append(c)
        r += 1
    return pivots


def mat_rank(M: FieldMatrix) -> int:
    """Rank of M over F_gamma by exact modular elimination."""
    return len(_eliminate(M.entries.tolist(), M.modulus))


def mat_inverse(M: FieldMatrix) -> FieldMatrix:
    """Inverse of a square matrix over F_gamma.

    Raises SingularMatrixError when the matrix is not full rank.
    """
    if M.rows != M.cols:
        raise SingularMatrixError("matrix is not square")
    n = M.rows
    work = [row + [int(i == j) for j in range(n)] for i, row in enumerate(M.entries.tolist())]
    pivots = _eliminate(work, M.modulus)
    if pivots != list(range(n)):
        rank = sum(c < n for c in pivots)
        raise SingularMatrixError(f"matrix of rank {rank} < {n} has no inverse")
    return FieldMatrix(np.array([row[n:] for row in work], dtype=np.int64).reshape(n, n), M.modulus)


def residual_sets(pi_src, pi_rel, t, kind: str):
    """Boolean masks (sources, relays) of the residual system at recovery
    iteration t: the indices whose label is <= t for quantization ("d",
    labels pi_c and pi_d) or >= t for modulo ("e", labels pi_s and pi_e).
    Broadcasts over array labels and t."""
    inside = np.less_equal if kind == "d" else np.greater_equal
    return inside(pi_src, t), inside(pi_rel, t)


def residual_submatrix(Q: FieldMatrix, sources, relays) -> FieldMatrix:
    """Submatrix of Q: rows picked by the relay mask, columns by the source
    mask, both in ascending index order."""
    return FieldMatrix(Q.entries[np.ix_(relays, sources)], Q.modulus)


def perm_inverse(perm) -> tuple:
    """Inverse of a 1-based permutation given as a tuple with perm[i] = pi(i+1)."""
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def is_permutation(perm, L: int) -> bool:
    return sorted(perm) == list(range(1, L + 1))


def check_permutation(perm, L: int, name: str) -> tuple:
    """perm as a tuple of ints; ValueError unless it is a permutation of 1..L."""
    perm = tuple(int64_array(perm, name).tolist())
    if not is_permutation(perm, L):
        raise ValueError(f"{name} is not a permutation of 1..{L}")
    return perm


def nonsingular_minors(A, gamma: int) -> np.ndarray:
    """Which square submatrices of each A (K, L, L) are nonsingular modulo
    gamma, as (K, 2^L, 2^L) indexed by the bit masks of their rows and
    columns.  Determinants mod gamma by Laplace expansion along the first
    row, smaller minors first; the empty minor is 1."""
    K, L, _ = A.shape
    a = A % gamma
    det = np.zeros((K, 1 << L, 1 << L), dtype=np.int64)
    det[:, 0, 0] = 1
    by_size = [[m for m in range(1 << L) if bin(m).count("1") == s] for s in range(L + 1)]
    for size in by_size[1:]:
        for R in size:
            r0 = (R & -R).bit_length() - 1
            for C in size:
                acc = 0
                for pos, c in enumerate(c for c in range(L) if C >> c & 1):
                    term = a[:, r0, c] * det[:, R ^ (1 << r0), C ^ (1 << c)] % gamma
                    acc = acc - term if pos % 2 else acc + term
                det[:, R, C] = acc % gamma
    return det != 0


def _greedy_row_deletion(Q: FieldMatrix, column_order, labels):
    """Shared constructor for feasible_pi_d / feasible_pi_e.

    Starting from the full square matrix, repeatedly delete the next column
    in ``column_order`` (a 1-based source index) and then the first relay
    row whose removal leaves a nonsingular square submatrix.  The deleted
    relay receives the corresponding entry of ``labels``; the survivor gets
    the last label.
    """
    if Q.rows != Q.cols:
        raise NotFullRankError("coefficient matrix must be square")
    L = Q.rows
    nonsingular = nonsingular_minors(Q.entries[None], Q.modulus)[0]
    rows = cols = (1 << L) - 1
    if not nonsingular[rows, cols]:
        raise NotFullRankError("coefficient matrix is singular over F_gamma")
    assignment = [0] * L
    for col, label in zip(column_order, labels[:-1]):
        cols ^= 1 << (col - 1)
        # Appendix-style existence: a full-column-rank tall matrix always
        # admits a row whose removal keeps the rank, so some m qualifies.
        m = next(m for m in range(L) if rows >> m & 1 and nonsingular[rows ^ 1 << m, cols])
        assignment[m] = label
        rows ^= 1 << m
    assignment[rows.bit_length() - 1] = labels[-1]
    return tuple(assignment)


def feasible_pi_d(Q: FieldMatrix, pi_c) -> tuple:
    """Greedy top-down construction of a feasible quantization permutation.

    The result satisfies: for every j, the submatrix of Q with columns
    {l : pi_c(l) <= j} and rows {m : pi_d(m) <= j} is full rank.
    It reads Q's nonsingular-minors table, whose 4^L entries cost O(4^L)
    time and memory: meant for the small L the optimizer supports.
    """
    L = Q.rows
    pi_c_inv = perm_inverse(check_permutation(pi_c, L, "pi_c"))
    column_order = [pi_c_inv[j - 1] for j in range(L, 1, -1)]
    labels = list(range(L, 1, -1)) + [1]
    return _greedy_row_deletion(Q, column_order, labels)


def feasible_pi_e(Q: FieldMatrix, pi_s) -> tuple:
    """Greedy bottom-up construction of a feasible modulo permutation.

    The result satisfies: for every i, the submatrix of Q with columns
    {l : pi_s(l) >= i} and rows {m : pi_e(m) >= i} is full rank.
    It reads Q's nonsingular-minors table, whose 4^L entries cost O(4^L)
    time and memory: meant for the small L the optimizer supports.
    """
    L = Q.rows
    pi_s_inv = perm_inverse(check_permutation(pi_s, L, "pi_s"))
    column_order = [pi_s_inv[i - 1] for i in range(1, L)]
    labels = list(range(1, L)) + [L]
    return _greedy_row_deletion(Q, column_order, labels)
