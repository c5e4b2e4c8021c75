"""Scalar reference for the batched optimizer: one grid row and one relay at
a time, with plain Python loops.

This is the per-row evaluator the batched code replaced.  The tests require
the batched path to reproduce it exactly: the same reduction transforms, the
same coefficient matrices and the same winning (row, pi_d, pi_e) and value.
"""

import itertools

import numpy as np

from ccfrelay.errors import ConfigError, NotFullRankError
from ccfrelay.galois import FieldMatrix, mat_rank, perm_inverse
from ccfrelay.optimizer import _coding_key, _gram, pi_d_is_feasible, pi_e_is_feasible


def gram_matrix(h_m, p) -> np.ndarray:
    """Metric of one relay whose quadratic form in a coefficient row is the
    effective-noise power at the optimal scaling coefficient."""
    return _gram(np.asarray(h_m, dtype=float)[None], np.asarray(p, dtype=float)[None])[0][0, ..., 0]


def gso(B: np.ndarray):
    """Gram-Schmidt data: squared norms of the orthogonalized rows and the
    lower-triangular projection coefficients."""
    n = B.shape[0]
    mu = np.eye(n)
    star = np.zeros_like(B, dtype=float)
    norms2 = np.zeros(n)
    for i in range(n):
        star[i] = B[i]
        for j in range(i):
            mu[i, j] = (B[i] @ star[j]) / norms2[j]
            star[i] = star[i] - mu[i, j] * star[j]
        norms2[i] = star[i] @ star[i]
    return norms2, mu


def lll_reduce(basis, delta: float = 0.75):
    """Lovasz-reduce the rows of ``basis``; returns (reduced, transform)."""
    B = np.array(basis, dtype=float)
    n = B.shape[0]
    if B.ndim != 2 or B.shape[1] < n or np.linalg.matrix_rank(B) < n:
        raise NotFullRankError("basis rows are linearly dependent")
    T = np.eye(n, dtype=np.int64)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 100000:
            raise RuntimeError("reduction failed to converge")
        norms2, mu = gso(B)
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                B[k] -= q * B[j]
                T[k] -= q * T[j]
                norms2, mu = gso(B)
        if norms2[k] >= (delta - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            B[[k - 1, k]] = B[[k, k - 1]]
            T[[k - 1, k]] = T[[k, k - 1]]
            k = max(k - 1, 1)
    return B, T


def computation_rate(H, A, p) -> np.ndarray:
    """Best computation rate of each source over the relays combining it:
    the closed-form effective-noise power of one relay at a time, and each
    source's rate at the worst relay combining it (0 when none does)."""
    H = np.asarray(H, dtype=float)
    A = np.asarray(A, dtype=float)
    p = np.asarray(p, dtype=float)
    tau = np.empty(len(A))
    for m, (h, a) in enumerate(zip(H, A)):
        tau[m] = a @ (p * a) - (h @ (p * a)) ** 2 / (1.0 + h @ (p * h))
    r = np.zeros(len(p))
    for l in range(len(p)):
        relays = np.nonzero(A[:, l])[0]
        if relays.size == 0:
            continue
        worst = np.max(tau[relays])
        if worst <= 0.0:
            r[l] = np.inf
        else:
            r[l] = max(0.0, 0.5 * np.log2(p[l] / worst))
    return r


def rank_perm(key) -> tuple:
    """Permutation assigning position 1 to the smallest key, ties to the
    earlier position: the inverse of the stable sorting permutation."""
    return tuple(int(x) + 1 for x in np.argsort(np.argsort(np.asarray(key), kind="stable"), kind="stable"))


def relay_transforms(H, p):
    """The reduction transform of every relay's metric at powers ``p``."""
    return [lll_reduce(np.linalg.cholesky(gram_matrix(H[m], p)))[1] for m in range(len(p))]


def gauss_reduce(D):
    """Two-dimensional (Gauss) reduction of the identity basis in the metric
    D (2, 2): the reduced coordinate rows, shorter first, as a transform."""
    u, v = np.array([1, 0], dtype=np.int64), np.array([0, 1], dtype=np.int64)
    a, b, c = float(D[0, 0]), float(D[0, 1]), float(D[1, 1])
    for _ in range(64):
        if c < a:
            u, v, a, c = v, u, c, a
        r = float(np.rint(b / (a if a > 0 else 1.0)))
        if not abs(r) < 2.0**63:
            break
        if r == 0:
            return np.stack([u, v])
        v = v - int(r) * u
        c += r * r * a - 2.0 * r * b
        b -= r * a
    raise RuntimeError("reduction failed to converge")


def scalar_select_from_gram(Ds, gamma: int) -> np.ndarray:
    """Greedy per-relay selection by metric under a rank check over F_gamma.

    ``Ds`` holds each relay's metric (L, L).  The candidates are the rows
    of the reduction transform (Gauss at L = 2, LLL otherwise) plus the
    unit vectors, sign-normalized and sorted by metric, then
    lexicographically; each relay takes the first that extends the rank."""
    L = len(Ds)
    if L == 1:
        return np.array([[1]], dtype=np.int64)
    chosen = []
    for m, D in enumerate(Ds):
        T = gauss_reduce(D) if L == 2 else lll_reduce(np.linalg.cholesky(D))[1]
        cand = np.concatenate([T, np.eye(L, dtype=np.int64)], axis=0)
        lead_idx = np.argmax(cand != 0, axis=1)
        lead = cand[np.arange(cand.shape[0]), lead_idx]
        cand = cand * np.where(lead < 0, -1, 1)[:, None]
        met = np.einsum("ci,ij,cj->c", cand, D, cand)
        order = np.lexsort(tuple(cand[:, i] for i in reversed(range(L))) + (met,))
        picked = None
        for idx in order:
            trial = chosen + [cand[idx]]
            if mat_rank(FieldMatrix(np.stack(trial), gamma)) == len(trial):
                picked = cand[idx]
                break
        if picked is None:
            raise AssertionError(f"no candidate row extends rank at relay {m + 1}")
        chosen.append(picked)
    return np.stack(chosen).astype(np.int64)


def scalar_select_coefficients(H, p, gamma: int) -> np.ndarray:
    """Coefficients of one power vector p (L,): the selection of
    ``scalar_select_from_gram`` over every relay's effective-noise metric."""
    H = np.asarray(H, dtype=float)
    p = np.asarray(p, dtype=float)
    return scalar_select_from_gram([gram_matrix(H[m], p) for m in range(len(p))], gamma)


class ScalarRows:
    """Scalar per-row evaluation for general L, with cached permutation
    feasibility keyed by the coefficient matrix."""

    def __init__(self, H, caps, p_rows, gamma):
        self.H = np.asarray(H, dtype=float)
        self.caps = np.asarray(caps, dtype=float)
        self.p_rows = np.asarray(p_rows, dtype=float)
        self.gamma = gamma
        self.L = self.H.shape[0]
        self._pi_d_cache = {}
        self._pi_e_cache = {}
        self.rows = []
        for p in self.p_rows:
            A = scalar_select_coefficients(self.H, p, gamma)
            r_comp = computation_rate(self.H, A, p)
            self.rows.append(
                {
                    "p": p,
                    "A": A,
                    "r_comp": r_comp,
                    "pi_s": rank_perm(p),
                    "pi_c": rank_perm(_coding_key(p, r_comp)),
                }
            )

    def _feasible_pi_d_list(self, A, pi_c):
        key = (A.tobytes(), pi_c)
        if key not in self._pi_d_cache:
            Q = FieldMatrix(A, self.gamma)
            perms = itertools.permutations(range(1, self.L + 1))
            self._pi_d_cache[key] = [pd for pd in perms if pi_d_is_feasible(Q, pi_c, pd)]
        return self._pi_d_cache[key]

    def _feasible_pi_e_list(self, A, pi_s):
        key = (A.tobytes(), pi_s)
        if key not in self._pi_e_cache:
            Q = FieldMatrix(A, self.gamma)
            perms = itertools.permutations(range(1, self.L + 1))
            self._pi_e_cache[key] = [pe for pe in perms if pi_e_is_feasible(Q, pi_s, pe)]
        return self._pi_e_cache[key]

    def evaluate(self, variant):
        """Best (value, row, pi_d, pi_e), with the identity for a
        permutation the variant does not search."""
        L = self.L
        caps = self.caps
        identity = tuple(range(1, L + 1))
        best = None

        def push(row_idx, row, bounds, pi_d=identity, pi_e=identity):
            nonlocal best
            bounds = np.asarray(bounds, dtype=float)
            if np.any(bounds < 0):
                return
            r = np.maximum(np.minimum(row["r_comp"], bounds), 0.0)
            key = (float(np.sum(r)), tuple(r))
            if best is None or key > best[0]:
                best = (key, row_idx, pi_d, pi_e)

        for idx, row in enumerate(self.rows):
            p = row["p"]
            A = row["A"]
            mask = A != 0
            if variant == "symmetric":
                pe = np.max(p)
                off = 0.5 * np.log2(pe / p)
                link_caps = np.min(np.where(mask, caps[:, None], np.inf), axis=0)
                push(idx, row, link_caps - off)
            elif variant == "srq":
                for pd in self._feasible_pi_d_list(A, row["pi_c"]):
                    pd_inv = perm_inverse(pd)
                    sigma = [pd_inv[row["pi_c"][l] - 1] - 1 for l in range(L)]
                    push(idx, row, caps[sigma], pi_d=pd)
            elif variant == "srm":
                pi_s_inv = perm_inverse(row["pi_s"])
                for pe_perm in self._feasible_pi_e_list(A, row["pi_s"]):
                    pe_pow = np.array([p[pi_s_inv[pe_perm[m] - 1] - 1] for m in range(L)])
                    off = 0.5 * np.log2(pe_pow[:, None] / p[None, :])
                    bounds = np.min(np.where(mask, caps[:, None] - off, np.inf), axis=0)
                    push(idx, row, bounds, pi_e=pe_perm)
            elif variant == "srmq":
                pi_s_inv = perm_inverse(row["pi_s"])
                for pd in self._feasible_pi_d_list(A, row["pi_c"]):
                    pd_inv = perm_inverse(pd)
                    sigma = [pd_inv[row["pi_c"][l] - 1] - 1 for l in range(L)]
                    for pe_perm in self._feasible_pi_e_list(A, row["pi_s"]):
                        pe_pow = np.array([p[pi_s_inv[pe_perm[m] - 1] - 1] for m in range(L)])
                        bounds = np.array(
                            [caps[sigma[l]] - 0.5 * np.log2(pe_pow[sigma[l]] / p[l]) for l in range(L)]
                        )
                        push(idx, row, bounds, pd, pe_perm)
            else:
                raise ConfigError(f"unknown variant {variant!r}")
        if best is None:
            return None
        return best[0][0], *best[1:]
