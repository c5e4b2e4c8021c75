"""Full-array reference for the exact layer's combination and recovery.

These are the forms the library computed before it was cut down to the
digit columns each step reads: ``combine`` forms the code word of every
operand and of the result, and ``srq``/``srm``/``srmq`` run every
cancellation of the paper's successive recovery on the whole digit array,
masked at each relay's quantization and modulo levels, followed by every
reduction modulo gamma.  The tests require the library to reproduce them
bit for bit.
"""

import numpy as np

from ccfrelay.errors import SingularMatrixError, SingularResidualError, SpecMismatchError
from ccfrelay.galois import mat_inverse, residual_sets, residual_submatrix
from ccfrelay.lattice import ChainPoint


def combine(points, coeffs):
    """(digits, integer part) of sum_i c_i x_i, with the carries
    (sum_i c_i kappa(G d_i) - kappa(G d)) / gamma over all n code word
    coordinates."""
    spec = points[0].spec
    raw = words = ints = 0
    for c, x in zip(map(int, coeffs), points, strict=True):
        raw = raw + c * x.digits
        words = words + c * spec.code_word(x.digits)
        ints = ints + c * x.ints
    digits = np.mod(raw, spec.gamma)
    return digits, ints + (words - spec.code_word(digits)) // spec.gamma


def _relay_digits(v, asg) -> np.ndarray:
    if len(v) != asg.L:
        raise ValueError(f"expected {asg.L} relay outputs, got {len(v)}")
    if any(v_m.spec != asg.spec for v_m in v):
        raise SpecMismatchError("relay output spec differs from assignment spec")
    return np.stack([v_m.digits for v_m in v])


def _dither_digits(dithers, asg, batch: tuple) -> np.ndarray:
    D = np.zeros((asg.L,) + batch + (asg.spec.kMax,), dtype=np.int64)
    for l, d in enumerate(dithers or ()):
        if d is not None:
            if d.spec != asg.spec:
                raise SpecMismatchError("dither spec differs from assignment spec")
            D[l] = d.digits
    return D


def _points(spec, D: np.ndarray) -> list:
    zeros = np.zeros(D.shape[1:-1] + (spec.n,), dtype=np.int64)
    return [ChainPoint(spec, d, zeros) for d in D]


def _below(levels, shape: tuple) -> np.ndarray:
    mask = np.arange(shape[-1]) < np.asarray(levels)[:, None]
    return mask.reshape((len(levels),) + (1,) * (len(shape) - 2) + (shape[-1],))


def _times(M, X) -> np.ndarray:
    return (M @ X.reshape(len(X), -1)).reshape((len(M),) + X.shape[1:])


def _cancel(V, A, T, gamma: int, quant, fold) -> np.ndarray:
    """Digits of [v_m - Q_quant[m](sum_l a_ml t_l)] mod Lambda(fold[m]) for
    every relay m, on every digit column."""
    C = _times(A, T) * _below(quant, V.shape)
    return np.mod(V - C, gamma) * ~_below(fold, V.shape)


def _solve_layer(asg, sources, relays, V, band, phase: str, iteration: int) -> np.ndarray:
    try:
        inv = mat_inverse(residual_submatrix(asg.field_image, sources, relays))
    except SingularMatrixError:
        raise SingularResidualError(phase, iteration) from None
    U = V[relays, ..., band]
    return _times(inv.entries, U) % asg.spec.gamma


def srq(v, asg, common_shaping_level: int):
    """Each iteration cancels every source recovered so far from every
    relay, quantized at the relay's level and folded at the common shaping
    level, then solves one coding layer."""
    V0 = _relay_digits(v, asg)
    L = asg.L
    coding = asg.codingLevels
    quant = [asg.quantize_level_of(m) for m in range(1, L + 1)]
    T = np.zeros_like(V0)
    for j in range(1, L + 1):
        V = _cancel(V0, asg.A, T, asg.spec.gamma, quant, [common_shaping_level] * L)
        band = np.s_[coding[j] if j < L else common_shaping_level : coding[j - 1]]
        sources, relays = residual_sets(asg.pi_c, asg.pi_d, j, "d")
        T[sources, ..., band] = _solve_layer(asg, sources, relays, V, band, "quantization", j)
    return _points(asg.spec, T)


def srm(v, dithers, asg, fine_level: int = None):
    """Each iteration solves one codeword, then cancels t - Q_{k_i}(t - d)
    from every relay on every digit column and folds each relay modulo its
    own modulo lattice."""
    V = _relay_digits(v, asg)
    spec = asg.spec
    L = asg.L
    if fine_level is None:
        fine_level = asg.codingLevels[0]
    D = _dither_digits(dithers, asg, V.shape[1:-1])
    fold = [asg.modulo_level_of(m) for m in range(1, L + 1)]
    T = np.zeros_like(V)
    for i in range(1, L + 1):
        k_i = asg.shapingLevels[i - 1]
        sources, relays = residual_sets(asg.pi_s, asg.pi_e, i, "e")
        W = _solve_layer(asg, sources, relays, V, np.s_[k_i:fine_level], "modulo", i)
        l_star = asg.pi_s.index(i) + 1
        T[l_star - 1, ..., k_i:fine_level] = W[np.count_nonzero(sources[: l_star - 1])]
        if i < L:
            t = T[l_star - 1]
            t_tilde = t - (t - D[l_star - 1]) * (np.arange(spec.kMax) < k_i)
            V = _cancel(V, asg.A[:, [l_star - 1]], t_tilde[None], spec.gamma, [spec.kMax] * L, fold)
    return _points(spec, T)


def srmq(v, dithers, asg):
    """srq above the finest shaping level, cancellation of its result from
    every relay, dithers shifted by it, srm below, and the sum reduced
    modulo each source's shaping lattice."""
    V0 = _relay_digits(v, asg)
    spec = asg.spec
    k_b1 = asg.shapingLevels[0]
    t_quan = srq(_points(spec, V0 * ~_below([k_b1] * asg.L, V0.shape)), asg, k_b1)
    Tq = np.stack([t.digits for t in t_quan])
    quant = [asg.quantize_level_of(m) for m in range(1, asg.L + 1)]
    fold = [asg.modulo_level_of(m) for m in range(1, asg.L + 1)]
    V_quan = _cancel(V0, asg.A, Tq, spec.gamma, quant, fold)
    D_quan = np.mod(_dither_digits(dithers, asg, V0.shape[1:-1]) - Tq, spec.gamma)
    t_mod = srm(_points(spec, V_quan), _points(spec, D_quan), asg, fine_level=k_b1)
    Tm = np.stack([t.digits for t in t_mod])
    shaping = [asg.shaping_level(l) for l in range(1, asg.L + 1)]
    return _points(spec, np.mod(Tq + Tm, spec.gamma) * ~_below(shaping, Tq.shape))
