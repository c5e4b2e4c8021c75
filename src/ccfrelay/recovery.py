"""Successive recovery of source codewords at the destination.

Three algorithms, all exact over the digit lattice chain:

- srq: asymmetric quantization with a common shaping lattice; peels one
  coding layer per iteration from fine to coarse.
- srm: asymmetric modulo with trivial quantization; recovers one whole
  codeword per iteration from the finest shaping lattice to the coarsest.
- srmq: both asymmetries; an srq pass above the finest shaping lattice,
  cancellation, then an srm pass below it.

Every relay output and every recovered codeword is a canonical residue:
its integer part is zero, so its digits fix it.  The digits of a sum, an
integer multiple, a quantization or a residue modulo a chain lattice
depend only on the operands' digits; integer parts only ever feed the
integer part of a result, which reduction to a canonical residue drops.
The recovery therefore runs on int64 digit arrays over F_gamma of shape
(L, batch..., kMax), row m-1 (or l-1) belonging to relay m (or source l),
and builds ChainPoints only for its results.

Inputs may carry leading batch axes; every iteration is vectorized over
the batch.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError, SingularResidualError, SpecMismatchError
from .galois import mat_inverse, residual_sets, residual_submatrix
from .lattice import _point
from .lattice import mod_level, point_add, point_scale, quantize_level  # noqa: F401  (perfbench/spans.py wraps these recovery bindings)
from .pipeline import SchemeAssignment


def _relay_digits(v, asg: SchemeAssignment) -> np.ndarray:
    """Check the relay outputs against the assignment; stack their digits."""
    if len(v) != asg.L:
        raise ValueError(f"expected {asg.L} relay outputs, got {len(v)}")
    if any(v_m.spec != asg.spec for v_m in v):
        raise SpecMismatchError("relay output spec differs from assignment spec")
    return np.stack([v_m.digits for v_m in v])


def _dither_digits(dithers, asg: SchemeAssignment, batch: tuple) -> np.ndarray:
    """Stacked dither digits; None (for the list or an entry) is the zero dither."""
    D = np.zeros((asg.L,) + batch + (asg.spec.kMax,), dtype=np.int64)
    for l, d in enumerate(dithers or ()):
        if d is not None:
            if d.spec != asg.spec:
                raise SpecMismatchError("dither spec differs from assignment spec")
            D[l] = d.digits
    return D


def _points(spec, D: np.ndarray) -> list:
    """Canonical residues with the digit rows of D."""
    zeros = np.zeros(D.shape[1:-1] + (spec.n,), dtype=np.int64)
    return [_point(spec, d, zeros) for d in D]


def _below(levels, shape: tuple) -> np.ndarray:
    """Per-row mask of the digit positions below that row's level, shaped to
    broadcast over a digit array of the given shape."""
    mask = np.arange(shape[-1]) < np.asarray(levels)[:, None]
    return mask.reshape((len(levels),) + (1,) * (len(shape) - 2) + (shape[-1],))


def _times(M, X) -> np.ndarray:
    """The integer matrix M applied along the leading axis of X."""
    return (M @ X.reshape(len(X), -1)).reshape((len(M),) + X.shape[1:])


def _cancel(V, A, T, gamma: int, quant, fold) -> np.ndarray:
    """Digits of [v_m - Q_quant[m](sum_l a_ml t_l)] mod Lambda(fold[m]) for
    every relay m, from relay digits V and source digits T."""
    C = _times(A, T) * _below(quant, V.shape)
    return np.mod(V - C, gamma) * ~_below(fold, V.shape)


def _solve_layer(asg: SchemeAssignment, sources, relays, V, band, phase: str, iteration: int) -> np.ndarray:
    """Digits of the residual sources in one digit band: the inverse of the
    residual matrix times the residual relays' digits."""
    try:
        inv = mat_inverse(residual_submatrix(asg.field_image, sources, relays))
    except SingularMatrixError:
        raise SingularResidualError(phase, iteration) from None
    U = V[relays, ..., band]
    return _times(inv.entries, U) % asg.spec.gamma


def srq(v, asg: SchemeAssignment, common_shaping_level: int):
    """Successive recovery under asymmetric quantization (common shaping).

    ``v[m-1]`` must be the canonical residue of the quantized combination
    of relay m modulo the common shaping lattice.  Returns the recovered
    codewords, indexed by source.
    """
    V0 = _relay_digits(v, asg)
    L = asg.L
    coding = asg.codingLevels
    if coding[-1] < common_shaping_level:
        raise ValueError("common shaping lattice must be coarser than every coding lattice")
    quant = [asg.quantize_level_of(m) for m in range(1, L + 1)]

    # T[l-1] holds the digits of source l recovered so far, one coding
    # layer (digit band) per iteration.
    T = np.zeros_like(V0)
    for j in range(1, L + 1):
        V = _cancel(V0, asg.A, T, asg.spec.gamma, quant, [common_shaping_level] * L)
        band = np.s_[coding[j] if j < L else common_shaping_level : coding[j - 1]]
        sources, relays = residual_sets(asg.pi_c, asg.pi_d, j, "d")
        T[sources, ..., band] = _solve_layer(asg, sources, relays, V, band, "quantization", j)
    return _points(asg.spec, T)


def srm(v, dithers, asg: SchemeAssignment, fine_level: int = None):
    """Successive recovery under asymmetric modulo (trivial quantization).

    ``v[m-1]`` must be the canonical residue of relay m's combination
    modulo its own modulo lattice.  ``dithers`` is a per-source list of
    ChainPoints or None for the all-zero dithers.  ``fine_level`` is the
    digit level of the common fine lattice the codewords live on; it
    defaults to the finest coding level of the assignment.
    """
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
            # t - Q_{k_i}(t - d); relays that leave the residual sets here
            # are never read again
            t = T[l_star - 1]
            t_tilde = t - (t - D[l_star - 1]) * (np.arange(spec.kMax) < k_i)
            V = _cancel(V, asg.A[:, [l_star - 1]], t_tilde[None], spec.gamma, [spec.kMax] * L, fold)
    return _points(spec, T)


def srmq(v, dithers, asg: SchemeAssignment):
    """Successive recovery under joint asymmetric quantization and modulo.

    Runs srq on the residues above the finest shaping lattice, cancels the
    recovered fine parts, shifts the dithers, and finishes with srm on the
    remaining coarse system.
    """
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
