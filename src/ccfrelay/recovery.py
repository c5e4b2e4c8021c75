"""Successive recovery of source codewords at the destination.

Three algorithms, all exact over the digit lattice chain:

- srq: asymmetric quantization with a common shaping lattice, the
  assignment's finest shaping lattice; peels one coding layer per
  iteration from fine to coarse.
- srm: asymmetric modulo with trivial quantization; recovers one whole
  codeword per iteration from the finest shaping lattice to the coarsest.
- srmq: both asymmetries; an srq pass above the finest shaping lattice
  and an srm pass below it.

Every relay output and every recovered codeword is a canonical residue:
its integer part is zero, so its digits fix it.  The digits of a sum, an
integer multiple, a quantization or a residue modulo a chain lattice
depend only on the operands' digits; integer parts only ever feed the
integer part of a result, which reduction to a canonical residue drops.
The recovery therefore runs on int64 digit arrays over F_gamma of shape
(L, batch..., columns), row m-1 (or l-1) belonging to relay m (or source
l), and builds ChainPoints only for its results, which all share the one
read-only zero integer part of their shape (lattice._zero_part).

Digit columns are independent: a result's digit at one position depends
only on the operands' digits there.  So only the columns a later
iteration reads are computed (the band invariant):

- srq iteration j reads coding layer j, from coding level j+1 (the common
  shaping level, shapingLevels[0], for j = L) up to coding level j.  The
  layers recovered before lie at or above coding level j, so their
  combination is zero there: srq cancels nothing.
- srm iteration i reads from shaping level i up to the fine level, on
  relays whose modulo levels lie at or below shaping level i: no
  iteration reads a column below shapingLevels[-1], and none folds.
- srmq's srq pass reads and fills only digits at or above the finest
  shaping level, and its srm pass only digits below it.

srq copies the relay digits it reads once and no others: per iteration,
its residual relays' digits in that iteration's band, all within
[shapingLevels[0], codingLevels[0]).  srm is a linear map over F_gamma in
every column, from the relay and dither digits there to the source
digits, and a column's treatment changes only at shaping levels.  So all
columns of a digit band, between consecutive shaping levels and capped at
the fine level, share one relay matrix and one dither matrix.  They are
compiled once per assignment and fine level, by running the iterative
form (_srm_digits: solve, write, cancel, reduce) on the 2L unit inputs;
a call stacks each band's relay digits once and applies them with one
product (plus one for the dithers), one reduction and one write.

Each iteration solves a residual system that depends only on the
assignment, never on the relay outputs.  Its inverse over F_gamma is
computed once per assignment and kind (srq's or srm's), on the first call
that needs it, and kept on the assignment, next to srm's band matrices;
every call runs only the digit work.  A singular system raises a fresh
SingularResidualError, with the phase and iteration where it appears, on
every call.

Inputs may carry leading batch axes; every iteration is vectorized over
the batch.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import SingularMatrixError, SingularResidualError
from .galois import int64_array, mat_inverse, reduce_mod, residual_sets, residual_submatrix
from .lattice import _point, _zero_part
from .lattice import mod_level, point_add, point_scale, quantize_level  # noqa: F401  (perfbench/spans.py wraps these recovery bindings)
from .pipeline import SchemeAssignment


def _relay_batch(v, asg: SchemeAssignment) -> tuple:
    """Check the relay outputs against the assignment; their batch shape."""
    asg.check_points(v, "relay output")
    shape = v[0].digits.shape
    if any(v_m.digits.shape != shape for v_m in v):
        raise ValueError("relay outputs differ in batch shape")
    return shape[:-1]


def _stack(points, band) -> np.ndarray:
    """The digit columns ``band`` of the points, stacked (np.array copies a
    list of arrays as fast as np.stack, with less overhead per call)."""
    return np.array([x.digits[..., band] for x in points])


def _dither_digits(dithers, asg: SchemeAssignment, batch: tuple) -> list:
    """Each source's dither digits, broadcast to the batch shape, or None for
    the zero dither (None for the list or an entry)."""
    if dithers is None:
        return [None] * asg.L
    asg.check_points(dithers, "dither")
    return [None if d is None else np.broadcast_to(d.digits, batch + (asg.spec.kMax,)) for d in dithers]


def _points(spec, D: np.ndarray) -> list:
    """Canonical residues with the digit rows of D, sharing one zero
    integer part."""
    zeros = _zero_part(D.shape[1:-1] + (spec.n,))
    return [_point(spec, d, zeros) for d in D]


def _plan(asg: SchemeAssignment, kind: str) -> tuple:
    """The residual system of every iteration of one kind ("d" for srq,
    "e" for srm): (sources, relays, inverse entries), the entries None for
    a singular system.  The systems depend only on the assignment, so each
    kind's are solved once, on first use, and kept in the assignment's
    instance dict, where functools.cached_property keeps field_image."""
    key = f"_residual_plan_{kind}"
    plan = asg.__dict__.get(key)
    if plan is None:
        labels = (asg.pi_c, asg.pi_d) if kind == "d" else (asg.pi_s, asg.pi_e)
        systems = []
        for t in range(1, asg.L + 1):
            sources, relays = residual_sets(*labels, t, kind)
            sources.setflags(write=False)
            relays.setflags(write=False)
            try:
                inv = mat_inverse(residual_submatrix(asg.field_image, sources, relays)).entries
            except SingularMatrixError:
                inv = None
            systems.append((sources, relays, inv))
        plan = asg.__dict__[key] = tuple(systems)
    return plan


def _solve_layer(asg: SchemeAssignment, inv, U, phase: str, iteration: int) -> np.ndarray:
    """Digits of the residual sources in one digit band: the inverse of the
    residual matrix times U, the residual relays' digits in that band."""
    if inv is None:
        raise SingularResidualError(phase, iteration)
    return reduce_mod(inv @ U.reshape(len(U), -1), asg.spec.gamma).reshape(U.shape)


def srq(v, asg: SchemeAssignment):
    """Successive recovery under asymmetric quantization (common shaping).

    The common shaping lattice is the assignment's finest one, at level
    ``asg.shapingLevels[0]``.  ``v[m-1]`` must be the canonical residue of
    the quantized combination of relay m modulo that lattice.  Returns the
    recovered codewords, indexed by source.  Each layer is solved straight
    from the relay digits (band invariant).
    """
    batch = _relay_batch(v, asg)
    L = asg.L
    coding = asg.codingLevels

    # T[l-1] holds the digits of source l, one coding layer per iteration;
    # each layer stacks only its residual relays' digits in its band
    T = np.zeros((L,) + batch + (asg.spec.kMax,), dtype=np.int64)
    for j, (sources, relays, inv) in enumerate(_plan(asg, "d"), 1):
        band = np.s_[coding[j] if j < L else asg.shapingLevels[0] : coding[j - 1]]
        U = _stack(itertools.compress(v, relays), band)
        T[sources, ..., band] = _solve_layer(asg, inv, U, "quantization", j)
    return _points(asg.spec, T)


def _srm_digits(V: np.ndarray, D: list, asg: SchemeAssignment, fine_level: int) -> np.ndarray:
    """The iterative srm on digit arrays: the source digits (L, batch...,
    kMax) from V, the relay digits in columns [0, fine_level), cancelled in
    place, and D, each source's dither digits or None."""
    T = np.zeros(V.shape[:-1] + (asg.spec.kMax,), dtype=np.int64)
    for i, (sources, relays, inv) in enumerate(_plan(asg, "e"), 1):
        k_i = asg.shapingLevels[i - 1]
        W = _solve_layer(asg, inv, V[relays, ..., k_i:fine_level], "modulo", i)
        l = asg.pi_s.index(i)
        T[l, ..., k_i:fine_level] = W[np.count_nonzero(sources[:l])]
        if i < asg.L:
            # t - Q_{k_i}(t - d): the dither below k_i (T[l] is zero there), t above it
            t = T[l, ..., :fine_level]
            if D[l] is not None:
                t = np.concatenate([D[l][..., :k_i], t[..., k_i:]], axis=-1)
            V -= np.multiply.outer(asg.A[:, l], t)
            reduce_mod(V, asg.spec.gamma)
    return T


def _srm_bands(asg: SchemeAssignment, fine_level: int) -> tuple:
    """srm at one fine level, compiled: (bands, singular).  bands holds
    (lo, hi, R, E) per nonempty digit band [lo, hi); each of its columns
    maps the relay digits u and dither digits e there to R u + E e, so R
    and E are _srm_digits' responses to the unit inputs.  singular is None,
    or the (phase, iteration) of a singular residual system, with no bands.
    Compiled on first use and kept in the assignment's instance dict, next
    to _plan's inverses."""
    key = f"_srm_bands_{fine_level}"
    compiled = asg.__dict__.get(key)
    if compiled is None:
        L, kMax = asg.L, asg.spec.kMax
        # input u < L sets relay u's digits to one, input L + l source l's dither's
        unit = np.eye(2 * L, dtype=np.int64)
        V = np.repeat(unit[:L, :, None], fine_level, axis=-1)
        D = [np.broadcast_to(unit[L + l, :, None], (2 * L, kMax)) for l in range(L)]
        try:
            T = _srm_digits(V, D, asg, fine_level)
        except SingularResidualError as exc:
            compiled = ((), (exc.phase, exc.iteration))
        else:
            edges = (fine_level,) + asg.shapingLevels
            bands = tuple((lo, hi, T[:, :L, lo], T[:, L:, lo]) for hi, lo in zip(edges, edges[1:]) if lo < hi)
            compiled = (bands, None)
        asg.__dict__[key] = compiled
    return compiled


def srm(v, dithers, asg: SchemeAssignment, fine_level: int = None):
    """Successive recovery under asymmetric modulo (trivial quantization).

    ``v[m-1]`` must be the canonical residue of relay m's combination
    modulo its own modulo lattice.  ``dithers`` is a per-source list of
    ChainPoints or None for the all-zero dithers.  Only a dither's digits
    below its source's shaping level are read (those Q_{k_s}(d) keeps); a
    dither already reduced modulo its shaping lattice has none there and
    leaves the result unchanged: it reads as the zero dither.
    ``fine_level`` is the digit level of the common fine lattice the
    codewords live on, from the finest shaping level to kMax; it defaults
    to the finest coding level.  Each digit band below the fine level is
    one product with the band's compiled matrices (band invariant).
    """
    batch = _relay_batch(v, asg)
    spec = asg.spec
    fine_level = asg.codingLevels[0] if fine_level is None else int64_array(fine_level, "fine level").item()
    if not asg.shapingLevels[0] <= fine_level <= spec.kMax:
        raise ValueError(f"fine level {fine_level} outside [{asg.shapingLevels[0]}, {spec.kMax}]")
    D = _dither_digits(dithers, asg, batch)
    bands, singular = _srm_bands(asg, fine_level)
    if singular:
        raise SingularResidualError(*singular)
    dithered = [l for l, d in enumerate(D) if d is not None]

    T = np.zeros((asg.L,) + batch + (spec.kMax,), dtype=np.int64)
    for lo, hi, R, E in bands:
        U = _stack(v, np.s_[lo:hi])
        X = R @ U.reshape(len(U), -1)
        if dithered:
            # reduced first: for gamma near 2^31 a sum of 2L products
            # could leave the int64 range
            reduce_mod(X, spec.gamma)
            X += E[:, dithered] @ np.array([D[l][..., lo:hi] for l in dithered]).reshape(len(dithered), -1)
        T[..., lo:hi] = reduce_mod(X, spec.gamma).reshape(U.shape)
    return _points(spec, T)


def srmq(v, dithers, asg: SchemeAssignment):
    """Successive recovery under joint asymmetric quantization and modulo.

    srq, whose common shaping level is the finest one k_b1, recovers the
    digits at or above k_b1, and srm with fine level k_b1 those below it.
    Neither pass reads a column the other fills (band invariant), so both
    read the relay outputs and dithers as they came and their results add.
    Dithers are read as in srm: only their digits below each source's
    shaping level.
    """
    k_b1 = asg.shapingLevels[0]
    t_quan = srq(v, asg)
    t_mod = srm(v, dithers, asg, fine_level=k_b1)
    return [_point(asg.spec, q.digits + m.digits, q.ints) for q, m in zip(t_quan, t_mod)]
