"""End-to-end signal path: encode, combine at relays, compress.

Levels are indexed by chain position: codingLevels[j-1] is the digit level
of the j-th coding lattice (position 1 is the finest), and likewise for
shapingLevels.  A source l codes at chain position pi_c(l) and shapes at
pi_s(l); a relay m quantizes at position pi_d(m) and folds modulo the
shaping position pi_e(m).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DecodeFailure, SpecMismatchError
from .galois import FieldMatrix, check_permutation, int64_array
from .lattice import ChainPoint, ChainSpec, LevelPair, _point, _zero_part, combine, encode_message, real_embed
from .lattice import mod_level, point_add, point_scale, quantize_level  # noqa: F401  (perfbench/spans.py wraps these pipeline bindings)


@dataclass(frozen=True)
class SchemeAssignment:
    """Full configuration of one coding scheme over a chain specification."""

    spec: ChainSpec
    pi_c: tuple
    pi_s: tuple
    pi_d: tuple
    pi_e: tuple
    A: np.ndarray
    codingLevels: tuple
    shapingLevels: tuple
    powers: tuple
    budgets: tuple

    def __post_init__(self):
        L = len(self.pi_c)
        for name in ("pi_c", "pi_s", "pi_d", "pi_e"):
            object.__setattr__(self, name, check_permutation(getattr(self, name), L, name))
        # a frozen copy: the caller's array stays writable, and no handle
        # to it can change the A that field_image and the recovery's
        # residual systems were computed from
        A = int64_array(self.A, "A").copy()
        if A.shape != (L, L):
            raise ValueError(f"A must be {L}x{L}")
        object.__setattr__(self, "A", A)
        A.setflags(write=False)
        cl = tuple(int64_array(self.codingLevels, "coding levels").tolist())
        sl = tuple(int64_array(self.shapingLevels, "shaping levels").tolist())
        if len(cl) != L or len(sl) != L:
            raise ValueError("level lists must have length L")
        if any(a < b for a, b in zip(cl, cl[1:])) or any(a < b for a, b in zip(sl, sl[1:])):
            raise ValueError("chain levels must be non-increasing in position")
        if cl[0] > self.spec.kMax:
            raise ValueError("levels must lie within the chain")
        if sl[0] > cl[-1]:
            raise ValueError("finest shaping level must not exceed coarsest coding level")
        object.__setattr__(self, "codingLevels", cl)
        object.__setattr__(self, "shapingLevels", sl)
        # each source's levels, built once: LevelPair checks 0 <= shaping < coding
        pairs = tuple(LevelPair(cl[c - 1], sl[s - 1]) for c, s in zip(self.pi_c, self.pi_s))
        object.__setattr__(self, "_level_pairs", pairs)
        p = tuple(float(v) for v in self.powers)
        P = tuple(float(v) for v in self.budgets)
        if len(p) != L or len(P) != L:
            raise ValueError("power vectors must have length L")
        # chained, so that a NaN or infinite power or budget fails it too
        if not all(0 < pv <= bv + 1e-12 < np.inf for pv, bv in zip(p, P)):
            raise ValueError("powers must satisfy 0 < p_l <= P_l < inf")
        object.__setattr__(self, "powers", p)
        object.__setattr__(self, "budgets", P)

    @functools.cached_property
    def L(self) -> int:
        return len(self.pi_c)

    def check_points(self, points, what: str) -> None:
        """Raise unless there is one point per source (or relay), each of
        this assignment's spec; only a dither may be None (the zero dither)."""
        if len(points) != self.L:
            raise ValueError(f"expected {self.L} {what}s, got {len(points)}")
        for i, x in enumerate(points, 1):
            if x is None:
                if what != "dither":
                    raise ValueError(f"{what} {i} is None; only a dither may be None")
            elif x.spec is not self.spec and x.spec != self.spec:
                raise SpecMismatchError(f"{what} spec differs from assignment spec")

    def index0(self, i: int) -> int:
        """0-based position of the 1-based source or relay index i."""
        if not 1 <= i <= self.L:
            raise ValueError(f"index {i} outside 1..{self.L}")
        return i - 1

    @functools.cached_property
    def field_image(self) -> FieldMatrix:
        """The coefficient matrix reduced into F_gamma."""
        return FieldMatrix(self.A, self.spec.gamma)

    def level_pair(self, l: int) -> LevelPair:
        return self._level_pairs[self.index0(l)]

    def coding_level(self, l: int) -> int:
        return self.level_pair(l).kCoding

    def shaping_level(self, l: int) -> int:
        return self.level_pair(l).kShaping

    def quantize_level_of(self, m: int) -> int:
        return self.codingLevels[self.pi_d[self.index0(m)] - 1]

    def modulo_level_of(self, m: int) -> int:
        return self.shapingLevels[self.pi_e[self.index0(m)] - 1]

    def message_length(self, l: int) -> int:
        return self.coding_level(l) - self.shaping_level(l)


@dataclass(frozen=True)
class ChannelInstance:
    """One realization of the two-hop channel."""

    H: np.ndarray
    g: np.ndarray
    P: np.ndarray
    P_R: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        g = np.asarray(self.g, dtype=float)
        P = np.asarray(self.P, dtype=float)
        P_R = np.asarray(self.P_R, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        L = H.shape[0]
        if g.shape != (L,) or P.shape != (L,) or P_R.shape != (L,):
            raise ValueError("g, P, P_R must have length L")
        for arr in (H, g, P, P_R):
            if not np.all(np.isfinite(arr)):
                raise ValueError("channel entries must be finite")
        if np.any(P <= 0) or np.any(P_R < 0):
            raise ValueError("source powers P must be positive and relay powers P_R non-negative")
        for name, arr in (("H", H), ("g", g), ("P", P), ("P_R", P_R)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def L(self) -> int:
        return self.H.shape[0]


def source_encode(w, l: int, asg: SchemeAssignment) -> ChainPoint:
    """Codeword of source l; with zero dithers it is also the transmit point."""
    return encode_message(w, asg.level_pair(l), asg.spec)


def relay_combination(t, m: int, asg: SchemeAssignment) -> ChainPoint:
    """Exact integer combination sum_l a_ml t_l decoded at relay m."""
    asg.check_points(t, "codeword")
    return combine(t, asg.A[asg.index0(m)])


def compress(delta: ChainPoint, m: int, asg: SchemeAssignment) -> ChainPoint:
    """Quantize onto the relay's coarse lattice, then fold modulo its
    shaping-chain lattice: mod_level(quantize_level(delta, kq), ke), which
    keeps the digits at positions ke <= k < kq and the shared zero integer
    part."""
    if delta.spec is not asg.spec and delta.spec != asg.spec:
        raise SpecMismatchError("relay combination spec differs from assignment spec")
    band = np.s_[asg.modulo_level_of(m) : asg.quantize_level_of(m)]
    digits = np.zeros(delta.digits.shape, dtype=np.int64)
    digits[..., band] = delta.digits[..., band]
    return _point(asg.spec, digits, _zero_part(delta.ints.shape))


def mmse_alpha(h_m, a_m, p) -> float:
    """Scaling coefficient minimizing the effective-noise power."""
    h = np.asarray(h_m, dtype=float)
    a = np.asarray(a_m, dtype=float)
    p = np.asarray(p, dtype=float)
    return float(h @ (p * a) / (1.0 + h @ (p * h)))


def effective_noise_power(h_m, a_m, p, alpha: float) -> float:
    """alpha^2 plus the power of the residual self-interference."""
    h = np.asarray(h_m, dtype=float)
    a = np.asarray(a_m, dtype=float)
    p = np.asarray(p, dtype=float)
    return float(alpha * alpha + p @ (alpha * h - a) ** 2)


def mmse_denominator(h_m, p):
    """1 + h (p h): the denominator of the optimal alpha and of the closed
    form of the effective-noise power, along the last axis, broadcast over
    any leading batch axes."""
    return 1.0 + np.vecdot(h_m, p * h_m)


def mmse_noise_power(h_m, a_m, p, denom=None):
    """Closed form of the effective-noise power at the optimal alpha.

    The arguments hold a channel row, a coefficient row and the powers
    along their last axis and broadcast over any leading batch axes.
    ``denom``, when given, is ``mmse_denominator(h_m, p)`` computed
    before, broadcast against the batch axes."""
    h = np.asarray(h_m, dtype=float)
    a = np.asarray(a_m, dtype=float)
    p = np.asarray(p, dtype=float)
    pa = p * a
    if denom is None:
        denom = mmse_denominator(h, p)
    return np.vecdot(a, pa) - np.float_power(np.vecdot(h, pa), 2) / denom


def finest_participating_level(m: int, asg: SchemeAssignment) -> int:
    """Digit level of the finest coding lattice among sources relay m combines."""
    levels = [asg.coding_level(l) for l, a_ml in enumerate(asg.A[asg.index0(m)], 1) if a_ml != 0]
    if not levels:
        return 0
    return max(levels)


def noisy_compute_demo(t, m: int, asg: SchemeAssignment, H, noise_std: float, rng) -> ChainPoint:
    """Desk-scale demonstration of noisy relay computation.

    Scales the noisy received vector by the MMSE coefficient, then finds the
    nearest point of the finest participating lattice by exhaustive search
    over its gamma^k digit cosets (the integer part has a per-coset closed
    form).  Raises DecodeFailure on a near-tie.
    """
    i = asg.index0(m)
    asg.check_points(t, "codeword")
    H = np.asarray(H, dtype=float)
    if H.shape != (asg.L, asg.L):
        raise ValueError(f"expected a ({asg.L}, {asg.L}) channel, got {H.shape}")
    spec = asg.spec
    h = H[i]
    a = asg.A[i].astype(float)
    p = np.asarray(asg.powers, dtype=float)
    # noise-matched scaling: with variance noise_std^2 instead of the unit
    # variance assumed by mmse_alpha, so vanishing noise gives alpha -> 1
    # for an integer-valued channel row
    alpha = float(h @ (p * a) / (noise_std**2 + h @ (p * h)))
    y = sum(h[l] * real_embed(t[l]) for l in range(asg.L))
    y = y + rng.normal(0.0, noise_std, size=spec.n)
    s = alpha * y
    kf = finest_participating_level(m, asg)
    combos = np.array(list(itertools.product(range(spec.gamma), repeat=kf)), dtype=np.int64)
    digits = np.zeros((combos.shape[0], spec.kMax), dtype=np.int64)
    digits[:, :kf] = combos
    cw = spec.code_word(digits) / spec.gamma
    z = np.rint(s - cw).astype(np.int64)
    cand = cw + z
    dist = np.sum((cand - s) ** 2, axis=1)
    order = np.argsort(dist)
    if dist.shape[0] > 1 and dist[order[1]] - dist[order[0]] < 1e-9:
        raise DecodeFailure("nearest lattice point ambiguous")
    best = order[0]
    return ChainPoint(spec, digits[best], z[best])
