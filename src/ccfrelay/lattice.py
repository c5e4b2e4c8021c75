"""Exact nested lattice chain built from a systematic linear code.

A chain specification fixes a prime gamma, a dimension n, a generator
matrix G (n x kMax, systematic) and a scale beta.  Level k in [0, kMax]
defines the lattice

    Lambda(k) = beta * (gamma^{-1} kappa(G_k F_gamma^k) + Z^n),

where G_k is the first k columns of G.  Larger k means finer lattice;
Lambda(0) = beta * Z^n.  Points of the finest lattice Lambda(kMax) are
stored exactly as a digit vector over F_gamma plus an integer part:

    x = beta * (gamma^{-1} kappa(G d) + z).

Because G is systematic the pair (d, z) is the unique such representation,
so equality of points is equality of arrays.  Digit and integer arrays may
carry arbitrary leading batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, NotInCodebookError, SpecMismatchError
from .galois import FieldMatrix, int64_array


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of a nested lattice chain."""

    gamma: int
    n: int
    kMax: int
    G: FieldMatrix
    scale: float = 1.0

    def __post_init__(self):
        if not 1 <= self.kMax <= self.n:
            raise ValueError(f"kMax must be in [1, n], got {self.kMax} with n={self.n}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.G.modulus != self.gamma:
            raise ValueError("generator modulus differs from chain modulus")
        if self.G.rows != self.n or self.G.cols != self.kMax:
            raise ValueError(f"generator must be {self.n}x{self.kMax}")
        if not np.array_equal(self.G.entries[: self.kMax], np.eye(self.kMax, dtype=np.int64)):
            raise ValueError("generator must be systematic (identity top block)")

    def code_word(self, digits: np.ndarray) -> np.ndarray:
        """kappa(G digits) for integer digit arrays with a trailing kMax
        axis.  G is systematic, so only its rows below the identity block
        are multiplied out."""
        parity = digits @ self.G.entries[self.kMax :].T
        return np.mod(np.concatenate((digits, parity), axis=-1), self.gamma)


@dataclass(frozen=True)
class LevelPair:
    """Coding/shaping level pair with the shaping lattice strictly coarser."""

    kCoding: int
    kShaping: int

    def __post_init__(self):
        if not 0 <= self.kShaping < self.kCoding:
            raise ValueError(f"need 0 <= kShaping < kCoding, got {self}")


@dataclass(frozen=True)
class ChainPoint:
    """Exact point of the finest chain lattice, possibly batched."""

    spec: ChainSpec
    digits: np.ndarray
    ints: np.ndarray

    def __post_init__(self):
        d = int64_array(self.digits, "digits")
        z = int64_array(self.ints, "integer part")
        if d.shape[-1] != self.spec.kMax:
            raise ValueError(f"digit axis must have length kMax={self.spec.kMax}")
        if z.shape[-1] != self.spec.n:
            raise ValueError(f"integer axis must have length n={self.spec.n}")
        if d.shape[:-1] != z.shape[:-1]:
            raise ValueError("digit and integer batch shapes differ")
        if np.any(d < 0) or np.any(d >= self.spec.gamma):
            raise ValueError("digits must be canonical representatives in [0, gamma)")
        # freeze copies of the caller's writeable arrays, never the arrays
        # themselves; an input that is already read-only is kept
        d = d.copy() if d is self.digits and d.flags.writeable else d
        z = z.copy() if z is self.ints and z.flags.writeable else z
        object.__setattr__(self, "digits", d)
        object.__setattr__(self, "ints", z)
        d.setflags(write=False)
        z.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainPoint):
            return NotImplemented
        return (
            self.spec == other.spec
            and np.array_equal(self.digits, other.digits)
            and np.array_equal(self.ints, other.ints)
        )

    def __getitem__(self, idx) -> "ChainPoint":
        return ChainPoint(self.spec, self.digits[idx], self.ints[idx])


def _point(spec: ChainSpec, digits: np.ndarray, ints: np.ndarray) -> ChainPoint:
    """ChainPoint without the checks of ChainPoint.__post_init__, for
    results the library built itself: canonical int64 digits and an int64
    integer part with matching batch shapes."""
    x = object.__new__(ChainPoint)
    x.__dict__.update(spec=spec, digits=digits, ints=ints)
    digits.setflags(write=False)
    ints.setflags(write=False)
    return x


def _require_same_spec(a: ChainPoint, b: ChainPoint) -> None:
    if a.spec != b.spec:
        raise SpecMismatchError("points belong to different chain specifications")


def combine(points, coeffs) -> ChainPoint:
    """Exact integer combination sum_i c_i x_i: the field combination d of the
    digits, with integer carries (sum_i c_i kappa(G d_i) - kappa(G d)) / gamma,
    an exact division because the two code word terms agree modulo gamma."""
    spec = points[0].spec
    raw = words = ints = 0
    for c, x in zip(map(int, coeffs), points, strict=True):
        _require_same_spec(points[0], x)
        raw = raw + c * x.digits
        words = words + c * spec.code_word(x.digits)
        ints = ints + c * x.ints
    digits = np.mod(raw, spec.gamma)
    return _point(spec, digits, ints + (words - spec.code_word(digits)) // spec.gamma)


def point_add(a: ChainPoint, b: ChainPoint) -> ChainPoint:
    """Exact group addition."""
    return combine((a, b), (1, 1))


def point_scale(a: ChainPoint, c: int) -> ChainPoint:
    """Exact integer scaling; negative multipliers supported."""
    return combine((a,), (c,))


def point_sub(a: ChainPoint, b: ChainPoint) -> ChainPoint:
    return combine((a, b), (1, -1))


def mod_level(x: ChainPoint, k: int) -> ChainPoint:
    """Canonical representative of x modulo Lambda(k).

    Zeroes the first k digits and the whole integer part; the difference
    from x lies in Lambda(k) because the removed head is a Lambda(k) point
    up to integer carries.
    """
    spec = x.spec
    if not 0 <= k <= spec.kMax:
        raise ValueError(f"level must be in [0, kMax], got {k}")
    digits = x.digits.copy()
    digits[..., :k] = 0
    return _point(spec, digits, np.zeros_like(x.ints))


def quantize_level(x: ChainPoint, k: int) -> ChainPoint:
    """Quantization of x onto Lambda(k): x minus its canonical residue."""
    return point_sub(x, mod_level(x, k))


def encode_message(w, lp: LevelPair, spec: ChainSpec) -> ChainPoint:
    """Map message digits to the codebook point with those digits.

    The message occupies digit positions kShaping+1 .. kCoding; all other
    digits and the integer part are zero, which is already the canonical
    residue modulo the shaping lattice.
    """
    w = int64_array(w, "message digits")
    width = lp.kCoding - lp.kShaping
    if w.shape[-1] != width:
        raise LengthMismatchError(f"message length {w.shape[-1]} != {width}")
    if lp.kCoding > spec.kMax:
        raise ValueError("coding level exceeds kMax")
    if np.any(w < 0) or np.any(w >= spec.gamma):
        raise ValueError("message digits must lie in [0, gamma)")
    shape = w.shape[:-1]
    digits = np.zeros(shape + (spec.kMax,), dtype=np.int64)
    digits[..., lp.kShaping : lp.kCoding] = w
    ints = np.zeros(shape + (spec.n,), dtype=np.int64)
    # frozen here, so that ChainPoint keeps these fresh arrays uncopied
    digits.setflags(write=False)
    ints.setflags(write=False)
    return ChainPoint(spec, digits, ints)


def decode_codeword(t: ChainPoint, lp: LevelPair) -> np.ndarray:
    """Read message digits back off a canonical codebook point."""
    if np.any(t.ints != 0):
        raise NotInCodebookError("integer part must be zero")
    if np.any(t.digits[..., : lp.kShaping] != 0) or np.any(t.digits[..., lp.kCoding :] != 0):
        raise NotInCodebookError("digits outside the codebook slice must be zero")
    return t.digits[..., lp.kShaping : lp.kCoding].copy()


def real_embed(x: ChainPoint) -> np.ndarray:
    """Floating-point coordinates of the point."""
    spec = x.spec
    return spec.scale * (spec.code_word(x.digits) / spec.gamma + x.ints)


def make_chain_spec(gamma: int, n: int, kMax: int = None, scale: float = 1.0, rng=None) -> ChainSpec:
    """Convenience constructor; random systematic generator when rng given."""
    if kMax is None:
        kMax = n
    G = np.zeros((n, kMax), dtype=np.int64)
    G[:kMax] = np.eye(kMax, dtype=np.int64)
    if rng is not None and n > kMax:
        G[kMax:] = rng.integers(0, gamma, size=(n - kMax, kMax))
    return ChainSpec(gamma=gamma, n=n, kMax=kMax, G=FieldMatrix(G, gamma), scale=scale)
