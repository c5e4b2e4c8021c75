"""Exact nested lattice chain built from a systematic linear code.

A chain specification fixes a prime gamma, a dimension n and a generator
matrix G (n x kMax, systematic).  Level k in [0, kMax] defines the lattice

    Lambda(k) = gamma^{-1} kappa(G_k F_gamma^k) + Z^n,

where G_k is the first k columns of G.  Larger k means finer lattice;
Lambda(0) = Z^n.  Points of the finest lattice Lambda(kMax) are stored
exactly as a digit vector over F_gamma plus an integer part:

    x = gamma^{-1} kappa(G d) + z.

Because G is systematic the pair (d, z) is the unique such representation,
so equality of points is equality of arrays.  Digit and integer arrays may
carry arbitrary leading batch axes.

A canonical residue (a codeword, a relay output, a recovered codeword) has
a zero integer part.  The library hands every such point one shared,
read-only zero array per shape, a zero-strided view of an immutable
buffer that no caller can make writable; ``combine`` recognizes it by
identity and skips its terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, NotInCodebookError, SpecMismatchError
from .galois import FieldMatrix, int64_array, reduce_mod

# the data of every shared zero integer part: an immutable bytes buffer, so
# neither this array nor any view of it can be made writable
_ZERO = np.frombuffer(bytes(8), dtype=np.int64)


@functools.lru_cache(maxsize=64)
def _zero_part(shape: tuple) -> np.ndarray:
    """The shared, read-only zero integer part of the given shape."""
    return np.broadcast_to(_ZERO, shape)


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of a nested lattice chain."""

    gamma: int
    n: int
    kMax: int
    G: FieldMatrix

    def __post_init__(self):
        if not 1 <= self.kMax <= self.n:
            raise ValueError(f"kMax must be in [1, n], got {self.kMax} with n={self.n}")
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
        object.__setattr__(self, "kCoding", int64_array(self.kCoding, "coding level").item())
        object.__setattr__(self, "kShaping", int64_array(self.kShaping, "shaping level").item())
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
        if d.size and (d.min() < 0 or d.max() >= self.spec.gamma):
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
    # the shared zero integer part is never writable
    if ints.flags.writeable:
        ints.setflags(write=False)
    return x


def combine(points, coeffs) -> ChainPoint:
    """Exact integer combination sum_i c_i x_i: the field combination d of the
    digits, with integer carries (sum_i c_i kappa(G d_i) - kappa(G d)) / gamma,
    an exact division because the two code word terms agree modulo gamma.
    On G's identity block those code words are the canonical digits, so the
    carries there are raw // gamma for raw = sum_i c_i d_i (whose residue is
    d).  Below it they are words // gamma for words = sum_i c_i (d_i P mod
    gamma), P = G's parity rows transposed, since kappa(G d) there is
    words mod gamma.  raw and words are summed into one buffer.  Terms with
    a zero coefficient and shared zero integer parts add nothing and are
    skipped.

    Raises ValueError when a sum could leave the int64 range: when
    sum_i |c_i| (gamma - 1), the bound on raw and words, or that bound on
    the carries plus sum_i |c_i| max|z_i| over the other integer parts
    reaches 2^63."""
    if not len(points):
        raise ValueError("combine needs at least one point")
    coeffs = int64_array(coeffs, "coefficients")
    if coeffs.ndim != 1 or len(coeffs) != len(points):
        raise ValueError(f"{len(points)} points but coefficients of shape {coeffs.shape}")
    coeffs = coeffs.tolist()
    spec = points[0].spec
    if any(x.spec is not spec and x.spec != spec for x in points):
        raise SpecMismatchError("points belong to different chain specifications")
    gamma, k = spec.gamma, spec.kMax
    terms = [(c, x) for c, x in zip(coeffs, points) if c]
    weight = sum(abs(c) for c, _ in terms)
    owned = [(c, x.ints) for c, x in terms if x.ints.base is not _ZERO]
    bound = weight + sum(abs(c) * max(int(z.max()), -int(z.min())) for c, z in owned if z.size)
    if max(weight * (gamma - 1), bound) >= 2**63:
        raise ValueError("combination may leave the int64 range")

    shape = points[0].digits.shape
    if any(x.digits.shape != shape for x in points):
        shape = np.broadcast_shapes(*(x.digits.shape for x in points))
    P = spec.G.entries[k:].T
    # acc holds raw, then words, and becomes the integer part; digits
    # holds the scaled terms, then the result's digits
    acc = np.empty(shape[:-1] + (spec.n,), dtype=np.int64)
    digits = np.empty(shape, dtype=np.int64)
    raw, words = acc[..., :k], acc[..., k:]
    if not terms:
        acc.fill(0)
    for i, (c, x) in enumerate(terms):
        if i == 0:
            np.multiply(x.digits, c, out=raw)
        elif c == 1:
            np.add(raw, x.digits, out=raw)
        else:
            np.add(raw, np.multiply(x.digits, c, out=digits), out=raw)
        if P.size:
            w = reduce_mod(x.digits @ P, gamma)
            if i == 0:
                np.multiply(w, c, out=words)
            else:
                np.add(words, np.multiply(w, c, out=w), out=words)
    # d = raw - gamma (raw // gamma); then every carry is acc // gamma
    np.floor_divide(raw, gamma, out=digits)
    np.multiply(digits, gamma, out=digits)
    np.subtract(raw, digits, out=digits)
    np.floor_divide(acc, gamma, out=acc)
    for c, z in owned:
        np.add(acc, np.multiply(z, c), out=acc)
    return _point(spec, digits, acc)


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
    k = int64_array(k, "level").item()
    if not 0 <= k <= spec.kMax:
        raise ValueError(f"level must be in [0, kMax], got {k}")
    digits = x.digits.copy()
    digits[..., :k] = 0
    return _point(spec, digits, _zero_part(x.ints.shape))


def quantize_level(x: ChainPoint, k: int) -> ChainPoint:
    """Quantization of x onto Lambda(k): x minus its canonical residue."""
    return point_sub(x, mod_level(x, k))


def encode_message(w, lp: LevelPair, spec: ChainSpec) -> ChainPoint:
    """Map message digits to the codebook point with those digits.

    The message occupies digit positions kShaping+1 .. kCoding; all other
    digits and the integer part are zero, which is already the canonical
    residue modulo the shaping lattice.  The returned ChainPoint rejects
    message digits outside [0, gamma).
    """
    w = int64_array(w, "message digits")
    width = lp.kCoding - lp.kShaping
    if w.shape[-1] != width:
        raise LengthMismatchError(f"message length {w.shape[-1]} != {width}")
    if lp.kCoding > spec.kMax:
        raise ValueError("coding level exceeds kMax")
    shape = w.shape[:-1]
    digits = np.zeros(shape + (spec.kMax,), dtype=np.int64)
    digits[..., lp.kShaping : lp.kCoding] = w
    # frozen here, so that ChainPoint keeps this fresh array uncopied
    digits.setflags(write=False)
    return ChainPoint(spec, digits, _zero_part(shape + (spec.n,)))


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
    return spec.code_word(x.digits) / spec.gamma + x.ints


def make_chain_spec(gamma: int, n: int, kMax: int, rng=None) -> ChainSpec:
    """Convenience constructor; random systematic generator when rng given."""
    G = np.zeros((n, kMax), dtype=np.int64)
    G[:kMax] = np.eye(kMax, dtype=np.int64)
    if rng is not None and n > kMax:
        G[kMax:] = rng.integers(0, gamma, size=(n - kMax, kMax))
    return ChainSpec(gamma=gamma, n=n, kMax=kMax, G=FieldMatrix(G, gamma))
