"""Analytic achievable-rate computations.

All rates are in bits per real dimension, log base 2.  The strict
achievability inequalities are reported at their suprema.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleStructureError, VariantMismatchError
from .galois import perm_inverse
from .pipeline import SchemeAssignment, mmse_noise_power

VARIANTS = ("srq", "srm", "srmq", "symmetric")

COMPUTATION_LIMITED = "computation-limited"
FORWARDING_LIMITED = "forwarding-limited"


@dataclass(frozen=True)
class RateReport:
    """Achievable rates of one configured scheme on one channel draw."""

    sourceRates: tuple
    forwardingRates: tuple
    sumRate: float
    limiting: tuple

    def __post_init__(self):
        object.__setattr__(self, "sourceRates", tuple(float(r) for r in self.sourceRates))
        object.__setattr__(self, "forwardingRates", tuple(float(R) for R in self.forwardingRates))
        object.__setattr__(self, "limiting", tuple(self.limiting))


@dataclass(frozen=True)
class SecondHopRegion:
    """Hypercube rate region of independent parallel second-hop links."""

    perRelayCapacity: tuple

    def __post_init__(self):
        caps = tuple(float(c) for c in self.perRelayCapacity)
        if not all(c >= 0 for c in caps):
            raise ValueError("capacities must be nonnegative (infinite allowed, NaN not)")
        object.__setattr__(self, "perRelayCapacity", caps)


def second_hop_region(g, P_R) -> SecondHopRegion:
    g = np.asarray(g, dtype=float)
    P_R = np.asarray(P_R, dtype=float)
    if np.any(P_R < 0):
        raise ValueError("relay powers P_R must be nonnegative")
    return SecondHopRegion(tuple(0.5 * np.log2(1.0 + g * g * P_R)))


def _fold(op, x, axis: int):
    """``op.reduce(x, axis)`` as a running ``op`` over the slices of a short
    axis, left to right, which numpy reduces an order of magnitude more
    slowly.  The result is op.reduce's for minimum, maximum and logical
    and/or, whose result does not depend on the order, and for add on axes
    shorter than 8, which numpy also sums left to right.  May return a view
    of x."""
    lead = (slice(None),) * axis
    return functools.reduce(op, (x[lead + (i,)] for i in range(1, x.shape[axis])), x[lead + (0,)])


def computation_rate(H, A, p, denom=None) -> np.ndarray:
    """Best computation rate of each source over the relays combining it.

    Half the log of the source's power over the largest effective-noise
    power among those relays: infinite when that power is zero, and 0 when
    no relay combines the source.  A (..., L, L) and p (..., L) may carry
    leading batch axes, with one channel H (L, L) for all of them.
    ``denom`` (..., L), when given, holds each relay's
    ``mmse_denominator`` at the powers p, so it is not computed again."""
    A = np.asarray(A)
    p = np.asarray(p, dtype=float)
    # each relay's copy of the powers, contiguous (..., L, L): the products
    # with A then run as one loop rather than one short loop per row
    tau = mmse_noise_power(H, A, np.repeat(p[..., None, :], A.shape[-2], axis=-2), denom)
    combined = np.where(A != 0, tau[..., :, None], -np.inf)
    worst = _fold(np.maximum, combined, combined.ndim - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.maximum(0.5 * np.log2(p / worst), 0.0)
    return np.where(worst > 0, r, np.where(worst == -np.inf, 0.0, np.inf))


def forwarding_source(asg: SchemeAssignment) -> np.ndarray:
    """source whose layer relay m forwards: pi_c^{-1}(pi_d(m)), 1-based."""
    pi_c_inv = perm_inverse(asg.pi_c)
    return np.array([pi_c_inv[asg.pi_d[m] - 1] for m in range(asg.L)])


def _links(asg: SchemeAssignment, variant: str):
    """Forwarding structure of a recovery variant: (link, half_log_pe, half_log_p).

    ``link[m, l]`` says whether relay m forwards source l: the one layer
    pi_c^{-1}(pi_d(m)) for srq and srmq, every source it combines for srm
    and symmetric.  A forwarded layer costs its rate plus the volume offset
    half_log_pe[m] - half_log_p[l] between relay m's modulo lattice (ranked
    pi_e(m) in shaping, or the coarsest for symmetric) and source l's
    shaping lattice; srq forwards quantized layers, with zero offsets."""
    if variant not in VARIANTS:
        raise VariantMismatchError(f"unknown variant {variant!r}")
    L = asg.L
    one_layer = variant in ("srq", "srmq")
    link = np.eye(L, dtype=bool)[forwarding_source(asg) - 1] if one_layer else asg.A != 0
    if variant == "srq":
        return link, np.zeros(L), np.zeros(L)
    p = np.asarray(asg.powers, dtype=float)
    pi_s_inv = perm_inverse(asg.pi_s)
    ranks = np.full(L, L) if variant == "symmetric" else np.asarray(asg.pi_e)
    coarse = np.array([pi_s_inv[k - 1] for k in ranks])
    return link, 0.5 * np.log2(p[coarse - 1]), 0.5 * np.log2(p)


def _forwarding(link, half_log_pe, half_log_p, r) -> np.ndarray:
    """Per-relay forwarding rate over the link table of _links: the
    costliest layer the relay forwards, at least zero."""
    cost = (r[None, :] + half_log_pe[:, None]) - half_log_p[None, :]
    return np.maximum(0.0, np.max(np.where(link, cost, -np.inf), axis=1))


def forwarding_rates(asg: SchemeAssignment, r, variant: str) -> np.ndarray:
    """Per-relay forwarding rate for the given recovery variant, of one rate per source."""
    r = np.asarray(r, dtype=float)
    if r.shape != (asg.L,):
        raise ValueError(f"expected {asg.L} source rates, got shape {r.shape}")
    return _forwarding(*_links(asg, variant), r)


def max_rates_given_structure(asg: SchemeAssignment, H, region: SecondHopRegion, variant: str) -> RateReport:
    """Largest per-source rates under the computation and forwarding limits.

    The hypercube region makes the problem separable: each source takes the
    minimum of its computation rate and its tightest forwarding bound.
    Raises ValueError unless H is L x L and the region has L capacities,
    and InfeasibleStructureError when even zero rates violate a forwarding
    constraint.
    """
    link, half_log_pe, half_log_p = _links(asg, variant)
    L = asg.L
    caps = np.asarray(region.perRelayCapacity, dtype=float)
    if np.shape(H) != (L, L) or caps.shape != (L,):
        raise ValueError(f"expected a ({L}, {L}) channel and {L} capacities, got {np.shape(H)} and {len(caps)}")
    r_comp = computation_rate(H, asg.A, asg.powers)
    # each source's tightest forwarding constraint over the relays forwarding it
    limits = caps[:, None] - (half_log_pe[:, None] - half_log_p[None, :])
    bounds = np.min(np.where(link, limits, np.inf), axis=0)

    if np.any(bounds < 0):
        raise InfeasibleStructureError("a forwarding constraint excludes even zero rate")

    r = np.minimum(r_comp, bounds)
    r = np.maximum(r, 0.0)
    limiting = tuple(
        COMPUTATION_LIMITED if r_comp[l] <= bounds[l] else FORWARDING_LIMITED for l in range(L)
    )
    # R <= caps exactly; the clamp drops the rounding of r + offset - offset
    R = np.minimum(_forwarding(link, half_log_pe, half_log_p, r), caps)
    return RateReport(
        sourceRates=tuple(r),
        forwardingRates=tuple(R),
        sumRate=float(np.sum(r)),
        limiting=limiting,
    )
