"""Analytic achievable-rate computations.

All rates are in bits per real dimension, log base 2.  The strict
achievability inequalities are reported at their suprema.
"""

from __future__ import annotations

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
    feasible: bool
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
        if any(c < 0 for c in caps):
            raise ValueError("capacities must be nonnegative")
        object.__setattr__(self, "perRelayCapacity", caps)


def second_hop_region(g, P_R) -> SecondHopRegion:
    g = np.asarray(g, dtype=float)
    P_R = np.asarray(P_R, dtype=float)
    return SecondHopRegion(tuple(0.5 * np.log2(1.0 + g * g * P_R)))


def computation_rate(H, A, p) -> np.ndarray:
    """Best computation rate of each source over the relays combining it."""
    H = np.asarray(H, dtype=float)
    A = np.asarray(A, dtype=float)
    p = np.asarray(p, dtype=float)
    L = p.shape[0]
    tau = np.array([mmse_noise_power(H[m], A[m], p) for m in range(A.shape[0])])
    r = np.zeros(L)
    for l in range(L):
        relays = np.nonzero(A[:, l])[0]
        if relays.size == 0:
            continue
        worst = np.max(tau[relays])
        if worst <= 0.0:
            r[l] = np.inf
        else:
            r[l] = max(0.0, 0.5 * np.log2(p[l] / worst))
    return r


def _power_offsets(asg: SchemeAssignment, variant: str) -> np.ndarray:
    """Per-relay shaping-volume offset: half the log power ratio between
    the relay's modulo lattice and a reference shaping lattice."""
    p = np.asarray(asg.powers, dtype=float)
    pi_s_inv = perm_inverse(asg.pi_s)
    if variant == "symmetric":
        coarse = np.full(asg.L, pi_s_inv[asg.L - 1])
    else:
        coarse = np.array([pi_s_inv[asg.pi_e[m] - 1] for m in range(asg.L)])
    return 0.5 * np.log2(p[coarse - 1])


def forwarding_source(asg: SchemeAssignment) -> np.ndarray:
    """source whose layer relay m forwards: pi_c^{-1}(pi_d(m)), 1-based."""
    pi_c_inv = perm_inverse(asg.pi_c)
    return np.array([pi_c_inv[asg.pi_d[m] - 1] for m in range(asg.L)])


def forwarding_rates(asg: SchemeAssignment, r, variant: str) -> np.ndarray:
    """Per-relay forwarding rate for the given recovery variant."""
    if variant not in VARIANTS:
        raise VariantMismatchError(f"unknown variant {variant!r}")
    r = np.asarray(r, dtype=float)
    p = np.asarray(asg.powers, dtype=float)
    L = asg.L
    if variant == "srq":
        return r[forwarding_source(asg) - 1]
    half_log_pe = _power_offsets(asg, variant)
    if variant == "srmq":
        src = forwarding_source(asg) - 1
        return np.maximum(0.0, r[src] + half_log_pe - 0.5 * np.log2(p[src]))
    R = np.zeros(L)
    for m in range(L):
        links = np.nonzero(asg.A[m])[0]
        if links.size == 0:
            continue
        R[m] = max(0.0, np.max(r[links] + half_log_pe[m] - 0.5 * np.log2(p[links])))
    return R


def max_rates_given_structure(asg: SchemeAssignment, H, region: SecondHopRegion, variant: str) -> RateReport:
    """Largest per-source rates under the computation and forwarding limits.

    The hypercube region makes the problem separable: each source takes the
    minimum of its computation rate and its tightest forwarding bound.
    Raises InfeasibleStructureError when even zero rates violate a
    forwarding constraint.
    """
    if variant not in VARIANTS:
        raise VariantMismatchError(f"unknown variant {variant!r}")
    L = asg.L
    p = np.asarray(asg.powers, dtype=float)
    caps = np.asarray(region.perRelayCapacity, dtype=float)
    r_comp = computation_rate(H, asg.A, p)

    bounds = np.full(L, np.inf)
    if variant == "srq":
        src = forwarding_source(asg) - 1
        for m in range(L):
            bounds[src[m]] = min(bounds[src[m]], caps[m])
    elif variant == "srmq":
        src = forwarding_source(asg) - 1
        half_log_pe = _power_offsets(asg, variant)
        for m in range(L):
            limit = caps[m] - (half_log_pe[m] - 0.5 * np.log2(p[src[m]]))
            bounds[src[m]] = min(bounds[src[m]], limit)
    else:
        half_log_pe = _power_offsets(asg, variant)
        for m in range(L):
            for l in np.nonzero(asg.A[m])[0]:
                limit = caps[m] - (half_log_pe[m] - 0.5 * np.log2(p[l]))
                bounds[l] = min(bounds[l], limit)

    if np.any(bounds < 0):
        raise InfeasibleStructureError("a forwarding constraint excludes even zero rate")

    r = np.minimum(r_comp, bounds)
    r = np.maximum(r, 0.0)
    limiting = tuple(
        COMPUTATION_LIMITED if r_comp[l] <= bounds[l] else FORWARDING_LIMITED for l in range(L)
    )
    R = forwarding_rates(asg, r, variant)
    return RateReport(
        sourceRates=tuple(r),
        forwardingRates=tuple(R),
        sumRate=float(np.sum(r)),
        feasible=True,
        limiting=limiting,
    )
