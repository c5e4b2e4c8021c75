"""Self-contained property suites runnable from the command line.

Each property is a check that draws one randomized instance of a library
contract and returns a counterexample dump, or None when it holds.
``_SUITES`` lists the checks of each scope with their trial counts, and
``run_verify`` runs each until its first counterexample, reporting
machine-readable pass/fail results.  The checks derive expectations from
first principles (ground-truth encodings, brute-force checks) or from
predicates independent of the function under test, rather than trusting it.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from . import optimizer, pipeline, rates, recovery
from .galois import FieldMatrix, feasible_pi_d, feasible_pi_e, mat_inverse, mat_rank
from .lattice import (
    ChainPoint,
    LevelPair,
    decode_codeword,
    encode_message,
    make_chain_spec,
    mod_level,
    point_add,
    point_sub,
    quantize_level,
)
from .pipeline import SchemeAssignment

_EXACT_PRIMES = (2, 3, 5)


def random_full_rank_matrix(rng, L: int, gamma: int) -> np.ndarray:
    """Random integer matrix in [-gamma, gamma] with full rank mod gamma."""
    while True:
        A = rng.integers(-gamma, gamma + 1, size=(L, L))
        if mat_rank(FieldMatrix(A, gamma)) == L:
            return A


def _random_levels(rng, kMax: int, L: int, common_shaping: bool):
    """Non-increasing coding and shaping chains with every shaping lattice
    strictly coarser than every coding lattice."""
    cl = tuple(sorted(rng.integers(1, kMax + 1, size=L).tolist(), reverse=True))
    top = cl[-1]
    if common_shaping:
        sl = (int(rng.integers(0, top)),) * L
    else:
        sl = tuple(sorted(rng.integers(0, top, size=L).tolist(), reverse=True))
    return cl, sl


def random_assignment(rng, gamma: int, n: int, L: int, common_shaping: bool = False) -> SchemeAssignment:
    """Random scheme assignment with greedily constructed feasible
    quantization and modulo permutations."""
    spec = make_chain_spec(gamma, n, n, rng=rng)
    A = random_full_rank_matrix(rng, L, gamma)
    Q = FieldMatrix(A, gamma)
    pi_c = tuple(int(x) for x in rng.permutation(L) + 1)
    pi_s = tuple(int(x) for x in rng.permutation(L) + 1)
    pi_d = feasible_pi_d(Q, pi_c)
    pi_e = feasible_pi_e(Q, pi_s)
    cl, sl = _random_levels(rng, n, L, common_shaping)
    return SchemeAssignment(
        spec=spec,
        pi_c=pi_c,
        pi_s=pi_s,
        pi_d=pi_d,
        pi_e=pi_e,
        A=A,
        codingLevels=cl,
        shapingLevels=sl,
        powers=(1.0,) * L,
        budgets=(1.0,) * L,
    )


def random_messages(rng, asg: SchemeAssignment, count: int):
    """One batch of random message digit blocks per source."""
    return [
        rng.integers(0, asg.spec.gamma, size=(count, asg.message_length(l)))
        for l in range(1, asg.L + 1)
    ]


def encode_all(messages, asg: SchemeAssignment):
    return [pipeline.source_encode(messages[l - 1], l, asg) for l in range(1, asg.L + 1)]


def relay_outputs(t, asg: SchemeAssignment, common_shaping_level=None):
    """Compressed relay outputs; with a common shaping level the modulo
    lattice is overridden for every relay."""
    out = []
    for m in range(1, asg.L + 1):
        delta = pipeline.relay_combination(t, m, asg)
        if common_shaping_level is None:
            out.append(pipeline.compress(delta, m, asg))
        else:
            out.append(mod_level(quantize_level(delta, asg.quantize_level_of(m)), common_shaping_level))
    return out


def _fmt(obj) -> str:
    return np.array2string(np.asarray(obj), separator=",")


def _inverse_roundtrip(rng):
    gamma = int(rng.choice(_EXACT_PRIMES + (257,)))
    L = int(rng.integers(1, 5))
    A = random_full_rank_matrix(rng, L, gamma)
    Q = FieldMatrix(A, gamma)
    inv = mat_inverse(Q)
    prod = (inv.entries @ Q.entries) % gamma
    if not np.array_equal(prod, np.eye(L, dtype=np.int64)):
        return f"gamma={gamma} A={_fmt(A)}"


def _feasible_permutation_residual_ranks(rng):
    gamma = int(rng.choice(_EXACT_PRIMES + (257,)))
    L = int(rng.integers(2, 5))
    A = random_full_rank_matrix(rng, L, gamma)
    Q = FieldMatrix(A, gamma)
    pi_c = tuple(int(x) for x in rng.permutation(L) + 1)
    pi_s = tuple(int(x) for x in rng.permutation(L) + 1)
    pi_d = feasible_pi_d(Q, pi_c)
    pi_e = feasible_pi_e(Q, pi_s)
    if not optimizer.pi_d_is_feasible(Q, pi_c, pi_d):
        return f"pi_d gamma={gamma} A={_fmt(A)} pi_c={pi_c} pi_d={pi_d}"
    if not optimizer.pi_e_is_feasible(Q, pi_s, pi_e):
        return f"pi_e gamma={gamma} A={_fmt(A)} pi_s={pi_s} pi_e={pi_e}"


def _encode_decode_roundtrip(rng):
    gamma = int(rng.choice(_EXACT_PRIMES))
    n = int(rng.integers(2, 5))
    spec = make_chain_spec(gamma, n, n, rng=rng)
    kC = int(rng.integers(1, n + 1))
    kS = int(rng.integers(0, kC))
    lp = LevelPair(kC, kS)
    w = rng.integers(0, gamma, size=(8, kC - kS))
    t = encode_message(w, lp, spec)
    if not np.array_equal(decode_codeword(t, lp), w):
        return f"gamma={gamma} n={n} lp={lp}"


def _group_and_quantizer_laws(rng):
    gamma = int(rng.choice(_EXACT_PRIMES))
    n = int(rng.integers(2, 5))
    spec = make_chain_spec(gamma, n, n, rng=rng)

    def rand_point():
        return ChainPoint(
            spec,
            rng.integers(0, gamma, size=(4, n)),
            rng.integers(-3, 4, size=(4, n)),
        )

    x, y = rand_point(), rand_point()
    k = int(rng.integers(0, n + 1))
    if point_add(x, y) != point_add(y, x):
        return "addition not commutative"
    if point_add(point_sub(x, y), y) != x:
        return "sub/add not inverse"
    if point_add(quantize_level(x, k), mod_level(x, k)) != x:
        return f"quantizer decomposition failed at k={k}"
    if mod_level(mod_level(x, k), k) != mod_level(x, k):
        return f"mod not idempotent at k={k}"


def _exact_recovery(algo, rng):
    gamma = int(rng.choice(_EXACT_PRIMES))
    n = int(rng.choice((2, 4)))
    L = int(rng.choice((2, 3)))
    asg = random_assignment(rng, gamma, n, L, common_shaping=(algo == "srq"))
    msgs = random_messages(rng, asg, 16)
    t = encode_all(msgs, asg)
    if algo == "srq":
        c = asg.shapingLevels[0]
        v = relay_outputs(t, asg, common_shaping_level=c)
        got = recovery.srq(v, asg, c)
    elif algo == "srm":
        v = [mod_level(pipeline.relay_combination(t, m, asg), asg.modulo_level_of(m)) for m in range(1, L + 1)]
        got = recovery.srm(v, None, asg)
    else:
        v = relay_outputs(t, asg)
        got = recovery.srmq(v, None, asg)
    for l in range(1, L + 1):
        if got[l - 1] != t[l - 1]:
            return f"gamma={gamma} n={n} L={L} source={l} A={_fmt(asg.A)}"


def _srq_forwarding_conserves_sum_rate(rng):
    L = int(rng.integers(2, 5))
    asg = random_assignment(np.random.default_rng(rng.integers(2**32)), 257, 2 * L, L)
    asg = replace(asg, powers=tuple(rng.uniform(0.5, 10.0, size=L)), budgets=(10.0,) * L)
    r = rng.uniform(0.0, 3.0, size=L)
    R = rates.forwarding_rates(asg, r, "srq")
    if abs(float(np.sum(R)) - float(np.sum(r))) > 1e-12:
        return f"sum(R)={np.sum(R)} sum(r)={np.sum(r)} pi_c={asg.pi_c} pi_d={asg.pi_d}"


def _mmse_closed_form_optimal(rng):
    L = int(rng.integers(1, 5))
    h = rng.normal(size=L)
    a = rng.integers(-5, 6, size=L)
    p = rng.uniform(0.1, 10.0, size=L)
    alpha = pipeline.mmse_alpha(h, a, p)
    closed = pipeline.mmse_noise_power(h, a, p)
    direct = pipeline.effective_noise_power(h, a, p, alpha)
    if abs(closed - direct) > 1e-9 * max(1.0, abs(closed)):
        return f"h={_fmt(h)} a={_fmt(a)} p={_fmt(p)}"
    grid = alpha + np.linspace(-1.0, 1.0, 101)
    vals = [pipeline.effective_noise_power(h, a, p, x) for x in grid]
    if closed > min(vals) + 1e-9:
        return f"non-optimal alpha at h={_fmt(h)}"


def _lll_contract(rng):
    L = int(rng.integers(2, 6))
    B = rng.normal(size=(L, L))
    while abs(np.linalg.det(B)) < 1e-3:
        B = rng.normal(size=(L, L))
    red, T = optimizer.lll_reduce(B)
    if not optimizer.is_size_reduced(red):
        return f"size reduction failed B={_fmt(B)}"
    if not optimizer.satisfies_lovasz(red):
        return f"Lovasz failed B={_fmt(B)}"
    if not optimizer.is_unimodular(T):
        return f"transform not unimodular B={_fmt(B)}"
    if not np.allclose(red, T @ B):
        return f"transform does not map basis B={_fmt(B)}"


def _coefficients_full_rank(rng):
    gamma = optimizer.OptimizerConfig().gammaOpt
    L = int(rng.integers(1, 5))
    H = rng.normal(size=(L, L))
    p = rng.uniform(0.5, 50.0, size=L)
    A = optimizer.select_coefficients(H, p, gamma)
    if mat_rank(FieldMatrix(A, gamma)) != L:
        return f"H={_fmt(H)} p={_fmt(p)} A={_fmt(A)}"


# scope -> its properties as (name, trials, check), run in this order on
# one random stream per scope
_SUITES = {
    "galois": [
        ("inverse-roundtrip", 200, _inverse_roundtrip),
        ("feasible-permutation-residual-ranks", 200, _feasible_permutation_residual_ranks),
    ],
    "lattice": [
        ("encode-decode-roundtrip", 100, _encode_decode_roundtrip),
        ("group-and-quantizer-laws", 100, _group_and_quantizer_laws),
    ],
    "recovery": [(f"{algo}-exact-recovery", 40, partial(_exact_recovery, algo)) for algo in ("srq", "srm", "srmq")],
    "rates": [
        ("srq-forwarding-conserves-sum-rate", 200, _srq_forwarding_conserves_sum_rate),
        ("mmse-closed-form-optimal", 200, _mmse_closed_form_optimal),
    ],
    "optimizer": [
        ("lll-contract", 50, _lll_contract),
        ("coefficients-full-rank", 100, _coefficients_full_rank),
    ],
}

SCOPES = (*_SUITES, "all")


def run_verify(scope: str = "all", seed: int = 0) -> dict:
    """Run the property suites for one scope (or all of them).

    Returns {"scope", "passed", "properties": [{"name", "passed",
    "counterexample"}]}.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {SCOPES}")
    names = list(_SUITES) if scope == "all" else [scope]
    props = []
    for idx, name in enumerate(names):
        rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        for pname, trials, check in _SUITES[name]:
            # the first counterexample ends a property
            counterexample = next(filter(None, (check(rng) for _ in range(trials))), None)
            props.append(
                {
                    "name": f"{name}.{pname}",
                    "passed": counterexample is None,
                    "counterexample": counterexample,
                }
            )
    return {
        "scope": scope,
        "passed": all(p["passed"] for p in props),
        "properties": props,
    }
