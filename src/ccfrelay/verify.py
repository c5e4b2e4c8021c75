"""Self-contained property suites runnable from the command line.

Each suite draws randomized instances, checks the library's algebraic
contracts, and reports machine-readable pass/fail results with a
counterexample dump on failure.  The suites intentionally re-derive
expectations from first principles (ground-truth encodings, brute-force
checks) rather than trusting the functions under test.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import optimizer, pipeline, rates, recovery
from .galois import FieldMatrix, feasible_pi_d, feasible_pi_e, mat_inverse, mat_rank, residual_submatrix, srm_index_sets, srq_index_sets
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

SCOPES = ("galois", "lattice", "recovery", "rates", "optimizer", "all")

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


def _galois_properties(rng):
    results = []
    bad = None
    for _ in range(200):
        gamma = int(rng.choice(_EXACT_PRIMES + (257,)))
        L = int(rng.integers(1, 5))
        A = random_full_rank_matrix(rng, L, gamma)
        Q = FieldMatrix(A, gamma)
        inv = mat_inverse(Q)
        prod = (inv.entries @ Q.entries) % gamma
        if not np.array_equal(prod, np.eye(L, dtype=np.int64)):
            bad = f"gamma={gamma} A={_fmt(A)}"
            break
    results.append(("inverse-roundtrip", bad is None, bad))

    bad = None
    for _ in range(200):
        gamma = int(rng.choice(_EXACT_PRIMES + (257,)))
        L = int(rng.integers(2, 5))
        A = random_full_rank_matrix(rng, L, gamma)
        Q = FieldMatrix(A, gamma)
        pi_c = tuple(int(x) for x in rng.permutation(L) + 1)
        pi_s = tuple(int(x) for x in rng.permutation(L) + 1)
        pi_d = feasible_pi_d(Q, pi_c)
        pi_e = feasible_pi_e(Q, pi_s)
        for j in range(1, L + 1):
            s = srq_index_sets(pi_c, pi_d, j)
            if mat_rank(residual_submatrix(Q, s.sourceSet, s.relaySet)) != j:
                bad = f"pi_d gamma={gamma} A={_fmt(A)} j={j}"
        for i in range(1, L + 1):
            s = srm_index_sets(pi_s, pi_e, i)
            if mat_rank(residual_submatrix(Q, s.sourceSet, s.relaySet)) != L - i + 1:
                bad = f"pi_e gamma={gamma} A={_fmt(A)} i={i}"
        if bad:
            break
    results.append(("feasible-permutation-residual-ranks", bad is None, bad))
    return results


def _lattice_properties(rng):
    results = []
    bad = None
    for _ in range(100):
        gamma = int(rng.choice(_EXACT_PRIMES))
        n = int(rng.integers(2, 5))
        spec = make_chain_spec(gamma, n, n, rng=rng)
        kC = int(rng.integers(1, n + 1))
        kS = int(rng.integers(0, kC))
        lp = LevelPair(kC, kS)
        w = rng.integers(0, gamma, size=(8, kC - kS))
        t = encode_message(w, lp, spec)
        if not np.array_equal(decode_codeword(t, lp), w):
            bad = f"gamma={gamma} n={n} lp={lp}"
            break
    results.append(("encode-decode-roundtrip", bad is None, bad))

    bad = None
    for _ in range(100):
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
            bad = "addition not commutative"
            break
        if point_add(point_sub(x, y), y) != x:
            bad = "sub/add not inverse"
            break
        if point_add(quantize_level(x, k), mod_level(x, k)) != x:
            bad = f"quantizer decomposition failed at k={k}"
            break
        if mod_level(mod_level(x, k), k) != mod_level(x, k):
            bad = f"mod not idempotent at k={k}"
            break
    results.append(("group-and-quantizer-laws", bad is None, bad))
    return results


def _recovery_properties(rng):
    results = []
    for algo in ("srq", "srm", "srmq"):
        bad = None
        for _ in range(40):
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
                    bad = f"gamma={gamma} n={n} L={L} source={l} A={_fmt(asg.A)}"
                    break
            if bad:
                break
        results.append((f"{algo}-exact-recovery", bad is None, bad))
    return results


def _rates_properties(rng):
    results = []
    bad = None
    for _ in range(200):
        L = int(rng.integers(2, 5))
        asg = random_assignment(np.random.default_rng(rng.integers(2**32)), 257, 2 * L, L)
        asg = replace(asg, powers=tuple(rng.uniform(0.5, 10.0, size=L)), budgets=(10.0,) * L)
        r = rng.uniform(0.0, 3.0, size=L)
        R = rates.forwarding_rates(asg, r, "srq")
        if abs(float(np.sum(R)) - float(np.sum(r))) > 1e-12:
            bad = f"sum(R)={np.sum(R)} sum(r)={np.sum(r)} pi_c={asg.pi_c} pi_d={asg.pi_d}"
            break
    results.append(("srq-forwarding-conserves-sum-rate", bad is None, bad))

    bad = None
    for _ in range(200):
        L = int(rng.integers(1, 5))
        h = rng.normal(size=L)
        a = rng.integers(-5, 6, size=L)
        p = rng.uniform(0.1, 10.0, size=L)
        alpha = pipeline.mmse_alpha(h, a, p)
        closed = pipeline.mmse_noise_power(h, a, p)
        direct = pipeline.effective_noise_power(h, a, p, alpha)
        if abs(closed - direct) > 1e-9 * max(1.0, abs(closed)):
            bad = f"h={_fmt(h)} a={_fmt(a)} p={_fmt(p)}"
            break
        grid = alpha + np.linspace(-1.0, 1.0, 101)
        vals = [pipeline.effective_noise_power(h, a, p, x) for x in grid]
        if closed > min(vals) + 1e-9:
            bad = f"non-optimal alpha at h={_fmt(h)}"
            break
    results.append(("mmse-closed-form-optimal", bad is None, bad))
    return results


def _optimizer_properties(rng):
    results = []
    bad = None
    for _ in range(50):
        L = int(rng.integers(2, 6))
        B = rng.normal(size=(L, L))
        while abs(np.linalg.det(B)) < 1e-3:
            B = rng.normal(size=(L, L))
        red, T = optimizer.lll_reduce(B, 0.75)
        if not optimizer.is_size_reduced(red):
            bad = f"size reduction failed B={_fmt(B)}"
            break
        if not optimizer.satisfies_lovasz(red, 0.75):
            bad = f"Lovasz failed B={_fmt(B)}"
            break
        if not optimizer.is_unimodular(T):
            bad = f"transform not unimodular B={_fmt(B)}"
            break
        if not np.allclose(red, T @ B):
            bad = f"transform does not map basis B={_fmt(B)}"
            break
    results.append(("lll-contract", bad is None, bad))

    bad = None
    cfg = optimizer.OptimizerConfig()
    for _ in range(100):
        L = int(rng.integers(1, 5))
        H = rng.normal(size=(L, L))
        p = rng.uniform(0.5, 50.0, size=L)
        A = optimizer.select_coefficients(H, p, cfg.gammaOpt)
        if mat_rank(FieldMatrix(A, cfg.gammaOpt)) != L:
            bad = f"H={_fmt(H)} p={_fmt(p)} A={_fmt(A)}"
            break
    results.append(("coefficients-full-rank", bad is None, bad))
    return results


_SUITES = {
    "galois": _galois_properties,
    "lattice": _lattice_properties,
    "recovery": _recovery_properties,
    "rates": _rates_properties,
    "optimizer": _optimizer_properties,
}


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
        for pname, passed, counterexample in _SUITES[name](rng):
            props.append(
                {
                    "name": f"{name}.{pname}",
                    "passed": bool(passed),
                    "counterexample": counterexample,
                }
            )
    return {
        "scope": scope,
        "passed": all(p["passed"] for p in props),
        "properties": props,
    }
