"""The four benchmark workloads: input generation, the library call each
operation makes, and the check of every output.

Each workload is a closed loop with one caller.  Operation ``i`` takes the
input ``make_input(i)``, which depends only on the seed and ``i``, so a
traced run can replay exactly the inputs an untraced run measured.  Only
``run`` is timed; ``check`` and ``observe`` look at its output afterwards.

The library is always called through module attributes
(``optimizer.evaluate_all``, ``recovery.srmq``, ...), never through names
bound here, so the wrappers that ``spans.Tracer`` installs see every call.
"""

from __future__ import annotations

import numpy as np

from ccfrelay import galois, optimizer, pipeline, recovery
from ccfrelay.cli import draw_channel
from ccfrelay.verify import random_assignment

# Draws cycle over these SNR points in order.  A draw at 24 dB costs about
# twice one at 0 dB at L = 3, so runs stop only after whole cycles, which
# gives every SNR the same share of draws.
SNR_DB = np.arange(0.0, 25.0, 4.0)
RELAY_POWER_RATIO = 0.25
# Tolerance of the per-draw dominance checks, as in the repository's tests.
DOMINANCE_TOL = 1e-9


class Sweep:
    """One ``evaluate_all`` call over the five schemes per channel draw."""

    kind = "sweep"
    cycle = len(SNR_DB)

    def __init__(self, seed: int, L: int, n_brute: int, check_dominance: bool):
        self.seed = seed
        self.L = L
        self.config = optimizer.OptimizerConfig(nBrute=n_brute)
        self.check_dominance = check_dominance
        self.sum_rates = {s: [] for s in optimizer.SCHEMES}
        self.zero_rate_fallbacks = 0

    def make_input(self, i: int):
        # seeded as ccfrelay.cli.run_sweep seeds (seed, snr index, trial)
        snr_index, trial = i % len(SNR_DB), i // len(SNR_DB)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, snr_index, trial)))
        return draw_channel(rng, self.L, float(SNR_DB[snr_index]), RELAY_POWER_RATIO)

    def items(self, channel) -> int:
        return 1

    def run(self, channel):
        return optimizer.evaluate_all(channel, self.config)

    def check(self, channel, results) -> list:
        problems = []
        rates = {}
        for scheme in optimizer.SCHEMES:
            asg, report = results[scheme]
            rate = report.sumRate
            rates[scheme] = rate
            if not (np.isfinite(rate) and rate >= 0.0):
                problems.append(f"{scheme}: sum rate {rate!r} is not finite and >= 0")
            if asg is not None:
                Q = galois.FieldMatrix(asg.A, self.config.gammaOpt)
                if galois.mat_rank(Q) != self.L:
                    problems.append(f"{scheme}: A={asg.A.tolist()} is not full rank mod {self.config.gammaOpt}")
        if self.check_dominance:
            for low, high in (("scf", "scf-q"), ("acf", "acf-m"), ("acf-m", "acf-mq")):
                if not rates[low] <= rates[high] + DOMINANCE_TOL:
                    problems.append(f"{low}={rates[low]!r} exceeds {high}={rates[high]!r}")
        return problems

    def observe(self, channel, results) -> None:
        for scheme, (asg, report) in results.items():
            self.sum_rates[scheme].append(report.sumRate)
            self.zero_rate_fallbacks += asg is None


class ExactChain:
    """Encode, every relay's combination and compression, then ``srmq``."""

    kind = "exact"

    def __init__(self, seed: int, Ls: tuple, gamma: int, n: int, batch, pool: int):
        """``batch`` is the message count per call, or None for one
        unbatched message tuple; ``pool`` is the number of assignments
        cycled over, or 0 for a fresh assignment on every call."""
        self.seed = seed
        self.Ls = Ls
        self.gamma = gamma
        self.n = n
        self.batch = batch
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        self.pool = [random_assignment(rng, gamma, n, Ls[k % len(Ls)]) for k in range(pool)]
        # runs stop after whole cycles, so every pooled assignment, or
        # every L, gets the same share of calls
        self.cycle = len(self.pool) or len(Ls)

    def make_input(self, i: int):
        if self.pool:
            asg = self.pool[i % len(self.pool)]
        else:
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1, i)))
            asg = random_assignment(rng, self.gamma, self.n, self.Ls[i % len(self.Ls)])
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 2, i)))
        shape = () if self.batch is None else (self.batch,)
        msgs = [rng.integers(0, self.gamma, size=shape + (asg.message_length(l),)) for l in range(1, asg.L + 1)]
        return asg, msgs

    def items(self, inp) -> int:
        return 1 if self.batch is None else self.batch

    def run(self, inp):
        asg, msgs = inp
        L = asg.L
        t = [pipeline.source_encode(msgs[l - 1], l, asg) for l in range(1, L + 1)]
        v = [pipeline.compress(pipeline.relay_combination(t, m, asg), m, asg) for m in range(1, L + 1)]
        return recovery.srmq(v, None, asg)

    def check(self, inp, recovered) -> list:
        """Each recovered codeword must be, bit for bit, the codeword of the
        sent message: the message digits in the source's slice of the
        chain, zero digits elsewhere and a zero integer part."""
        asg, msgs = inp
        problems = []
        for l in range(1, asg.L + 1):
            got = recovered[l - 1]
            lp = asg.level_pair(l)
            want = np.zeros(msgs[l - 1].shape[:-1] + (asg.spec.kMax,), dtype=np.int64)
            want[..., lp.kShaping : lp.kCoding] = msgs[l - 1]
            if not (
                np.array_equal(got.digits, want)
                and got.ints.shape == want.shape[:-1] + (asg.spec.n,)
                and not np.any(got.ints)
            ):
                problems.append(f"source {l}: recovered codeword differs from the sent one")
        return problems

    def observe(self, inp, recovered) -> None:
        pass

    def assignment_reuse_share(self, calls: int) -> float:
        """Share of calls whose assignment an earlier call already used."""
        distinct = min(calls, len(self.pool)) if self.pool else calls
        return 1.0 - distinct / calls


def sweep_l2(seed: int, toy: bool):
    # L = 2 takes the vectorized path at the default grid (nBrute = 100)
    return Sweep(seed, L=2, n_brute=10 if toy else 100, check_dominance=True)


def sweep_l3(seed: int, toy: bool):
    # nBrute = 5 gives a 125-row per-source mesh (the default grid has
    # 195,112 rows, minutes per draw).  At nBrute = 8 a 25 s run holds only
    # three or four SNR cycles, and one cheap or costly draw moves its
    # result by over 10%; at 5 it holds about fourteen.
    return Sweep(seed, L=3, n_brute=2 if toy else 5, check_dominance=False)


def exact_single(seed: int, toy: bool):
    # per-call cost differs by up to 1.5x between assignments; 32 of them
    # average that out while every one is still reused about 100 times a run
    return ExactChain(seed, Ls=(3,), gamma=3, n=8, batch=None, pool=4 if toy else 32)


def exact_batch(seed: int, toy: bool):
    return ExactChain(seed, Ls=(2, 3, 4), gamma=3, n=8, batch=50 if toy else 10_000, pool=0)


WORKLOADS = {
    "sweep-l2": sweep_l2,
    "sweep-l3": sweep_l3,
    "exact-single": exact_single,
    "exact-batch": exact_batch,
}
