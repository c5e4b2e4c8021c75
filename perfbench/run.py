"""ccfrelay benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload sweep-l2 --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py), all closed loops with one caller:

- sweep-l2:     ``evaluate_all`` over the five schemes, L = 2, default grid.
- sweep-l3:     the same at L = 3 with nBrute = 5 (125-row power mesh).
- exact-single: encode -> combine/compress -> ``srmq``, one message tuple
                per call, L = 3, over a pool of 32 assignments.
- exact-batch:  the same chain on 10^4 messages per call, a fresh
                assignment on every call, L cycling 2, 3, 4.

The run first measures set-up in fresh processes (``import ccfrelay`` plus
one warm-up operation), then warms up and measures operations for
``--seconds``.  Inputs come from ``--seed`` only and are made outside the
timed region.  Every output is checked; a wrong output or an exception from
the library counts as a failed operation and never stops the run.

Times are reported at reference speed.  On shared hosts the speed of one
core drifts by 25% or more over minutes, so the same inputs give results
that differ by more than any useful regression bound.  The run therefore
times a fixed reference kernel (``reference_work``, independent of
ccfrelay) between workload cycles and in every set-up probe, and scales
each measured time by ``REFERENCE_S`` over the median reference time of
the same run (or probe): a time of 1 s reads 1 s on a host where the
kernel takes ``REFERENCE_S``.  The scaled times are the JSON metrics
(except peak_rss_mb, a size); the report lines give the raw times and the
measured reference time.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are END_TO_END.  With ``--trace 1`` the run measures untraced for
half of ``--seconds``, then replays the same inputs with spans recorded
around every layer binding (spans.py); its metrics are PER_LAYER and the
spans go to ``perfbench/out/``.  The lines before the JSON object report
the machine and, under their own names, the metrics of this kind of
workload (draws_per_s, msgs_per_s, sum_rate.<scheme>, failed_frac, ...).

The library is imported from ``src/`` next to this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"

WORKLOAD_NAMES = ("sweep-l2", "sweep-l3", "exact-single", "exact-batch")
SETUP_PROBES = 3
# Nominal duration of one reference_work() call; see the module docstring.
REFERENCE_S = 0.005
PROBE_TIMEOUT_S = 150
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

# Gated metrics: defined on every workload.  An item is a channel draw
# (sweep-*) or a message tuple (exact-*); a call is one evaluate_all call
# or one full chain call.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}

_CALLS_MS = (
    "optimizer.select_coefficients",
    "optimizer.lll_reduce",
    "galois.mat_rank",
    "optimizer.pi_d_is_feasible",
    "optimizer.pi_e_is_feasible",
    "rates.computation_rate",
    "rates.max_rates_given_structure",
    "recovery.srq",
    "recovery.srm",
    "recovery.srmq",
    "galois.mat_inverse",
    "lattice.chainpoint_init",
)
PER_LAYER = {}
for _name in _CALLS_MS:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.ms"] = "ms"
PER_LAYER.update(
    {
        "optimizer.select_coefficients.failed": "count",
        "optimizer.distinct_A_ratio": "ratio",
        "optimizer.evaluate_all.ms": "ms",
        "optimizer.zero_rate_fallbacks": "count",
        "rates.second_hop_region.calls": "count",
        "galois.residual_submatrix.calls": "count",
        "pipeline.source_encode.ms": "ms",
        "pipeline.relay_combination.ms": "ms",
        "pipeline.compress.ms": "ms",
        "lattice.point_add.calls": "count",
        "lattice.point_scale.calls": "count",
        "lattice.mod_level.calls": "count",
        "lattice.quantize_level.calls": "count",
        "trace.ops": "count",
        "trace.op_ms_p50.untraced": "ms",
        "trace.op_ms_p50.traced": "ms",
        "trace.overhead_ratio": "ratio",
    }
)


class SetupError(Exception):
    """The benchmark cannot run here: no library sources, or set-up failed."""


def import_ccfrelay():
    """Import ccfrelay from this checkout's ``src/``, never an installed copy."""
    package = SRC / "ccfrelay"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no ccfrelay sources at {package}")
    sys.path.insert(0, str(SRC))
    import ccfrelay

    if Path(ccfrelay.__file__).resolve().parent != package.resolve():
        raise SetupError(f"ccfrelay was imported from {ccfrelay.__file__}, not from {package}")
    return ccfrelay


def reference_work() -> int:
    """Fixed mix of interpreter and small-array numpy work, about 5 ms on
    a 2-vCPU Xeon VM, timed next to the workload to track the host's speed."""
    import numpy as np

    a = np.arange(512, dtype=np.int64).reshape(64, 8) % 3
    g = np.arange(64, dtype=np.int64).reshape(8, 8) % 3
    acc = 0
    for k in range(300):
        b = np.mod(a @ g + k, 3)
        acc += int(b[k % 64, k % 8])
        acc += sum({j: j * k for j in range(20)}.values()) % 7
    return acc


def reference_times(count: int = 3) -> list:
    """Durations of ``count`` reference_work() calls, in seconds."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)
    return samples


class Phase:
    """Samples of one measured stretch of operations."""

    def __init__(self, cycle: int):
        self.cycle = cycle
        self.times = []
        self.op_items = []  # items carried by each operation, 0 if it failed
        # reference_work() durations, timed before and after every cycle
        self.refs = []
        self.failed = 0
        self.problems = []

    @property
    def ops(self) -> int:
        return len(self.times)

    @property
    def items(self) -> int:
        return sum(self.op_items)

    def p50_ms(self) -> float:
        return statistics.median(self.times) * 1e3

    def scale(self) -> float:
        """Factor taking this phase's times to reference speed."""
        return REFERENCE_S / statistics.median(self.refs)

    def items_per_s(self) -> float:
        """Median over the run's whole workload cycles of items completed
        per second of call time.  Every cycle has the same mix of inputs,
        and the median discards cycles disturbed by other load."""
        n = self.cycle
        rates = [
            sum(self.op_items[k : k + n]) / sum(self.times[k : k + n]) for k in range(0, self.ops - n + 1, n)
        ]
        return statistics.median(rates)


def run_ops(wl, phase: Phase, seconds=None, ops=None, tracer=None, observe=True) -> None:
    """Closed loop with one caller: operation i + 1 is issued after
    operation i has returned and been checked.  Runs exactly ``ops``
    operations, or whole cycles of the workload until ``seconds`` of wall
    time have passed.  Only the library call is timed."""
    start = time.perf_counter()

    def more(i):
        if ops is not None:
            return i < ops
        return i == 0 or i % wl.cycle != 0 or time.perf_counter() - start < seconds

    i = 0
    while more(i):
        if i % wl.cycle == 0:
            phase.refs.extend(reference_times())
        inp = wl.make_input(i)
        problems = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inp)
            else:
                tracer.op_id = i
                out = tracer.call("bench.op", wl.run, (inp,))
        except Exception as exc:  # a library failure is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.op_id = None
        if problems is None:
            try:
                problems = wl.check(inp, out)
            except Exception as exc:  # a malformed output is a failure too
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        phase.times.append(elapsed)
        if problems:
            phase.failed += 1
            phase.problems.extend(f"op {i}: {p}" for p in problems)
            phase.op_items.append(0)
        else:
            phase.op_items.append(wl.items(inp))
            if observe:
                wl.observe(inp, out)
        i += 1
    phase.refs.extend(reference_times())


def probe_setup(workload: str, seed: int, toy: bool) -> dict:
    """Set-up cost in this (fresh) process: import plus one operation."""
    start = time.perf_counter()
    import_ccfrelay()
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, toy)
    inp = wl.make_input(0)
    ok = True
    start = time.perf_counter()
    try:
        wl.run(inp)
    except Exception:  # reported to the parent, which counts it as failed
        ok = False
    warmup_s = time.perf_counter() - start
    reference_work()
    ref_s = statistics.median(reference_times(5))
    return {"import_s": import_s, "warmup_s": warmup_s, "ref_s": ref_s, "ok": ok}


def measure_setup(workload: str, seed: int, toy: bool, probes: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    if toy:
        cmd.append("--toy")
    samples = []
    for _ in range(probes):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=HERE.parent)
        except subprocess.TimeoutExpired:
            raise SetupError(f"set-up probe exceeded {PROBE_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise SetupError(f"set-up probe failed: {tail[0]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def setup_seconds(setup: list, scaled: bool = True) -> float:
    return statistics.median(
        (s["import_s"] + s["warmup_s"]) * (REFERENCE_S / s["ref_s"] if scaled else 1.0) for s in setup
    )


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = -1
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def percentile_ms(times, q: int) -> float:
    """Inclusive-method q-th percentile of the samples, in ms."""
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3


def report_rows(wl, phase: Phase, setup: list, peak_rss_mb: float, attempted: int, failed: int) -> list:
    """(name, value, unit, note) rows of the per-workload report."""
    rows = [("setup_s", setup_seconds(setup, scaled=False), "s", f"median of {len(setup)} fresh processes")]
    n = len(phase.times)
    per_s = phase.items_per_s()
    cycles = f"median over {n // wl.cycle} cycles of {wl.cycle} calls"
    if wl.kind == "sweep":
        rows.append(("draws_per_s", per_s, "1/s", f"{phase.items} draws, {cycles}"))
        rows.append(("draw_ms_p50", phase.p50_ms(), "ms", f"n={n}"))
        if n >= P90_MIN_SAMPLES:
            rows.append(("draw_ms_p90", percentile_ms(phase.times, 90), "ms", f"n={n}"))
        for scheme, rates in wl.sum_rates.items():
            if rates:
                rows.append((f"sum_rate.{scheme}", statistics.fmean(rates), "bit/dim", f"mean of {len(rates)} draws"))
    else:
        rows.append(("msgs_per_s", per_s, "1/s", f"{phase.items} message tuples, {cycles}"))
        rows.append(("call_us_p50", phase.p50_ms() * 1e3, "us", f"n={n}"))
        if n >= P90_MIN_SAMPLES:
            rows.append(("call_us_p90", percentile_ms(phase.times, 90) * 1e3, "us", f"n={n}"))
        rows.append(("assignment_reuse_share", wl.assignment_reuse_share(n), "ratio", f"{n} calls"))
    rows.append(("peak_rss_mb", peak_rss_mb, "MiB", "this process"))
    ref_ms = statistics.median(phase.refs) * 1e3
    note = f"median of {len(phase.refs)}; JSON times are scaled by {REFERENCE_S * 1e3!r} ms / this"
    rows.append(("reference_ms", ref_ms, "ms", note))
    rows.append(("failed_frac", failed / attempted, "ratio", f"{failed} failed of {attempted} attempted"))
    return rows


def layer_metrics(wl, tracer, untraced: Phase, traced: Phase) -> dict:
    values = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.calls[base]
        elif stat == "ms":
            values[name] = tracer.self_s[base] * 1e3
        elif stat == "failed":
            values[name] = tracer.failed[base]
    sel = "optimizer.select_coefficients"
    values["optimizer.distinct_A_ratio"] = (
        len(tracer.distinct[sel]) / tracer.calls[sel] if tracer.calls[sel] else 0.0
    )
    values["optimizer.zero_rate_fallbacks"] = getattr(wl, "zero_rate_fallbacks", 0)
    values["trace.ops"] = traced.ops
    values["trace.op_ms_p50.untraced"] = untraced.p50_ms()
    values["trace.op_ms_p50.traced"] = traced.p50_ms()
    values["trace.overhead_ratio"] = traced.p50_ms() / untraced.p50_ms()
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False, out=None) -> dict:
    """Run one workload and print the report and the result line to
    ``out`` (standard output by default)."""
    out = out or sys.stdout
    probes = 1 if toy else SETUP_PROBES
    setup = measure_setup(workload, seed, toy, probes)
    import_ccfrelay()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, toy)
    warmup = Phase(wl.cycle)
    run_ops(wl, warmup, ops=1, observe=False)
    untraced = Phase(wl.cycle)
    if not trace:
        run_ops(wl, untraced, seconds=seconds)
        phases = (warmup, untraced)
    else:
        from spans import traced_ccfrelay

        run_ops(wl, untraced, seconds=seconds / 2)
        traced = Phase(wl.cycle)
        with traced_ccfrelay() as tracer:
            run_ops(wl, traced, ops=untraced.ops, tracer=tracer, observe=False)
        tracer.write(SPANS_DIR / f"spans-{workload}.csv.gz")
        phases = (warmup, untraced, traced)

    attempted = sum(p.ops for p in phases) + len(setup)
    failed = sum(p.failed for p in phases) + sum(not s["ok"] for s in setup)
    for p in phases:
        for problem in p.problems[:5]:
            print(f"problem: {problem}", file=sys.stderr)

    env = environment()
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()), file=out)
    print(f"run workload={workload} seed={seed} seconds={seconds} trace={int(trace)} ops={untraced.ops}", file=out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        values = layer_metrics(wl, tracer, untraced, traced)
        units = PER_LAYER
    else:
        for name, value, unit, note in report_rows(wl, untraced, setup, peak_rss_mb, attempted, failed):
            print(f"metric {name} {value!r} {unit} ({note})", file=out)
        values = {
            "setup_s": setup_seconds(setup),
            "items_per_s": untraced.items_per_s() / untraced.scale(),
            "call_ms_p50": untraced.p50_ms() * untraced.scale(),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), file=out)
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy-size inputs, for the benchmark's own tests")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe_setup:
            print(json.dumps(probe_setup(args.workload, args.seed, args.toy)))
        else:
            run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    # numpy links a multi-threaded OpenBLAS; pin it before numpy is imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.exit(main())
