"""Tests of the benchmark itself, at toy size.

Run from the repository root: ``python -m pytest perfbench``.
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer

run.import_ccfrelay()

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Report lines every workload prints, and those of one kind of workload.
# A p90 needs 100 samples, so the workloads that report one run longer.
COMMON = {"setup_s", "peak_rss_mb", "reference_ms", "failed_frac"}
SWEEP = {"draws_per_s", "draw_ms_p50"} | {f"sum_rate.{s}" for s in ("scf", "scf-q", "acf", "acf-m", "acf-mq")}
EXACT = {"msgs_per_s", "call_us_p50", "assignment_reuse_share"}
REPORTED = {
    "sweep-l2": COMMON | SWEEP | {"draw_ms_p90"},
    "sweep-l3": COMMON | SWEEP,
    "exact-single": COMMON | EXACT | {"call_us_p90"},
    "exact-batch": COMMON | EXACT,
}
SECONDS = {"sweep-l2": 2.0, "exact-single": 2.0}


def toy_run(workload, trace, seconds=0.2):
    out = io.StringIO()
    result = run.run(workload, seed=3, seconds=seconds, trace=trace, toy=True, out=out)
    lines = out.getvalue().strip().splitlines()
    assert json.loads(lines[-1]) == result
    return result, lines[:-1]


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_json_names_the_printed_metrics():
    assert units(SPEC["end_to_end"]) == run.END_TO_END
    assert units(SPEC["per_layer"]) == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_every_metric_is_printed(workload):
    result, report = toy_run(workload, trace=False, seconds=SECONDS.get(workload, 0.2))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1] for line in report if line.startswith("metric ")}
    assert printed == REPORTED[workload]
    env = next(line for line in report if line.startswith("env "))
    for key in ("nproc=", "cpu=", "python=", "numpy="):
        assert key in env
    # the JSON times are the raw ones at reference speed
    raw = {line.split()[1]: float(line.split()[2]) for line in report if line.startswith("metric ")}
    raw_p50_ms = raw["draw_ms_p50"] if workload.startswith("sweep") else raw["call_us_p50"] / 1e3
    scaled = raw_p50_ms * run.REFERENCE_S * 1e3 / raw["reference_ms"]
    assert result["metrics"]["call_ms_p50"]["value"] == pytest.approx(scaled, rel=1e-9)

    result, _ = toy_run(workload, trace=True)
    assert result["correct"]
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    ops = layer["trace.ops"]
    assert ops >= 1
    if workload == "sweep-l2":
        assert layer["optimizer.select_coefficients.calls"] == 0
    if workload == "sweep-l3":
        assert layer["optimizer.select_coefficients.calls"] > 0
        assert 0 < layer["optimizer.distinct_A_ratio"] <= 1
    if workload.startswith("exact"):
        assert layer["recovery.srmq.calls"] == ops
        assert layer["recovery.srq.calls"] == ops
        assert layer["lattice.chainpoint_init.calls"] > 0


def test_injected_wrong_recovery_counts_as_failed(monkeypatch):
    from ccfrelay import recovery
    from ccfrelay.lattice import ChainPoint

    real_srmq = recovery.srmq

    def corrupted_srmq(v, dithers, asg):
        out = real_srmq(v, dithers, asg)
        first = out[0]
        out[0] = ChainPoint(first.spec, (first.digits + 1) % first.spec.gamma, first.ints)
        return out

    monkeypatch.setattr(recovery, "srmq", corrupted_srmq)
    result, report = toy_run("exact-single", trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    failed_frac = next(line for line in report if line.startswith("metric failed_frac "))
    assert float(failed_frac.split()[2]) > 0


def test_library_exception_counts_as_failed(monkeypatch):
    from ccfrelay import optimizer

    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(optimizer, "evaluate_all", broken)
    result, _ = toy_run("sweep-l3", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1  # the set-up probe ran unpatched


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("inner", inner) + tracer.call("inner", inner)

    tracer.op_id = 0
    tracer.call("outer", outer)
    spans = {k: s for k, s in enumerate(tracer.spans)}
    (outer_k,) = [k for k, s in spans.items() if s[0] == "outer"]
    children = [s for s in spans.values() if s[3] == outer_k]
    assert len(children) == 2
    outer_span = spans[outer_k]
    child_s = sum(end - start for _, start, end, *_ in children)
    assert tracer.self_s["outer"] == pytest.approx(outer_span[2] - outer_span[1] - child_s, abs=1e-12)
    assert tracer.self_s["inner"] == pytest.approx(child_s, abs=1e-12)
    assert tracer.calls == {"outer": 1, "inner": 2}


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-l2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
