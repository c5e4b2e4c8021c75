import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

# The six comparisons against recorded output: the three golden sweep CSVs
# and the three JSON fixtures.
FIXTURE_TESTS = [
    "tests/test_cli.py::test_sweep_matches_golden_csv",
    "tests/test_recovery.py::test_exact_chain_is_identical_to_the_recorded_one",
    "tests/test_rates.py::test_rate_reports_are_bit_identical_to_the_recorded_ones",
    "tests/test_verify.py::test_verify_reports_are_identical_to_the_recorded_ones",
]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="np.vecdot calls OpenBLAS ddot, so the recorded bits hold only on its AVX-512 kernel: "
    "the golden CSVs and rate_reports.json differ in their last digits on the AVX2 kernels",
)
def test_recorded_fixtures_hold_without_avx512():
    # OpenBLAS's Haswell core type selects the AVX2 kernels it also runs on
    # AMD Zen, and numpy's own AVX-512 dispatch is switched off, both for
    # the child process only
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *FIXTURE_TESTS],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    # a run that did not reach all six comparisons is an error, not the
    # expected failure
    summary = (result.stdout.strip().splitlines() or [""])[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed)", summary)}
    if sum(counts.values()) != 6:
        pytest.fail(f"the fixture comparisons did not all run: {summary!r}")
    assert counts.get("failed", 0) == 0, result.stdout[-4000:]
