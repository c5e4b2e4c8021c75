import json
from pathlib import Path

import numpy as np

import ccfrelay.verify
from ccfrelay.cli import EXIT_VERIFY, main
from ccfrelay.verify import run_verify

VERIFY_REPORTS = Path(__file__).parent / "data" / "verify_reports.json"
SEEDS = (0, 3, 7)


def verify_report_records():
    return [{"seed": seed, "report": run_verify("all", seed)} for seed in SEEDS]


def test_verify_reports_are_identical_to_the_recorded_ones():
    recorded = json.loads(VERIFY_REPORTS.read_text(encoding="utf-8"))
    assert verify_report_records() == recorded


def _failures(report):
    return {p["name"]: p["counterexample"] for p in report["properties"] if not p["passed"]}


def test_fixed_pi_d_fails_the_residual_rank_property(monkeypatch, capsys):
    # the identity ordering is infeasible for some drawn A; the library's own
    # rank predicate must catch it
    monkeypatch.setattr(ccfrelay.verify, "feasible_pi_d", lambda Q, pi_c: tuple(range(1, Q.rows + 1)))
    failed = _failures(run_verify("galois", 0))
    assert list(failed) == ["galois.feasible-permutation-residual-ranks"]
    assert failed["galois.feasible-permutation-residual-ranks"].startswith("pi_d gamma=")
    assert main(["verify", "--scope", "galois"]) == EXIT_VERIFY
    assert '"passed": false' in capsys.readouterr().out


def test_unreduced_lll_fails_the_lll_contract(monkeypatch, capsys):
    monkeypatch.setattr(ccfrelay.verify.optimizer, "lll_reduce", lambda B: (B, np.eye(len(B), dtype=np.int64)))
    failed = _failures(run_verify("optimizer", 0))
    assert list(failed) == ["optimizer.lll-contract"]
    assert "B=" in failed["optimizer.lll-contract"]
    assert main(["verify", "--scope", "optimizer"]) == EXIT_VERIFY
    assert '"passed": false' in capsys.readouterr().out


if __name__ == "__main__":
    # regenerate the recorded reports: python tests/test_verify.py
    lines = ",\n".join(json.dumps(record) for record in verify_report_records())
    VERIFY_REPORTS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
