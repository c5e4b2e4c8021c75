import io
import json
from pathlib import Path

import numpy as np
import pytest

import ccfrelay.cli
import ccfrelay.pipeline
from ccfrelay.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY,
    RunConfig,
    SweepResult,
    config_from_mapping,
    draw_channel,
    emit_csv,
    main,
    parse_config_file,
    run_sweep,
)
from ccfrelay.errors import ConfigError, DecodeFailure
from ccfrelay.optimizer import SCHEMES


def small_config(**kw):
    base = dict(
        L=1,
        snrStart=0.0,
        snrStop=8.0,
        snrStep=4.0,
        trials=5,
        seed=3,
        schemes=("scf",),
        nBrute=6,
    )
    base.update(kw)
    return RunConfig(**base)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(snrStep=0.0)
    with pytest.raises(ConfigError):
        RunConfig(trials=0)
    with pytest.raises(ConfigError):
        RunConfig(schemes=())
    with pytest.raises(ConfigError):
        RunConfig(schemes=("bogus",))
    with pytest.raises(ConfigError):
        RunConfig(relayPowerRatio=-0.1)
    for field in ("snrStart", "snrStop", "snrStep", "relayPowerRatio"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                RunConfig(**{field: value})
    with pytest.raises(ConfigError, match="snrStop"):
        RunConfig(snrStart=10.0, snrStop=0.0)
    for key, value in (("trials", "x"), ("L", "2.5"), ("snrStep", "two")):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({key: value})


def test_snr_points_inclusive():
    cfg = small_config(snrStart=0.0, snrStop=24.0, snrStep=2.0)
    pts = cfg.snrPoints
    assert pts[0] == 0.0 and pts[-1] == 24.0 and len(pts) == 13


def test_sweep_deterministic_byte_identical():
    cfg = small_config()
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        emit_csv(run_sweep(cfg), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    assert bufs[0].startswith(CSV_HEADER + "\n")


def test_sweep_L1_matches_closed_form():
    # single source, single relay: the best rate on each draw is exactly
    # min(computation rate at full power, second-hop capacity)
    cfg = small_config(trials=8)
    result = run_sweep(cfg)
    for i, snr in enumerate(result.snrDb):
        P = 10.0 ** (snr / 10.0)
        expect = []
        for t in range(cfg.trials):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i, t)))
            ch = draw_channel(rng, 1, snr, cfg.relayPowerRatio)
            h = ch.H[0, 0]
            cap = 0.5 * np.log2(1.0 + ch.g[0] ** 2 * ch.P_R[0])
            expect.append(min(0.5 * np.log2(1.0 + h * h * P), cap))
        assert result.meanSumRate["scf"][i] == pytest.approx(np.mean(expect), abs=1e-9)


# Sweeps whose CSV output was recorded by the per-row scalar optimizer that
# the batched grid evaluator replaced; the output must not change by a byte.
GOLDEN = {
    "sweep_L2_all.csv": dict(L=2, snrStop=24.0, snrStep=6.0, trials=4, nBrute=100),
    "sweep_L3_all.csv": dict(L=3, snrStop=24.0, snrStep=4.0, trials=6, nBrute=5),
    "sweep_L4_scf.csv": dict(L=4, snrStop=24.0, snrStep=6.0, trials=6, schemes=("scf", "scf-q"), nBrute=100),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_matches_golden_csv(name):
    buf = io.StringIO()
    emit_csv(run_sweep(RunConfig(snrStart=0.0, seed=11, **GOLDEN[name])), buf)
    golden = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    assert buf.getvalue() == golden


def test_csv_round_trip():
    cfg = small_config(trials=2)
    result = run_sweep(cfg)
    buf = io.StringIO()
    emit_csv(result, buf)
    header, *lines = buf.getvalue().strip().split("\n")
    assert header == CSV_HEADER
    assert len(lines) == len(result.snrDb)
    for row, line in zip(result.rows(), lines):
        scheme, snr, mean, err, trials, seed = line.split(",")
        assert row == (scheme, float(snr), float(mean), float(err), int(trials), int(seed))
    for line in buf.getvalue().strip().split("\n"):
        assert line.count(",") == 5


def test_emit_csv_empty_schemes_header_only():
    result = SweepResult(
        config=small_config(), schemes=(), snrDb=(0.0,), meanSumRate={}, stderr={}
    )
    buf = io.StringIO()
    emit_csv(result, buf)
    assert buf.getvalue() == CSV_HEADER + "\n"


def test_schemes_set_from_python_follow_the_text_rule():
    # a tuple or list is taken as the scheme names themselves, with the
    # same empty and repeat checks as comma-separated text
    for value in (("scf", "acf"), ["scf", "acf"], "scf, acf"):
        assert config_from_mapping({"schemes": value}).schemes == ("scf", "acf")
    for value in ((), [], " , "):
        with pytest.raises(ConfigError, match="schemes must be nonempty"):
            config_from_mapping({"schemes": value})
    for value in (("scf", "scf"), "scf,scf"):
        with pytest.raises(ConfigError, match="scheme 'scf' listed twice"):
            config_from_mapping({"schemes": value})
    with pytest.raises(ConfigError, match="scheme 'scf' listed twice"):
        RunConfig(schemes=("scf", "acf", "scf"))


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nL = 2\ntrials = 4  # inline\nschemes = scf, acf\n", encoding="utf-8")
    cfg = config_from_mapping(parse_config_file(str(path)))
    assert cfg.L == 2 and cfg.trials == 4 and cfg.schemes == ("scf", "acf")
    bad = tmp_path / "bad.cfg"
    bad.write_text("no separator here\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))
    with pytest.raises(ConfigError):
        config_from_mapping({"mystery": "1"})


def test_main_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--seed",
            "1",
            "--trials",
            "2",
            "--snr",
            "0:4:4",
            "--schemes",
            "scf",
            "--L",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert text.startswith(CSV_HEADER + "\n")
    assert len(text.strip().split("\n")) == 3


def test_main_exit_code_config_error(tmp_path, capsys):
    assert main(["sweep", "--snr", "nonsense"]) == EXIT_CONFIG
    assert main(["sweep", "--schemes", "bogus", "--trials", "1", "--L", "1"]) == EXIT_CONFIG
    for snr in ("10:0:2", "nan:1:1", "0:inf:1", "0:1e300:1"):
        assert main(["sweep", "--snr", snr, "--trials", "1", "--L", "1"]) == EXIT_CONFIG
    for line in ("trials = x", "relayPowerRatio = nan"):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n", encoding="utf-8")
        assert main(["sweep", "--config", str(path), "--L", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("config error: ") == 8


def test_powers_must_be_positive_and_finite(tmp_path, capsys):
    # P = 10^(SNR/10) overflows at 3090 dB and underflows to 0 at -4000 dB,
    # at either end of the range; a relay power ratio of 1e308 overflows the
    # relay power 10 * 1e308 at 10 dB
    for snr in ("3090:3090:1", "-4000:-4000:1", "0:3090:3090", "-4000:0:4000"):
        assert main(["sweep", "--L", "2", f"--snr={snr}", "--trials", "1"]) == EXIT_CONFIG
    path = tmp_path / "run.cfg"
    path.write_text("relayPowerRatio = 1e308\nsnrStart = 0\nsnrStop = 10\nsnrStep = 10\n", encoding="utf-8")
    assert main(["sweep", "--config", str(path), "--L", "2", "--trials", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("config error: ") == 5
    assert "SNR [3090.0, 3090.0] dB gives source powers [inf, inf]" in captured.err
    # the ends are the range's points: 3100 dB is past the last one, 3000 dB
    RunConfig(snrStart=3000.0, snrStop=3100.0, snrStep=1000.0)
    RunConfig(snrStart=0.0, snrStop=10.0, relayPowerRatio=1e307)
    with pytest.raises(ConfigError, match=r"relay powers \[1e\+308, inf\]"):
        RunConfig(snrStart=0.0, snrStop=10.0, snrStep=10.0, relayPowerRatio=1e308)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep", "--seed", "-1", "--trials", "1", "--L", "1"], "seed must be >= 0"),
        (["sweep", "--config", "{cfg}", "--trials", "1", "--L", "1"], "seed must be >= 0"),
        (["verify", "--seed", "-1"], "seed must be >= 0"),
        (["demo-noisy", "--seed", "-1"], "seed must be >= 0"),
        (["demo-noisy", "--trials", "0"], "trials must be >= 1"),
        (["sweep", "--L", "0", "--trials", "1"], "L must be >= 1"),
    ],
    ids=["sweep-seed", "sweep-config-seed", "verify-seed", "demo-noisy-seed", "demo-noisy-trials", "sweep-L"],
)
def test_out_of_range_seed_or_trials_is_a_config_error(argv, message, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = -1\n", encoding="utf-8")
    assert main([arg.format(cfg=path) for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def test_flag_replaces_the_config_file_key(tmp_path):
    # the flag's value is the one validated: the file's trials = 0 never is
    path = tmp_path / "run.cfg"
    path.write_text("trials = 0\nschemes = acf\nL = 1\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(path), "--trials", "2", "--schemes", "scf", "--snr", "0:4:4", "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows = out.read_text(encoding="utf-8").strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["scf", "scf"]
    assert all(row.endswith(",2,0") for row in rows)
    assert main(["sweep", "--config", str(path), "--snr", "0:4:4"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_schemes_flag_follows_one_rule(command, tmp_path, capsys):
    # empty entries are dropped, and an empty list is a configuration error
    chan = tmp_path / "chan.cfg"
    chan.write_text("H = 1 0; 0 1\ng = 1 1\nP = 1 1\nP_R = 1 1\n", encoding="utf-8")
    base = {
        "sweep": ["sweep", "--trials", "1", "--L", "1", "--snr", "0:0:1"],
        "optimize": ["optimize", "--config", str(chan)],
    }[command]
    assert main(base + ["--schemes", "scf,"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    for schemes in ("", " , "):
        assert main(base + ["--schemes", schemes]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: schemes must be nonempty\n"


@pytest.mark.parametrize("command", ["sweep", "sweep-config", "optimize"])
def test_repeated_scheme_is_a_config_error(command, tmp_path, capsys):
    # a scheme listed twice would be computed and printed twice
    chan = tmp_path / "chan.cfg"
    chan.write_text("H = 1 0; 0 1\ng = 1 1\nP = 1 1\nP_R = 1 1\n", encoding="utf-8")
    run = tmp_path / "run.cfg"
    run.write_text("schemes = scf, acf, scf\n", encoding="utf-8")
    argv = {
        "sweep": ["sweep", "--trials", "1", "--L", "1", "--snr", "0:0:1", "--schemes", "scf,acf,scf"],
        "sweep-config": ["sweep", "--trials", "1", "--L", "1", "--snr", "0:0:1", "--config", str(run)],
        "optimize": ["optimize", "--config", str(chan), "--schemes", "scf,acf,scf"],
    }[command]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: scheme 'scf' listed twice\n"


def test_repeated_config_key_is_a_config_error(tmp_path, capsys):
    # the first value would otherwise be dropped without a word
    path = tmp_path / "run.cfg"
    path.write_text("trials = 3\n# comment\nL = 1\ntrials = 0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="run.cfg:4: key 'trials' already set on line 1"):
        parse_config_file(str(path))
    assert main(["sweep", "--config", str(path), "--snr", "0:0:1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {path}:4: key 'trials' already set on line 1\n"


@pytest.mark.parametrize("command", ["sweep", "optimize"])
def test_config_file_that_is_not_utf8_is_a_config_error(command, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"trials = 2\n\xff\xfe = 3\n")
    with pytest.raises(ConfigError, match="bad.cfg: not UTF-8 text"):
        parse_config_file(str(path))
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {path}: not UTF-8 text\n"


def test_main_exit_code_numeric_error(capsys):
    # at 150 dB the L = 2 reduction loses its precision on some draw: the
    # sweep stops with a named error that says where, not a traceback
    code = main(["sweep", "--L", "2", "--seed", "1", "--snr", "150:150:1", "--trials", "10"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and "reduction failed to converge" in err
    assert "SNR 150.0 dB" in err and "trial " in err and "seed 1" in err


def test_main_exit_code_io_error(tmp_path):
    code = main(
        [
            "sweep",
            "--trials",
            "1",
            "--snr",
            "0:0:1",
            "--schemes",
            "scf",
            "--L",
            "1",
            "--out",
            str(tmp_path / "missing" / "dir" / "x.csv"),
        ]
    )
    assert code == EXIT_IO


def test_main_verify_ok(capsys):
    assert main(["verify", "--scope", "galois"]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"passed": true' in out


def test_main_verify_detects_mutation(monkeypatch, capsys):
    # corrupt the relay compression stage; the recovery suite must notice
    real = ccfrelay.pipeline.compress

    def sabotaged(delta, m, asg):
        out = real(delta, m, asg)
        bumped = out.digits.copy()
        k = asg.modulo_level_of(m)
        if k < asg.spec.kMax:
            bumped[..., k] = (bumped[..., k] + 1) % asg.spec.gamma
        return type(out)(out.spec, bumped, out.ints)

    monkeypatch.setattr(ccfrelay.pipeline, "compress", sabotaged)
    assert main(["verify", "--scope", "recovery"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert '"passed": false' in out


def test_main_optimize(tmp_path, capsys):
    cfg = tmp_path / "chan.cfg"
    cfg.write_text(
        "H = 1.0 0.5; 0.3 1.2\ng = 1.0 0.8\nP = 20 20\nP_R = 5 5\n", encoding="utf-8"
    )
    assert main(["optimize", "--config", str(cfg), "--schemes", "scf"]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"scf"' in out and '"sumRate"' in out
    assert main(["optimize"]) == EXIT_CONFIG


def test_main_optimize_unequal_budgets(tmp_path, capsys):
    # the per-source mesh lacks the common-power rows here; acf searches
    # them too, so it scores no less than scf, and every scheme reports
    # its powers and coefficients
    cfg = tmp_path / "chan.cfg"
    cfg.write_text("H = 1.3 1.0; -2.7 -1.9\ng = -0.2 -0.4\nP = 6.4 220.2\nP_R = 28.3 28.3\n", encoding="utf-8")
    assert main(["optimize", "--config", str(cfg)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert list(out) == list(SCHEMES)
    assert out["acf"]["sumRate"] >= out["scf"]["sumRate"]
    for entry in out.values():
        assert len(entry["powers"]) == 2 and np.array(entry["coefficients"]).shape == (2, 2)


@pytest.mark.parametrize("schemes", [[], ["--schemes", "acf,scf"]], ids=["all", "acf,scf"])
def test_main_optimize_overflowing_metric_is_a_numeric_error(schemes, tmp_path, capsys):
    # 1e200 squared overflows the effective-noise metric: the run stops with
    # a named error, not a traceback or rank-deficient coefficients
    cfg = tmp_path / "chan.cfg"
    cfg.write_text("H = 1e200 1; 0 1\ng = 1 1\nP = 100 100\nP_R = 25 25\n", encoding="utf-8")
    assert main(["optimize", "--config", str(cfg), *schemes]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric error: the effective-noise metric is not finite: the channel and powers overflow\n"


POWERS = "source powers P must be positive and relay powers P_R non-negative"


@pytest.mark.parametrize(
    "channel,message",
    [
        ("H = 1 0 0; 0 1 0\ng = 1 1\nP = 1 1\nP_R = 1 1\n", "bad channel: H must be square"),
        ("H = 1 0; 0 1\ng = 1 1\nP = 0 1\nP_R = 1 1\n", f"bad channel: {POWERS}"),
        ("H = 1 0; 0 1\ng = 1 1\nP = -1 1\nP_R = 1 1\n", f"bad channel: {POWERS}"),
        ("H = 1 0; 0 1\ng = 1 1\nP = 1 1\nP_R = 1 -1\n", f"bad channel: {POWERS}"),
        ("H = 1 0; 0 1\nP = 1 1\nP_R = 1 1\n", "channel config missing key 'g'"),
        ("H = 1 x; 0 1\ng = 1 1\nP = 1 1\nP_R = 1 1\n", "channel entries must be numbers"),
    ],
    ids=["non-square-H", "zero-P", "negative-P", "negative-P_R", "missing-g", "non-number-H"],
)
def test_main_optimize_rejects_degenerate_channel(channel, message, tmp_path, capsys):
    cfg = tmp_path / "chan.cfg"
    cfg.write_text(channel, encoding="utf-8")
    assert main(["optimize", "--config", str(cfg), "--schemes", "scf"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def test_optimize_rejects_ragged_channel_rows(tmp_path, capsys):
    cfg = tmp_path / "chan.cfg"
    cfg.write_text("H = 1 2; 3\ng = 1 1\nP = 1 1\nP_R = 1 1\n", encoding="utf-8")
    assert main(["optimize", "--config", str(cfg), "--schemes", "scf"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: H rows must have equal length\n"


def test_main_demo_noisy(capsys):
    assert main(["demo-noisy", "--trials", "20", "--seed", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "error_rate" in out


def test_demo_noisy_counts_only_decode_failures(monkeypatch, capsys):
    # a decode failure is a counted error; any other exception is a bug and
    # must propagate instead of being counted as one
    def failing(*args):
        raise DecodeFailure("near-tie")

    monkeypatch.setattr(ccfrelay.cli, "noisy_compute_demo", failing)
    assert main(["demo-noisy", "--trials", "3"]) == EXIT_OK
    assert "error_rate=1.0" in capsys.readouterr().out

    def broken(*args):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(ccfrelay.cli, "noisy_compute_demo", broken)
    with pytest.raises(ZeroDivisionError):
        main(["demo-noisy", "--trials", "3"])


@pytest.mark.parametrize("command", ["sweep", "verify", "optimize", "demo-noisy"])
def test_format_flag_is_rejected(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--config", "missing.cfg"],
        ["optimize", "--seed", "1"],
        ["demo-noisy", "--config", "missing.cfg"],
        ["demo-noisy", "--out", "demo.txt"],
    ],
    ids=["verify-config", "optimize-seed", "demo-noisy-config", "demo-noisy-out"],
)
def test_option_the_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_optimize_rejects_unknown_channel_key(tmp_path, capsys):
    # the channel file holds the channel only: search settings such as
    # gammaOpt are not read from it, so they are rejected like any typo
    cfg = tmp_path / "chan.cfg"
    cfg.write_text("H = 1 0; 0 1\ng = 1 1\nP = 1 1\nP_R = 1 1\ngammaOpt = 4\nbogus = 1\n", encoding="utf-8")
    assert main(["optimize", "--config", str(cfg), "--schemes", "scf"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and "'gammaOpt'" in captured.err


def test_gamma_exact_config_key_is_rejected(tmp_path):
    # no command reads an exact-layer field size from a sweep config, so
    # the key is unknown like any other
    path = tmp_path / "run.cfg"
    path.write_text("gammaExact = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        config_from_mapping(parse_config_file(str(path)))
    assert main(["sweep", "--config", str(path), "--trials", "1", "--L", "1"]) == EXIT_CONFIG


def test_non_prime_gamma_opt_is_rejected(tmp_path):
    # rejected before the grid search, not when the winner is rebuilt
    path = tmp_path / "run.cfg"
    path.write_text("gammaOpt = 4\n", encoding="utf-8")
    assert main(["sweep", "--config", str(path), "--trials", "1", "--L", "1"]) == EXIT_CONFIG
