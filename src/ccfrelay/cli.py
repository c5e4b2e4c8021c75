"""Command-line front end: Monte Carlo sweeps, verification, single-instance
optimization, and a noisy-computation demo.

Reproducibility: each (seed, snr index, trial) triple derives its own
substream through numpy's SeedSequence, so results are identical across
runs and platforms regardless of trial ordering.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DecodeFailure, ReductionError
from .optimizer import SCHEMES, OptimizerConfig, check_schemes, evaluate_all
from .pipeline import ChannelInstance, compress, noisy_compute_demo, relay_combination, source_encode
from .verify import SCOPES, random_assignment, run_verify

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

CSV_HEADER = "scheme,snr_db,mean_sum_rate,stderr,trials,seed"

# bound on the SNR points of a sweep, so that a mistyped range is a
# configuration error instead of a failed allocation
_MAX_SNR_STEPS = 100_000


@dataclass(frozen=True)
class RunConfig:
    """Settings of one Monte Carlo sweep."""

    L: int = 2
    gammaOpt: int = 257
    snrStart: float = 0.0
    snrStop: float = 24.0
    snrStep: float = 2.0
    trials: int = 100
    seed: int = 0
    schemes: tuple = SCHEMES
    relayPowerRatio: float = 0.25
    nBrute: int = 100
    outputPath: str = None

    def __post_init__(self):
        if not np.all(np.isfinite([self.snrStart, self.snrStop, self.snrStep, self.relayPowerRatio])):
            raise ConfigError("snrStart, snrStop, snrStep and relayPowerRatio must be finite")
        if self.snrStop < self.snrStart:
            raise ConfigError("snrStop must be >= snrStart")
        if self.snrStep <= 0:
            raise ConfigError("snrStep must be positive")
        if not (self.snrStop - self.snrStart) / self.snrStep < _MAX_SNR_STEPS:
            raise ConfigError(f"the SNR range must span fewer than {_MAX_SNR_STEPS} steps")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.schemes:
            raise ConfigError("schemes must be nonempty")
        object.__setattr__(self, "schemes", check_schemes(self.schemes))
        if self.L < 1:
            raise ConfigError("L must be >= 1")
        if self.relayPowerRatio < 0:
            raise ConfigError("relayPowerRatio must be >= 0")
        # the powers draw_channel gives at the ends of the range
        snr = self.snrPoints[[0, -1]]
        with np.errstate(all="ignore"):
            P = 10.0 ** (snr / 10.0)
            P_R = self.relayPowerRatio * P
        if not np.all((P > 0) & np.isfinite(P) & np.isfinite(P_R)):
            raise ConfigError(
                f"SNR {snr.tolist()} dB gives source powers {P.tolist()} and relay powers {P_R.tolist()}: "
                "all must be finite and the source powers positive"
            )

    @property
    def snrPoints(self) -> np.ndarray:
        count = int(np.floor((self.snrStop - self.snrStart) / self.snrStep + 1e-9)) + 1
        return self.snrStart + self.snrStep * np.arange(count)


@dataclass(frozen=True)
class SweepResult:
    """Aggregated sum rates per (scheme, SNR), paired across schemes."""

    config: RunConfig
    schemes: tuple
    snrDb: tuple
    meanSumRate: dict
    stderr: dict

    def rows(self):
        for scheme in self.schemes:
            for i, snr in enumerate(self.snrDb):
                yield (
                    scheme,
                    snr,
                    self.meanSumRate[scheme][i],
                    self.stderr[scheme][i],
                    self.config.trials,
                    self.config.seed,
                )


def parse_config_file(path: str) -> dict:
    """Flat key = value lines of UTF-8 text; '#' starts a comment; values
    keep raw text.  A key set twice is a configuration error."""
    out = {}
    key_line = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in key_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {key_line[key]}")
        key_line[key] = lineno
        out[key] = value
    return out


def _split_schemes(value) -> tuple:
    """Scheme names, from comma-separated text (empty entries are dropped)
    or from a tuple or list of the names; an empty list is a configuration
    error, and RunConfig and evaluate_all check the names."""
    if isinstance(value, (tuple, list)):
        schemes = tuple(value)
    else:
        schemes = tuple(s.strip() for s in str(value).split(",") if s.strip())
    if not schemes:
        raise ConfigError("schemes must be nonempty")
    return schemes


# the parser of each RunConfig field, by its annotation
_PARSERS = {"int": int, "float": float, "tuple": _split_schemes, "str": str}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}


def config_from_mapping(mapping: dict) -> RunConfig:
    """RunConfig from key -> value pairs, each value raw text or already
    of its field's type."""
    updates = {}
    for key, value in mapping.items():
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        parse = _FIELD_PARSERS[key]
        try:
            updates[key] = parse(value)
        except ValueError:
            raise ConfigError(f"config key {key!r} must be {parse.__name__}, got {value!r}") from None
    return RunConfig(**updates)


def draw_channel(rng, L: int, snr_db: float, relay_power_ratio: float) -> ChannelInstance:
    """Standard normal H and g; transmit power P = 10^(SNR/10), unit noise."""
    P = 10.0 ** (snr_db / 10.0)
    H = rng.normal(size=(L, L))
    g = rng.normal(size=L)
    return ChannelInstance(H, g, np.full(L, P), np.full(L, relay_power_ratio * P))


def run_sweep(config: RunConfig) -> SweepResult:
    """Paired Monte Carlo sweep: every scheme sees the same channel draw."""
    opt_cfg = OptimizerConfig(nBrute=config.nBrute, gammaOpt=config.gammaOpt)
    snrs = config.snrPoints
    sums = {s: np.zeros((len(snrs), config.trials)) for s in config.schemes}
    for i, snr in enumerate(snrs):
        for t in range(config.trials):
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, i, t)))
            channel = draw_channel(rng, config.L, float(snr), config.relayPowerRatio)
            try:
                results = evaluate_all(channel, opt_cfg, config.schemes)
            except ReductionError as exc:
                raise ReductionError(f"{exc} at SNR {float(snr)!r} dB, trial {t}, seed {config.seed}") from None
            for s in config.schemes:
                sums[s][i, t] = results[s][1].sumRate
    mean = {s: tuple(float(v) for v in sums[s].mean(axis=1)) for s in config.schemes}
    if config.trials > 1:
        err = {
            s: tuple(float(v) for v in sums[s].std(axis=1, ddof=1) / np.sqrt(config.trials))
            for s in config.schemes
        }
    else:
        err = {s: (0.0,) * len(snrs) for s in config.schemes}
    return SweepResult(
        config=config,
        schemes=config.schemes,
        snrDb=tuple(float(v) for v in snrs),
        meanSumRate=mean,
        stderr=err,
    )


def emit_csv(result: SweepResult, stream) -> None:
    stream.write(CSV_HEADER + "\n")
    for scheme, snr, mean, err, trials, seed in result.rows():
        stream.write(f"{scheme},{snr!r},{mean!r},{err!r},{trials},{seed}\n")


def _channel_from_config(mapping: dict) -> ChannelInstance:
    for key in mapping:
        if key not in ("H", "g", "P", "P_R"):
            raise ConfigError(f"unknown channel config key {key!r}")
    try:
        rows = [[float(x) for x in row.split()] for row in mapping["H"].split(";")]
        g, P, P_R = (np.array([float(x) for x in mapping[key].split()]) for key in ("g", "P", "P_R"))
    except KeyError as exc:
        raise ConfigError(f"channel config missing key {exc}") from None
    except ValueError:
        raise ConfigError("channel entries must be numbers") from None
    if len({len(row) for row in rows}) > 1:
        raise ConfigError("H rows must have equal length")
    try:
        return ChannelInstance(np.array(rows), g, P, P_R)
    except ValueError as exc:
        raise ConfigError(f"bad channel: {exc}") from None


def _write(text: str, path) -> None:
    """text to the file at path, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(args) -> int:
    # a flag that is set replaces the config file's key of the same setting
    mapping = parse_config_file(args.config) if args.config else {}
    flags = {"seed": args.seed, "trials": args.trials, "L": args.L, "schemes": args.schemes, "outputPath": args.out}
    if args.snr is not None:
        if args.snr.count(":") != 2:
            raise ConfigError("--snr must have the form A:B:STEP")
        flags.update(zip(("snrStart", "snrStop", "snrStep"), args.snr.split(":")))
    mapping.update((key, value) for key, value in flags.items() if value is not None)
    config = config_from_mapping(mapping)
    buf = io.StringIO()
    emit_csv(run_sweep(config), buf)
    _write(buf.getvalue(), config.outputPath)
    return EXIT_OK


def _cmd_verify(args) -> int:
    RunConfig(seed=args.seed)  # the sweep's rule for seeds
    report = run_verify(args.scope, seed=args.seed)
    _write(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _cmd_optimize(args) -> int:
    if not args.config:
        raise ConfigError("optimize requires --config with a channel instance")
    mapping = parse_config_file(args.config)
    channel = _channel_from_config(mapping)
    schemes = _split_schemes(args.schemes) if args.schemes is not None else SCHEMES
    opt_cfg = OptimizerConfig()
    results = evaluate_all(channel, opt_cfg, schemes)
    payload = {}
    for scheme, (asg, report) in results.items():
        payload[scheme] = {
            "sumRate": report.sumRate,
            "sourceRates": list(report.sourceRates),
            "forwardingRates": list(report.forwardingRates),
            "limiting": list(report.limiting),
            "powers": list(asg.powers),
            "coefficients": asg.A.tolist(),
        }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_demo_noisy(args) -> int:
    RunConfig(seed=args.seed, trials=args.trials)  # the sweep's rules for seeds and trials
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0)))
    asg = random_assignment(rng, gamma=3, n=2, L=2)
    # integer channel equal to the combination coefficients, so decoding
    # error comes from thermal noise alone
    H = asg.A.astype(float)
    error_rates = []
    for noise_std in (0.001, 0.003, 0.01, 0.03, 0.1):
        failures = 0
        for t in range(args.trials):
            trial_rng = np.random.default_rng(np.random.SeedSequence((args.seed, 1, t)))
            msgs = [
                trial_rng.integers(0, 3, size=asg.message_length(l)) for l in (1, 2)
            ]
            t_pts = [source_encode(msgs[l - 1], l, asg) for l in (1, 2)]
            exact = compress(relay_combination(t_pts, 1, asg), 1, asg)
            try:
                decoded = noisy_compute_demo(t_pts, 1, asg, H, noise_std, trial_rng)
                noisy = compress(decoded, 1, asg)
                if noisy != exact:
                    failures += 1
            except DecodeFailure:
                failures += 1
        error_rates.append(failures / args.trials)
        print(f"noise_std={noise_std!r} error_rate={failures / args.trials!r}")
    print("monotone:", all(a <= b + 1e-12 for a, b in zip(error_rates, error_rates[1:])))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccfrelay",
        description="Compute-compress-and-forward relay simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="Monte Carlo sum-rate sweep over SNR")
    sweep.add_argument("--config", help="flat key = value run config file")
    sweep.add_argument("--seed", type=int, help="base RNG seed")
    sweep.add_argument("--out", help="CSV output path (default stdout)")
    sweep.add_argument("--snr", help="SNR range in dB as A:B:STEP")
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--schemes", help="comma-separated subset of " + ",".join(SCHEMES))
    sweep.add_argument("--L", type=int, help="number of sources and relays")

    verify = sub.add_parser("verify", help="run the property suites")
    verify.add_argument("--seed", type=int, default=0, help="base RNG seed")
    verify.add_argument("--out", help="JSON report path (default stdout)")
    verify.add_argument("--scope", choices=SCOPES, default="all")

    optimize = sub.add_parser("optimize", help="optimize one channel instance from file")
    optimize.add_argument("--config", help="channel file with the keys H, g, P and P_R")
    optimize.add_argument("--out", help="JSON output path (default stdout)")
    optimize.add_argument("--schemes", help="comma-separated subset of " + ",".join(SCHEMES))

    demo = sub.add_parser("demo-noisy", help="noisy relay computation demo")
    demo.add_argument("--seed", type=int, default=0, help="base RNG seed")
    demo.add_argument("--trials", type=int, default=200)
    return parser


_COMMANDS = {
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "optimize": _cmd_optimize,
    "demo-noisy": _cmd_demo_noisy,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ReductionError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
