"""Command-line front end: Monte Carlo sweeps, verification, single-instance
optimization, and a noisy-computation demo.

Reproducibility: each (seed, snr index, trial) triple derives its own
substream through numpy's SeedSequence, so results are identical across
runs and platforms regardless of trial ordering.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DecodeFailure, ReductionError
from .optimizer import SCHEMES, OptimizerConfig, evaluate_all
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
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        if self.L < 1:
            raise ConfigError("L must be >= 1")
        if self.relayPowerRatio < 0:
            raise ConfigError("relayPowerRatio must be >= 0")
        object.__setattr__(self, "schemes", tuple(self.schemes))

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
    """Flat key = value lines; '#' starts a comment; values keep raw text."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_INT_KEYS = {"L", "gammaOpt", "trials", "seed", "nBrute"}
_FLOAT_KEYS = {"snrStart", "snrStop", "snrStep", "relayPowerRatio"}


def config_from_mapping(mapping: dict, base: RunConfig = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    updates = {}
    for key, value in mapping.items():
        if key in _INT_KEYS or key in _FLOAT_KEYS:
            parse = int if key in _INT_KEYS else float
            try:
                updates[key] = parse(value)
            except ValueError:
                raise ConfigError(f"config key {key!r} must be {parse.__name__}, got {value!r}") from None
        elif key == "schemes":
            updates[key] = tuple(s.strip() for s in str(value).split(",") if s.strip())
        elif key == "outputPath":
            updates[key] = str(value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return replace(cfg, **updates)


def _parse_snr_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--snr must have the form A:B:STEP")
    try:
        return float(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise ConfigError("--snr components must be numbers") from None


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
        H = np.array([[float(x) for x in row.split()] for row in mapping["H"].split(";")])
        g = np.array([float(x) for x in mapping["g"].split()])
        P = np.array([float(x) for x in mapping["P"].split()])
        P_R = np.array([float(x) for x in mapping["P_R"].split()])
    except KeyError as exc:
        raise ConfigError(f"channel config missing key {exc}") from None
    except ValueError:
        raise ConfigError("channel entries must be numbers") from None
    try:
        return ChannelInstance(H, g, P, P_R)
    except ValueError as exc:
        raise ConfigError(f"bad channel: {exc}") from None


def _cmd_sweep(args) -> int:
    mapping = parse_config_file(args.config) if args.config else {}
    config = config_from_mapping(mapping)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.L is not None:
        overrides["L"] = args.L
    if args.schemes is not None:
        overrides["schemes"] = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    if args.snr is not None:
        start, stop, step = _parse_snr_range(args.snr)
        overrides.update(snrStart=start, snrStop=stop, snrStep=step)
    if args.out is not None:
        overrides["outputPath"] = args.out
    config = replace(config, **overrides)
    result = run_sweep(config)
    if config.outputPath:
        with open(config.outputPath, "w", encoding="utf-8", newline="\n") as fh:
            emit_csv(result, fh)
    else:
        emit_csv(result, sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    report = run_verify(args.scope, seed=seed)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _cmd_optimize(args) -> int:
    if not args.config:
        raise ConfigError("optimize requires --config with a channel instance")
    mapping = parse_config_file(args.config)
    channel = _channel_from_config(mapping)
    schemes = tuple(s.strip() for s in args.schemes.split(",")) if args.schemes else SCHEMES
    opt_cfg = OptimizerConfig()
    results = evaluate_all(channel, opt_cfg, schemes)
    payload = {}
    for scheme, (asg, report) in results.items():
        payload[scheme] = {
            "sumRate": report.sumRate,
            "sourceRates": list(report.sourceRates),
            "forwardingRates": list(report.forwardingRates),
            "limiting": list(report.limiting),
            "powers": list(asg.powers) if asg is not None else None,
            "coefficients": asg.A.tolist() if asg is not None else None,
        }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_demo_noisy(args) -> int:
    seed = args.seed if args.seed is not None else 0
    trials = args.trials if args.trials is not None else 200
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    asg = random_assignment(rng, gamma=3, n=2, L=2)
    # integer channel equal to the combination coefficients, so decoding
    # error comes from thermal noise alone
    H = asg.A.astype(float)
    rows = []
    for noise_std in (0.001, 0.003, 0.01, 0.03, 0.1):
        failures = 0
        for t in range(trials):
            trial_rng = np.random.default_rng(np.random.SeedSequence((seed, 1, t)))
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
        rows.append((noise_std, failures / trials))
        print(f"noise_std={noise_std!r} error_rate={failures / trials!r}")
    rates_seq = [r for _, r in rows]
    print("monotone:", all(a <= b + 1e-12 for a, b in zip(rates_seq, rates_seq[1:])))
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
    verify.add_argument("--seed", type=int, help="base RNG seed")
    verify.add_argument("--out", help="JSON report path (default stdout)")
    verify.add_argument("--scope", choices=SCOPES, default="all")

    optimize = sub.add_parser("optimize", help="optimize one channel instance from file")
    optimize.add_argument("--config", help="channel file with the keys H, g, P and P_R")
    optimize.add_argument("--out", help="JSON output path (default stdout)")
    optimize.add_argument("--schemes", help="comma-separated subset of " + ",".join(SCHEMES))

    demo = sub.add_parser("demo-noisy", help="noisy relay computation demo")
    demo.add_argument("--seed", type=int, help="base RNG seed")
    demo.add_argument("--trials", type=int)
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
