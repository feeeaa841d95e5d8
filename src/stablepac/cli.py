"""Command-line interface.

Subcommands: constants, check-stability, data-constants, simulate,
generate-data, bound, experiment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .certify import rnn_constants
from .dynsys import Trajectory, load_model, save_trajectory, simulate
from .errors import (
    INT, NONNEGATIVE, POSITIVE, REAL, ConfigError, InstabilityError, NotStableError,
    StablepacError, check,
)
from .experiment import (
    ExperimentConfig,
    emit_curves,
    generate_dataset,
    run_experiment,
    run_seed,
    write_outputs,
)
from .mixing import data_constants, saturation_bound
from .numerics import seeded_rng, truncated_gaussian


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _checked(name: str, *rules):
    """An argparse type: the text read as an int under the INT rule, else as a
    float, and checked as ``name``; text that does not parse fails that rule.
    The rule's message becomes the usage error."""
    parse = int if INT in rules else float

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = text
        try:
            check(name, value, *rules)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return convert


def _lambda(text: str) -> str | float:
    # Positivity is checked by ExperimentConfig.
    if text == "sqrt_n":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"lambda must be 'sqrt_n' or a positive number, got {text!r}"
        ) from None


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file {path!r} is not JSON: {exc}") from exc
    return ExperimentConfig.from_dict(doc)


def _cmd_constants(args) -> int:
    sys_ = load_model(args.model)
    consts = rnn_constants(sys_)
    _print_json(dataclasses.asdict(consts))
    return 0


def _cmd_check_stability(args) -> int:
    sys_ = load_model(args.model)
    try:
        ok, tau = True, rnn_constants(sys_).tau
    except NotStableError as exc:
        ok, tau = False, exc.value
    _print_json({"ok": ok, "tau": tau})
    return 0 if ok else 1


def _cmd_data_constants(args) -> int:
    sys_ = load_model(args.model)
    doc = dataclasses.asdict(data_constants(rnn_constants(sys_), args.e_inf))
    cap = saturation_bound(sys_)
    doc["saturation_bound"] = cap
    # generator_data_constants' b_q, from the certificate already in hand.
    doc["b_q_effective"] = doc["b_q"] if cap is None else min(doc["b_q"], cap)
    _print_json(doc)
    return 0


def _cmd_simulate(args) -> int:
    sys_ = load_model(args.model)
    rng = seeded_rng(args.seed)
    inputs = truncated_gaussian(rng, args.e_std, args.e_inf, args.n * sys_.n_v)
    inputs = inputs.reshape(args.n, sys_.n_v)
    with np.errstate(over="ignore", invalid="ignore"):
        _, outputs = simulate(sys_, np.zeros(sys_.n_s), inputs)
    if not np.isfinite(outputs).all():
        raise InstabilityError(f"outputs overflow within {args.n} steps: the states diverge")
    traj = Trajectory(inputs=inputs, outputs=outputs)
    save_trajectory(traj, args.out)
    print(f"wrote {args.n} rows to {args.out}")
    return 0


def _cmd_generate_data(args) -> int:
    traj = generate_dataset(args.seed, args.n, args.e_std, args.e_inf)
    save_trajectory(traj, args.out)
    print(f"wrote {args.n} rows to {args.out}")
    return 0


def _cmd_bound(args) -> int:
    cfg = _load_config(args.config)
    overrides = {}
    if args.lambda_ is not None:
        overrides["lambda_rule"] = args.lambda_
    if args.delta is not None:
        overrides["delta"] = args.delta
    cfg = dataclasses.replace(cfg, n_grid=(args.n,), **overrides)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    data = generate_dataset(args.seed, args.n, cfg.e_std, cfg.e_inf)
    (report,) = run_seed(cfg, args.seed, data)
    _print_json(dataclasses.asdict(report))
    if args.out is not None:
        emit_curves([report], args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    progress = print if args.verbose else None
    os.makedirs(args.out, exist_ok=True)
    reports = run_experiment(cfg, progress=progress)
    write_outputs(cfg, reports, args.out)
    print(f"wrote reports for {len(reports)} cells to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepac",
        description="Generalisation-gap bounds for stable recurrent predictors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options of several subcommands, each declared once and taken in as
    # parents; the noise defaults are ExperimentConfig's.
    model, noise, e_inf, out = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    seed = _checked("seed", INT, NONNEGATIVE)
    model.add_argument("--model", required=True)
    noise.add_argument("--seed", type=seed, default=0)
    noise.add_argument("--n", type=_checked("n", INT, POSITIVE), required=True)
    noise.add_argument("--e-std", type=_checked("e_std", REAL, POSITIVE),
                       default=ExperimentConfig.e_std)
    e_inf.add_argument("--e-inf", type=_checked("e_inf", REAL, POSITIVE),
                       default=ExperimentConfig.e_inf)
    out.add_argument("--out", required=True)
    trajectory = [noise, e_inf, out]

    for name, parents, func, help_ in [
        ("constants", [model], _cmd_constants, "print the stability certificate of a model"),
        ("check-stability", [model], _cmd_check_stability,
         "check the contraction condition (nonzero exit on failure)"),
        ("data-constants", [model, e_inf], _cmd_data_constants,
         "print the data-distribution constants of a generator"),
        ("simulate", [model, *trajectory], _cmd_simulate,
         "drive a model with seeded noise, write a trajectory CSV"),
        ("generate-data", trajectory, _cmd_generate_data,
         "synthesize benchmark data from the built-in generator"),
    ]:
        sub.add_parser(name, parents=parents, help=help_).set_defaults(func=func)

    p = sub.add_parser("bound", help="evaluate the bound for one (seed, n) cell")
    p.add_argument("--config")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lambda_", type=_lambda, default=None,
                   help="'sqrt_n' or a fixed positive value")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--out", default=None, help="directory for a one-row report CSV")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("experiment", help="run the full benchmark and write CSV reports")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StablepacError, OSError) as exc:
        # Unreadable inputs are ConfigErrors: an OSError comes from an output.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
