"""Command-line interface.

Subcommands: constants, check-stability, data-constants, simulate,
generate-data, bound, experiment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .certify import rnn_constants
from .dynsys import Trajectory, load_model, save_trajectory, simulate
from .errors import NotStableError, StablepacError
from .experiment import (
    ExperimentConfig,
    generate_dataset,
    run_experiment,
    run_seed,
    write_outputs,
)
from .mixing import data_constants, generator_data_constants, saturation_bound
from .numerics import seeded_rng, truncated_gaussian


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a nonnegative integer, got {text!r}"
        )
    return int(text)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value) and value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")


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
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


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
    dc = data_constants(rnn_constants(sys_), args.e_inf)
    doc = dataclasses.asdict(dc)
    cap = saturation_bound(sys_)
    doc["saturation_bound"] = cap
    doc["b_q_effective"] = dataclasses.asdict(
        generator_data_constants(sys_, args.e_inf)
    )["b_q"]
    _print_json(doc)
    return 0


def _cmd_simulate(args) -> int:
    sys_ = load_model(args.model)
    rng = seeded_rng(args.seed)
    inputs = truncated_gaussian(rng, args.e_std, args.e_inf, args.n * sys_.n_v)
    inputs = inputs.reshape(args.n, sys_.n_v)
    _, outputs = simulate(sys_, np.zeros(sys_.n_s), inputs)
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
    data = generate_dataset(args.seed, args.n, cfg.e_std, cfg.e_inf)
    (report,) = run_seed(cfg, args.seed, data)
    _print_json(dataclasses.asdict(report))
    if args.out is not None:
        from .experiment import emit_curves

        emit_curves([report], args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    progress = print if args.verbose else None
    reports = run_experiment(cfg, progress=progress)
    write_outputs(cfg, reports, args.out)
    print(f"wrote reports for {len(reports)} cells to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepac",
        description="Generalisation-gap bounds for stable recurrent predictors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the stability certificate of a model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser(
        "check-stability", help="check the contraction condition (nonzero exit on failure)"
    )
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_check_stability)

    p = sub.add_parser(
        "data-constants", help="print the data-distribution constants of a generator"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--e-inf", type=_positive_float, default=1.27)
    p.set_defaults(func=_cmd_data_constants)

    p = sub.add_parser("simulate", help="drive a model with seeded noise, write a trajectory CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--e-std", type=_positive_float, default=1.0)
    p.add_argument("--e-inf", type=_positive_float, default=1.27)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "generate-data", help="synthesize benchmark data from the built-in generator"
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--e-std", type=_positive_float, default=1.0)
    p.add_argument("--e-inf", type=_positive_float, default=1.27)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_data)

    p = sub.add_parser("bound", help="evaluate the bound for one (seed, n) cell")
    p.add_argument("--config")
    p.add_argument("--seed", type=_seed, default=0)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StablepacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
