"""Command-line entry point.

Subcommands: simulate, mixing, bound, coverage, lower-tail, noise-walk, clt,
slope.  Exit codes: 0 on success, 1 on argument/config errors, 2 on
runtime or numerical errors.  MIXREG_THREADS caps trial parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import harness
from .config import ExperimentConfig, load_config
from .mixing import profile_from_spec
from .processes import simulate, two_state_flip
from .regression import DegenerateDesignError


def _load(args) -> ExperimentConfig:
    if not args.config:
        raise ValueError("this subcommand requires --config PATH")
    config = load_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.out is not None:
        updates["outputs"] = args.out
    return dataclasses.replace(config, **updates) if updates else config


def _outpath(config: ExperimentConfig, name: str) -> str:
    os.makedirs(config.outputs, exist_ok=True)
    return os.path.join(config.outputs, name)


def _cmd_simulate(args) -> int:
    config = _load(args)
    n = args.n if args.n is not None else config.ns[0]
    traj = simulate(config.process, n, config.seed)
    path = _outpath(config, "trajectory.csv")
    traj.to_csv(path)
    print(f"wrote {path} ({n} samples)")
    return 0


def _cmd_mixing(args) -> int:
    max_gap = args.max_gap
    if args.markov is not None:
        key, _, val = args.markov.partition("=")
        if key.strip() != "q":
            raise ValueError("--markov expects q=<flip probability>")
        spec, out_dir = two_state_flip(float(val)), args.out or "."
    else:
        config = _load(args)
        spec, out_dir = config.process, config.outputs
    profile = profile_from_spec(spec, range(1, max_gap + 1))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "mixing.csv")
    profile.to_csv(path)
    if args.format == "text":
        for gap in sorted(profile.coefficients):
            print(f"beta({gap}) = {profile.coefficients[gap]:.10g}")
    print(f"wrote {path}")
    return 0


def _cmd_bound(args) -> int:
    config = _load(args)
    report = harness.evaluate_bound(config)
    if args.format == "csv":
        print(report.csv_header())
        print(report.csv_row())
    else:
        print(report.to_text())
    path = _outpath(config, "bound.csv")
    with open(path, "w", newline="") as fh:
        fh.write(report.csv_header() + "\n" + report.csv_row() + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_coverage(args) -> int:
    config = _load(args)
    path = _outpath(config, "coverage.csv")
    reports = harness.run_coverage(config, out_path=path)
    if args.format == "text":
        for r in reports:
            print(f"n={r.n} bound={r.bound_value:.6g} quantile={r.quantile:.6g} "
                  f"coverage={r.coverage:.4f} burnins={'PASS' if r.burnins_pass else 'FAIL'}")
    print(f"wrote {path}")
    return 0


def _cmd_lower_tail(args) -> int:
    config = _load(args)
    path = _outpath(config, "lowertail.csv")
    reports = harness.verify_lower_tail(config, out_path=path)
    if args.format == "text":
        for r in reports:
            print(f"n={r.n} frequency={r.frequency:.4f} "
                  f"certified={r.certificate.certified}")
    print(f"wrote {path}")
    return 0


def _cmd_noise_walk(args) -> int:
    config = _load(args)
    path = _outpath(config, "noisewalk.csv")
    reports = harness.verify_noise_walk(config, out_path=path)
    if args.format == "text":
        for r in reports:
            print(f"n={r.n} threshold={r.threshold:.6g} exceedance={r.exceedance:.4f} "
                  f"budget={r.budget:.6g}")
    print(f"wrote {path}")
    return 0


def _cmd_clt(args) -> int:
    config = _load(args)
    path = _outpath(config, "clt.csv")
    report = harness.clt_consistency(config, out_path=path)
    if args.format == "text":
        for l, v in zip(report.block_lens, report.sigma2):
            print(f"block_len={l} sigma2={v:.6g}")
    print(f"stable_from={report.stable_from}")
    print(f"wrote {path}")
    return 0


def _cmd_slope(args) -> int:
    config = _load(args)
    path = _outpath(config, "slope.csv")
    report = harness.rate_slope(config, out_path=path)
    if args.format == "text":
        for n, med in zip(report.ns, report.medians):
            print(f"n={n} median={med:.6g}")
    print(f"slope={report.slope:.6g}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixreg",
        description="Finite-sample OLS excess-risk bounds for mixing data: "
                    "simulators, mixing coefficients, bound reports, and "
                    "Monte Carlo verification experiments.",
    )
    sub = parser.add_subparsers(dest="command")
    commands = {
        "simulate": (_cmd_simulate, "simulate a trajectory and write it as CSV"),
        "mixing": (_cmd_mixing, "write a mixing-coefficient profile as CSV"),
        "bound": (_cmd_bound, "evaluate the excess-risk bound for a config"),
        "coverage": (_cmd_coverage, "Monte Carlo coverage of the bound"),
        "lower-tail": (_cmd_lower_tail, "verify the lower uniform law"),
        "noise-walk": (_cmd_noise_walk, "verify the noise-walk threshold"),
        "clt": (_cmd_clt, "block noise level across block lengths"),
        "slope": (_cmd_slope, "log-log excess-risk rate slope"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--format", choices=("csv", "text"), default="text")
        if name == "simulate":
            p.add_argument("--n", type=int, help="trajectory length (default: first config n)")
        if name == "mixing":
            p.add_argument("--markov", help="two-state chain shortcut, e.g. q=0.3")
            p.add_argument("--max-gap", type=int, default=10)
        p.set_defaults(func=fn)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "func", None) is None:
        parser.print_usage()
        return 1
    try:
        return args.func(args)
    except (DegenerateDesignError, np.linalg.LinAlgError, FloatingPointError,
            RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
