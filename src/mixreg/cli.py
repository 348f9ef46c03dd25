"""Command-line entry point.

Subcommands: simulate, mixing, and the harness experiments bound, coverage,
lower-tail, noise-walk, clt and slope, which one handler runs from the
`EXPERIMENTS` table.  Each writes one CSV, prints the summary lines of its
result (`harness.summary_lines`), then `wrote <path>`.  Exit codes: 0 on
success, 1 on argument/config errors, 2 on runtime or numerical errors.
A subcommand offers only the flags it reads: `--seed` on all but `mixing`,
`--trials` on the experiments that loop over trials (`TRIAL_COMMANDS`), so an
unread flag is an argument error, as is `--config` with `mixing --markov`.
MIXREG_THREADS sizes the trial pool only: every value writes the same bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from functools import partial

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
    # A subcommand registers --seed and --trials only if it reads them.
    updates = {"seed": getattr(args, "seed", None),
               "trials": getattr(args, "trials", None), "outputs": args.out}
    updates = {key: value for key, value in updates.items() if value is not None}
    return dataclasses.replace(config, **updates) if updates else config


def _outpath(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _cmd_simulate(args) -> int:
    config = _load(args)
    n = args.n if args.n is not None else config.ns[0]
    traj = simulate(config.process, n, config.seed)
    path = _outpath(config.outputs, "trajectory.csv")
    traj.to_csv(path)
    print(f"wrote {path} ({n} samples)")
    return 0


def _cmd_mixing(args) -> int:
    if args.max_gap < 1:
        raise ValueError(f"--max-gap must be >= 1, got {args.max_gap}")
    if args.markov is not None:
        if args.config:
            raise ValueError("--markov replaces the config: give one of --markov, --config")
        key, _, val = args.markov.partition("=")
        if key.strip() != "q":
            raise ValueError("--markov expects q=<flip probability>")
        spec, out_dir = two_state_flip(float(val)), args.out or "."
    else:
        config = _load(args)
        spec, out_dir = config.process, config.outputs
    profile = profile_from_spec(spec, range(1, args.max_gap + 1))
    path = _outpath(out_dir, "mixing.csv")
    profile.to_csv(path)
    for gap in sorted(profile.coefficients):
        print(f"beta({gap}) = {profile.coefficients[gap]:.10g}")
    print(f"wrote {path}")
    return 0


# Subcommand -> (harness entry point, CSV name, help).  The entry is looked
# up on `harness` when the command runs, so a rebound harness function (a
# tracer's, a test's) is the one used.
EXPERIMENTS = {
    "bound": ("evaluate_bound", "bound.csv", "evaluate the excess-risk bound for a config"),
    "coverage": ("run_coverage", "coverage.csv", "Monte Carlo coverage of the bound"),
    "lower-tail": ("verify_lower_tail", "lowertail.csv", "verify the lower uniform law"),
    "noise-walk": ("verify_noise_walk", "noisewalk.csv", "verify the noise-walk threshold"),
    "clt": ("clt_consistency", "clt.csv", "block noise level across block lengths"),
    "slope": ("rate_slope", "slope.csv", "log-log excess-risk rate slope"),
}


def _cmd_experiment(name: str, args) -> int:
    entry, csv_name, _ = EXPERIMENTS[name]
    config = _load(args)
    path = _outpath(config.outputs, csv_name)
    result = getattr(harness, entry)(config, out_path=path)
    print(*harness.summary_lines(result), f"wrote {path}", sep="\n")
    return 0


# The experiments that run a loop over `config.trials`, and so take --trials.
TRIAL_COMMANDS = ("coverage", "lower-tail", "noise-walk", "slope")

COMMANDS = {
    "simulate": (_cmd_simulate, "simulate a trajectory and write it as CSV"),
    "mixing": (_cmd_mixing, "write a mixing-coefficient profile as CSV"),
    **{name: (partial(_cmd_experiment, name), help_text)
       for name, (*_, help_text) in EXPERIMENTS.items()},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixreg",
        description="Finite-sample OLS excess-risk bounds for mixing data: "
                    "simulators, mixing coefficients, bound reports, and "
                    "Monte Carlo verification experiments.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (fn, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config file")
        if name != "mixing":  # a mixing profile draws nothing
            p.add_argument("--seed", type=int, help="override the config seed")
        if name in TRIAL_COMMANDS:
            p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--out", help="override the output directory")
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
        parser.print_usage(sys.stderr)
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
