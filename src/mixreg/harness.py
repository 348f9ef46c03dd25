"""Configuration-driven Monte Carlo experiments: bound coverage, excess-risk
rate slopes, the lower uniform law, the noise-walk threshold, and CLT
consistency of the block noise level.  Each returns a list of frozen row
dataclasses whose fields, in order, are its CSV columns (`write_rows`).

Trials run with trial-index-derived seeds and are aggregated in trial order,
so outputs are reproducible byte for byte for a fixed config and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .blocking import BlockPartition
from .bounds import (
    BOUND_FORMS,
    BoundReport,
    estimate_r,
    fuk_nagaev_constant,
    lower_tail_certificate,
    main_bound,
    noise_spectrum,
    noise_term_failure_budget,
    noise_term_threshold,
    clt_variance,
    corollary_block_length,
)
from .config import ExperimentConfig
from .csvfile import write_csv
from .linalg import min_eig, opnorm_psd
from .mixing import MixingProfile, profile_from_spec
from .parallel import draw_process, map_trials
from .processes import derive_seed
from .regression import (
    DegenerateDesignError,
    RegressionProblem,
    fit_ols,
    excess_risk,
    noise_walk,
    population_optimum,
    whitened_empirical_covariance,
)

SPECTRUM_STREAM = 101
TRIAL_STREAM = 202
DECOUPLED_STREAM = 303

# Absolute slack for the bound comparison: covers the noiseless case where
# both sides are zero up to rounding; far below any attainable risk scale.
# `rate_slope` scales it by the signal power to tell a zero median risk.
COVERAGE_ATOL = 1e-24


def population_for(config: ExperimentConfig) -> RegressionProblem:
    return population_optimum(config.process)


def profile_for(config: ExperimentConfig, partition: BlockPartition) -> MixingProfile:
    return profile_from_spec(config.process, sorted(set(partition.lengths)))


def _trial_risk(prob: RegressionProblem, traj):
    """One trial's excess risk (inf for a degenerate design) and a
    degenerate count."""
    try:
        return excess_risk(fit_ols(traj), prob), (0,)
    except DegenerateDesignError:
        return np.inf, (1,)


def _partitions(config: ExperimentConfig) -> list[tuple[int, BlockPartition]]:
    """(n, partition) for every sample size, all resolved before the caller's
    first draw, so a partition rule that fails at a later n fails at once."""
    return [(n, config.partition_for(n)) for n in config.ns]


def _run_trials(statistic, config: ExperimentConfig, prob: RegressionProblem, n: int):
    """statistic(prob, traj) over the config's trials at sample size n:
    values in trial order and summed totals, as from `map_trials`."""
    return map_trials(partial(statistic, prob), partial(draw_process, config.process, n),
                      config.trials, derive_seed(config.seed, n, TRIAL_STREAM))


def _spectrum_for(config: ExperimentConfig, prob: RegressionProblem,
                  partition: BlockPartition, n: int):
    return noise_spectrum(config.process, prob, partition, config.n_mc,
                          derive_seed(config.seed, n, SPECTRUM_STREAM), s=config.moment_s)


# ---------------------------------------------------------------------------
# Rows: each experiment's CSV columns and summary lines
# ---------------------------------------------------------------------------

def write_rows(path, rows) -> None:
    """The header from the row class's field names, then one line per row."""
    names = [f.name for f in fields(rows[0])]
    write_csv(path, ",".join(names), ([getattr(row, name) for name in names] for row in rows))


def _written(rows: list, out_path) -> list:
    """The rows, written to out_path first when one is given."""
    if out_path is not None:
        write_rows(out_path, rows)
    return rows


def summary_lines(result) -> list[str]:
    """The CLI's lines: a bound report's text, or each row's `summary()` and
    then its class's `closing(rows)` lines, if it has them."""
    if isinstance(result, BoundReport):
        return [result.to_text()]
    closing = getattr(type(result[0]), "closing", lambda rows: [])
    return [*(row.summary() for row in result), *closing(result)]


@dataclass(frozen=True)
class CoverageRow:
    n: int
    bound: float
    quantile: float            # empirical (1 - delta) quantile of excess risk
    coverage: float            # fraction of trials with risk <= bound
    sample_size_ok: bool       # the main bound's burn-ins, one flag per check
    block_moment_ok: bool
    length_balance_ok: bool
    spectrum_balance_ok: bool
    mixing_ok: bool
    degenerate: int            # trials with a degenerate design
    trials: int

    def summary(self) -> str:
        burnins = all(getattr(self, f.name) for f in fields(self) if f.name.endswith("_ok"))
        return (f"n={self.n} bound={self.bound:.6g} quantile={self.quantile:.6g} "
                f"coverage={self.coverage:.4f} burnins={'PASS' if burnins else 'FAIL'}")


@dataclass(frozen=True)
class SlopeRow:
    n: int
    median_excess_risk: float

    def summary(self) -> str:
        return f"n={self.n} median={self.median_excess_risk:.6g}"

    @staticmethod
    def closing(rows) -> list[str]:
        slope = slope_from_medians([r.n for r in rows], [r.median_excess_risk for r in rows])
        return [f"slope={slope:.6g}"]


@dataclass(frozen=True)
class LowerTailRow:
    n: int
    frequency: float           # fraction of trials with min eigenvalue >= 1/2
    certified: bool            # the certificate's prerequisites hold
    required_n: float
    h: float
    trials: int

    def summary(self) -> str:
        return f"n={self.n} frequency={self.frequency:.4f} certified={self.certified}"


@dataclass(frozen=True)
class NoiseWalkRow:
    n: int
    threshold: float
    exceedance: float          # empirical frequency of ||S_n|| > threshold
    budget: float              # failure probability charged by the tail bound
    r: float                   # the mean-norm ratio estimate and its parts
    lambda_odd: float
    lambda_even: float
    trials: int

    def summary(self) -> str:
        return (f"n={self.n} threshold={self.threshold:.6g} "
                f"exceedance={self.exceedance:.4f} budget={self.budget:.6g}")


@dataclass(frozen=True)
class CltRow:
    block_len: int
    sigma2: float

    def summary(self) -> str:
        return f"block_len={self.block_len} sigma2={self.sigma2:.6g}"

    @staticmethod
    def closing(rows) -> list[str]:
        stable = stabilization_length([r.block_len for r in rows], [r.sigma2 for r in rows])
        return [f"stable_from={stable}"]


def slope_from_medians(ns, medians) -> float:
    """Least-squares slope of log median risk against log n."""
    ns = np.asarray(ns, dtype=float)
    medians = np.asarray(medians, dtype=float)
    if ns.size < 4:
        raise ValueError("need at least 4 sample sizes for a slope")
    if (medians <= 0).any():
        raise ValueError("medians must be positive for a log-log fit")
    return float(np.polyfit(np.log(ns), np.log(medians), 1)[0])


def stabilization_length(block_lens, sigma2) -> int | None:
    """First sweep length from which every ratio of consecutive levels lies
    in [0.8, 1.25].  Zero after zero counts as ratio 1 (a noiseless sweep is
    stable); non-zero after zero counts as unstable."""
    ratios = [b / a if a else (1.0 if b == 0 else math.inf)
              for a, b in zip(sigma2[:-1], sigma2[1:])]
    for idx in range(len(block_lens) - 1):
        if all(0.8 <= r <= 1.25 for r in ratios[idx:]):
            return int(block_lens[idx])
    return None


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_coverage(config: ExperimentConfig, out_path=None) -> list[CoverageRow]:
    """For each sample size: estimate the noise spectrum, evaluate the bound
    with its burn-ins, run the trials, and report the violation rate.

    A degenerate design in a trial counts as a bound violation.
    """
    if config.trials < 100:
        raise ValueError("coverage experiments need at least 100 trials")
    prob = population_for(config)
    rows = []
    for n, partition in _partitions(config):
        spectrum = _spectrum_for(config, prob, partition, n)
        profile = profile_for(config, partition)
        bound = main_bound(spectrum, config.delta, profile, config.constants)
        risks, (degenerate,) = _run_trials(_trial_risk, config, prob, n)
        coverage = float(np.mean(risks <= bound.bound_value + COVERAGE_ATOL))
        finite = risks[np.isfinite(risks)]
        quantile = float(np.quantile(finite, 1.0 - config.delta)) if finite.size else math.inf
        rows.append(CoverageRow(
            n=n, bound=bound.bound_value, quantile=quantile, coverage=coverage,
            **{f"{check.name}_ok": check.holds for check in bound.checks},
            degenerate=int(degenerate), trials=config.trials,
        ))
    return _written(rows, out_path)


def rate_slope(config: ExperimentConfig, out_path=None) -> list[SlopeRow]:
    """Median excess risk against sample size, whose log-log slope
    `SlopeRow.closing` reports; the median is used because per-trial risks
    are heavy-tailed under weak moment assumptions."""
    if len(config.ns) < 4:
        raise ValueError("need at least 4 sample sizes for a slope")
    prob = population_for(config)
    # A median at this level is rounding noise of a realizable, noiseless
    # problem: COVERAGE_ATOL relative to the signal power tr(M* Sigma_X M*').
    signal = float(np.trace(prob.m_star @ prob.sigma_x @ prob.m_star.T))
    rounding = COVERAGE_ATOL * max(1.0, signal)
    rows = []
    for n in config.ns:
        risks, _ = _run_trials(_trial_risk, config, prob, n)
        finite = risks[np.isfinite(risks)]
        if not finite.size:
            raise RuntimeError(f"every trial at n={n} has a degenerate design")
        median = float(np.median(finite))
        if median <= rounding:
            raise RuntimeError(f"median excess risk at n={n} is {median:g}, at or below "
                               f"rounding level {rounding:g}; a log-log slope needs "
                               "positive medians")
        rows.append(SlopeRow(n=n, median_excess_risk=median))
    return _written(rows, out_path)


def _lower_tail_hit(prob: RegressionProblem, traj):
    return (), (min_eig(whitened_empirical_covariance(traj, prob)) >= 0.5,)


def verify_lower_tail(config: ExperimentConfig, out_path=None) -> list[LowerTailRow]:
    """Empirical frequency of the whitened empirical covariance keeping all
    eigenvalues above one half, against the certificate's prerequisites."""
    prob = population_for(config)
    rows = []
    for n, partition in _partitions(config):
        h = config.process.fourth_moment_constant(
            prob.sigma_x, n, derive_seed(config.seed, n, SPECTRUM_STREAM))
        cert = lower_tail_certificate(partition, prob.d_x, h, config.delta,
                                      profile_for(config, partition), config.constants)
        _, (hits,) = _run_trials(_lower_tail_hit, config, prob, n)
        rows.append(LowerTailRow(
            n=n, frequency=hits / config.trials, certified=cert.certified,
            required_n=cert.required_n, h=h, trials=config.trials,
        ))
    return _written(rows, out_path)


def _walk_norm(prob: RegressionProblem, traj):
    return np.linalg.norm(noise_walk(traj, prob).mean(axis=0)), ()


def verify_noise_walk(config: ExperimentConfig, out_path=None) -> list[NoiseWalkRow]:
    """Compare the dependent random-walk threshold (with Monte Carlo weak
    variances and mean-norm ratio from decoupled resamples) against the
    empirical exceedance of the coupled noise walk.  The partitions and the
    Fuk-Nagaev constant (which needs s > 2) are checked before any draw."""
    fuk_nagaev_constant(config.eps, config.eta, config.moment_s)
    prob = population_for(config)
    rows = []
    for n, partition in _partitions(config):
        r_est = estimate_r(config.process, prob, partition, config.n_mc,
                           derive_seed(config.seed, n, DECOUPLED_STREAM))
        spectrum = _spectrum_for(config, prob, partition, n)
        threshold = noise_term_threshold(r_est, config.eps, config.eta, config.delta)
        budget = noise_term_failure_budget(r_est, spectrum, profile_for(config, partition),
                                           config.eps, config.eta, config.delta)
        norms, _ = _run_trials(_walk_norm, config, prob, n)
        rows.append(NoiseWalkRow(
            n=n, threshold=threshold, exceedance=float(np.mean(norms > threshold)),
            budget=budget, r=r_est.r, lambda_odd=r_est.lambda_odd,
            lambda_even=r_est.lambda_even, trials=config.trials,
        ))
    return _written(rows, out_path)


def clt_consistency(config: ExperimentConfig, out_path=None) -> list[CltRow]:
    """Sweep block lengths for the block noise level; `CltRow.closing`
    reports where it settles, i.e. where the finite-block covariance has
    effectively reached its limiting value."""
    prob = population_for(config)
    mats = clt_variance(config.process, prob, config.block_lens, config.n_mc,
                        derive_seed(config.seed, SPECTRUM_STREAM))
    rows = [CltRow(block_len=l, sigma2=opnorm_psd(mats[l])) for l in config.block_lens]
    return _written(rows, out_path)


def evaluate_bound(config: ExperimentConfig, out_path=None) -> BoundReport:
    """The CLI's `bound` subcommand: evaluate the config's bound form
    (`BOUND_FORMS`) for its first sample size.  The corollary form's
    equal-blocks rule is checked before the spectrum is estimated."""
    n = config.ns[0]
    partition = config.partition_for(n)
    if config.bound_form == "corollary":
        corollary_block_length(partition)
    spectrum = _spectrum_for(config, population_for(config), partition, n)
    report = BOUND_FORMS[config.bound_form](spectrum, config.delta,
                                            profile_for(config, partition), config.constants)
    if out_path is not None:
        write_csv(out_path, report.csv_header(), [report.csv_row()])
    return report
