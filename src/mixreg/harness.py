"""Configuration-driven Monte Carlo experiments: bound coverage, excess-risk
rate slopes, the lower uniform law, the noise-walk threshold, and CLT
consistency of the block noise level.

Trials run with trial-index-derived seeds and are aggregated in trial order,
so outputs are reproducible byte for byte for a fixed config and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .blocking import BlockPartition
from .bounds import (
    BOUND_FORMS,
    BoundReport,
    LowerTailReport,
    REstimate,
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
    gaps = sorted(set(partition.lengths))
    return profile_from_spec(config.process, gaps)


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
# Coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoverageReport:
    n: int
    quantile: float            # empirical (1 - delta) quantile of excess risk
    coverage: float            # fraction of trials with risk <= bound
    bound_report: BoundReport
    trials: int
    degenerate_trials: int

    @property
    def bound_value(self) -> float:
        return self.bound_report.bound_value

    @property
    def burnins_pass(self) -> bool:
        return self.bound_report.all_pass


COVERAGE_FLAGS = ("sample_size", "block_moment", "length_balance", "spectrum_balance", "mixing")
COVERAGE_HEADER = ",".join(["n", "bound", "quantile", "coverage",
                            *(f"{name}_ok" for name in COVERAGE_FLAGS), "degenerate", "trials"])


def run_coverage(config: ExperimentConfig, out_path=None) -> list[CoverageReport]:
    """For each sample size: estimate the noise spectrum, evaluate the bound
    with its burn-ins, run the trials, and report the violation rate.

    A degenerate design in a trial counts as a bound violation.
    """
    if config.trials < 100:
        raise ValueError("coverage experiments need at least 100 trials")
    prob = population_for(config)
    reports = []
    for n, partition in _partitions(config):
        spectrum = _spectrum_for(config, prob, partition, n)
        profile = profile_for(config, partition)
        bound = main_bound(spectrum, config.delta, profile, config.constants)
        risks, (degenerate,) = _run_trials(_trial_risk, config, prob, n)
        coverage = float(np.mean(risks <= bound.bound_value + COVERAGE_ATOL))
        finite = risks[np.isfinite(risks)]
        quantile = float(np.quantile(finite, 1.0 - config.delta)) if finite.size else math.inf
        reports.append(CoverageReport(
            n=n, quantile=quantile, coverage=coverage, bound_report=bound,
            trials=config.trials, degenerate_trials=int(degenerate),
        ))
    if out_path is not None:
        write_csv(out_path, COVERAGE_HEADER, (
            (r.n, r.bound_value, r.quantile, r.coverage,
             *(r.bound_report.check(name).holds for name in COVERAGE_FLAGS),
             r.degenerate_trials, r.trials) for r in reports))
    return reports


# ---------------------------------------------------------------------------
# Rate slope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateSlopeReport:
    slope: float
    ns: tuple[int, ...]
    medians: tuple[float, ...]


def slope_from_medians(ns, medians) -> float:
    """Least-squares slope of log median risk against log n."""
    ns = np.asarray(ns, dtype=float)
    medians = np.asarray(medians, dtype=float)
    if ns.size < 4:
        raise ValueError("need at least 4 sample sizes for a slope")
    if (medians <= 0).any():
        raise ValueError("medians must be positive for a log-log fit")
    return float(np.polyfit(np.log(ns), np.log(medians), 1)[0])


def rate_slope(config: ExperimentConfig, out_path=None) -> RateSlopeReport:
    """Median excess risk against sample size on a log-log scale; the median
    is used because per-trial risks are heavy-tailed under weak moment
    assumptions."""
    if len(config.ns) < 4:
        raise ValueError("need at least 4 sample sizes for a slope")
    prob = population_for(config)
    # A median at this level is rounding noise of a realizable, noiseless
    # problem: COVERAGE_ATOL relative to the signal power tr(M* Sigma_X M*').
    signal = float(np.trace(prob.m_star @ prob.sigma_x @ prob.m_star.T))
    rounding = COVERAGE_ATOL * max(1.0, signal)
    medians = []
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
        medians.append(median)
    slope = slope_from_medians(config.ns, medians)
    if out_path is not None:
        write_csv(out_path, "n,median_excess_risk", zip(config.ns, medians))
    return RateSlopeReport(slope=slope, ns=tuple(config.ns), medians=tuple(medians))


# ---------------------------------------------------------------------------
# Lower uniform law
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LowerTailVerification:
    n: int
    frequency: float           # fraction of trials with min eigenvalue >= 1/2
    certificate: LowerTailReport
    h: float
    trials: int


def _lower_tail_hit(prob: RegressionProblem, traj):
    return (), (min_eig(whitened_empirical_covariance(traj, prob)) >= 0.5,)


def verify_lower_tail(config: ExperimentConfig, out_path=None) -> list[LowerTailVerification]:
    """Empirical frequency of the whitened empirical covariance keeping all
    eigenvalues above one half, against the certificate's prerequisites."""
    prob = population_for(config)
    out = []
    for n, partition in _partitions(config):
        h = config.process.fourth_moment_constant(
            prob.sigma_x, n, derive_seed(config.seed, n, SPECTRUM_STREAM))
        cert = lower_tail_certificate(partition, prob.d_x, h, config.delta,
                                      profile_for(config, partition), config.constants)
        _, (hits,) = _run_trials(_lower_tail_hit, config, prob, n)
        out.append(LowerTailVerification(
            n=n, frequency=hits / config.trials, certificate=cert,
            h=h, trials=config.trials,
        ))
    if out_path is not None:
        write_csv(out_path, "n,frequency,certified,required_n,h,trials", (
            (r.n, r.frequency, r.certificate.certified, r.certificate.required_n, r.h, r.trials)
            for r in out))
    return out


# ---------------------------------------------------------------------------
# Noise walk thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NoiseWalkReport:
    n: int
    threshold: float
    exceedance: float          # empirical frequency of ||S_n|| > threshold
    budget: float              # failure probability charged by the tail bound
    r_estimate: REstimate
    trials: int


def _walk_norm(prob: RegressionProblem, traj):
    return np.linalg.norm(noise_walk(traj, prob).mean(axis=0)), ()


def verify_noise_walk(config: ExperimentConfig, out_path=None) -> list[NoiseWalkReport]:
    """Compare the dependent random-walk threshold (with Monte Carlo weak
    variances and mean-norm ratio from decoupled resamples) against the
    empirical exceedance of the coupled noise walk.  The partitions and the
    Fuk-Nagaev constant (which needs s > 2) are checked before any draw."""
    fuk_nagaev_constant(config.eps, config.eta, config.moment_s)
    prob = population_for(config)
    out = []
    for n, partition in _partitions(config):
        r_est = estimate_r(config.process, prob, partition, config.n_mc,
                           derive_seed(config.seed, n, DECOUPLED_STREAM))
        spectrum = _spectrum_for(config, prob, partition, n)
        threshold = noise_term_threshold(r_est, config.eps, config.eta, config.delta)
        budget = noise_term_failure_budget(r_est, spectrum, profile_for(config, partition),
                                           config.eps, config.eta, config.delta)
        norms, _ = _run_trials(_walk_norm, config, prob, n)
        out.append(NoiseWalkReport(
            n=n, threshold=threshold, exceedance=float(np.mean(norms > threshold)),
            budget=budget, r_estimate=r_est, trials=config.trials,
        ))
    if out_path is not None:
        write_csv(out_path, "n,threshold,exceedance,budget,r,lambda_odd,lambda_even,trials", (
            (r.n, r.threshold, r.exceedance, r.budget, r.r_estimate.r,
             r.r_estimate.lambda_odd, r.r_estimate.lambda_even, r.trials) for r in out))
    return out


# ---------------------------------------------------------------------------
# CLT consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CltReport:
    block_lens: tuple[int, ...]
    sigma2: tuple[float, ...]
    stable_from: int | None    # first sweep length with all later ratios in [0.8, 1.25]


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


def clt_consistency(config: ExperimentConfig, out_path=None) -> CltReport:
    """Sweep block lengths and report where the block noise level settles,
    i.e. where the finite-block covariance has effectively reached its
    limiting value."""
    prob = population_for(config)
    mats = clt_variance(config.process, prob, config.block_lens, config.n_mc,
                        derive_seed(config.seed, SPECTRUM_STREAM))
    sigma2 = tuple(opnorm_psd(mats[l]) for l in config.block_lens)
    report = CltReport(block_lens=tuple(config.block_lens), sigma2=sigma2,
                       stable_from=stabilization_length(config.block_lens, sigma2))
    if out_path is not None:
        write_csv(out_path, "block_len,sigma2", zip(report.block_lens, report.sigma2))
    return report


# ---------------------------------------------------------------------------
# Stand-alone bound evaluation (CLI `bound` subcommand)
# ---------------------------------------------------------------------------

def evaluate_bound(config: ExperimentConfig, out_path=None) -> BoundReport:
    """Evaluate the config's bound form (`BOUND_FORMS`) for its first sample
    size.  The corollary form's equal-blocks rule is checked before the
    spectrum is estimated."""
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
