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
    BoundReport,
    LowerTailReport,
    REstimate,
    corollary_bound,
    estimate_r,
    lower_tail_certificate,
    main_bound,
    noise_spectrum,
    noise_term_failure_budget,
    noise_term_threshold,
    clt_variance,
)
from .config import ExperimentConfig
from .csvfile import write_csv
from .linalg import min_eig, opnorm_psd
from .mixing import MixingProfile, mixing_sum, profile_from_spec
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
COVERAGE_ATOL = 1e-24


def population_for(config: ExperimentConfig) -> RegressionProblem:
    return population_optimum(config.process, window=config.fit_window)


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
    bound_value: float
    quantile: float            # empirical (1 - delta) quantile of excess risk
    coverage: float            # fraction of trials with risk <= bound
    bound_report: BoundReport
    trials: int
    degenerate_trials: int

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
    for n in config.ns:
        partition = config.partition_for(n)
        spectrum = _spectrum_for(config, prob, partition, n)
        profile = profile_for(config, partition)
        bound = main_bound(spectrum, n, config.delta, config.constants, profile)
        risks, (degenerate,) = _run_trials(_trial_risk, config, prob, n)
        coverage = float(np.mean(risks <= bound.bound_value + COVERAGE_ATOL))
        finite = risks[np.isfinite(risks)]
        quantile = float(np.quantile(finite, 1.0 - config.delta)) if finite.size else math.inf
        reports.append(CoverageReport(
            n=n, bound_value=bound.bound_value, quantile=quantile,
            coverage=coverage, bound_report=bound, trials=config.trials,
            degenerate_trials=int(degenerate),
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
    medians = []
    for n in config.ns:
        risks, _ = _run_trials(_trial_risk, config, prob, n)
        finite = risks[np.isfinite(risks)]
        if not finite.size:
            raise RuntimeError(f"every trial at n={n} has a degenerate design")
        medians.append(float(np.median(finite)))
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
    for n in config.ns:
        partition = config.partition_for(n)
        spectrum = _spectrum_for(config, prob, partition, n)
        profile = profile_for(config, partition)
        cert = lower_tail_certificate(n, partition, prob.d_x, spectrum.h,
                                      config.delta, profile,
                                      config.constants.c_lower)
        _, (hits,) = _run_trials(_lower_tail_hit, config, prob, n)
        out.append(LowerTailVerification(
            n=n, frequency=hits / config.trials, certificate=cert,
            h=spectrum.h, trials=config.trials,
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
    return np.linalg.norm(noise_walk(traj, prob)[1]), ()


def verify_noise_walk(config: ExperimentConfig, out_path=None) -> list[NoiseWalkReport]:
    """Compare the dependent random-walk threshold (with Monte Carlo weak
    variances and mean-norm ratio from decoupled resamples) against the
    empirical exceedance of the coupled noise walk."""
    prob = population_for(config)
    out = []
    for n in config.ns:
        partition = config.partition_for(n)
        r_est = estimate_r(config.process, prob, partition, config.n_mc,
                           derive_seed(config.seed, n, DECOUPLED_STREAM))
        spectrum = _spectrum_for(config, prob, partition, n)
        size_o, size_e = len(partition.odd_union), len(partition.even_union)
        threshold = noise_term_threshold(r_est.lambda_odd, r_est.lambda_even,
                                         size_o, size_e, r_est.r,
                                         config.eps, config.eta, config.delta)
        profile = profile_for(config, partition)
        interior = mixing_sum(profile, partition)
        moments = spectrum.block_snorm_moments
        budget = noise_term_failure_budget(
            moments[0::2], moments[1::2],
            r_est.lambda_odd, r_est.lambda_even, size_o, size_e,
            max(r_est.r, 1e-12), config.eps, config.eta, config.moment_s,
            config.delta, interior)
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
    if not config.block_lens:
        raise ValueError("config needs a block length sweep")
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
    """Evaluate the main or stationary-corollary bound for the first sample
    size in the config."""
    n = config.ns[0]
    prob = population_for(config)
    partition = config.partition_for(n)
    spectrum = _spectrum_for(config, prob, partition, n)
    profile = profile_for(config, partition)
    if config.bound_form == "corollary":
        tau = config.tau if config.tau is not None else partition.a_max
        # E||(tau d_x)^{-1/2} sum over a block||^s, averaged over blocks.
        block_moment = float(np.mean(spectrum.block_snorm_moments)) \
            / (tau * prob.d_x) ** (config.moment_s / 2.0)
        prof = profile_from_spec(config.process, [tau])
        report = corollary_bound(tau, n, prob.d_x, spectrum.sigma2, spectrum.h,
                                 config.moment_s, block_moment, prof,
                                 config.delta, config.constants)
    else:
        report = main_bound(spectrum, n, config.delta, config.constants, profile)
    if out_path is not None:
        write_csv(out_path, report.csv_header(), [report.csv_row()])
    return report
