"""Input checks that no other test reaches: each bad input raises its own
error, with its own message, before any work is done."""

import math

import numpy as np
import pytest

from mixreg.blocking import make_partition, uniform_partition
from mixreg.bounds import (
    BoundReport,
    REstimate,
    UniversalConstants,
    blocked_bernstein_threshold,
    lower_tail_certificate,
    max_per_sample_variance,
    noise_spectrum,
    noise_term_threshold,
)
from mixreg.config import ExperimentConfig, load_config
from mixreg.harness import rate_slope, slope_from_medians
from mixreg.linalg import inv_sqrt_psd
from mixreg.mixing import MixingProfile, expected_kl_ar, iid_profile
from mixreg.processes import (
    BlockConstant,
    FiniteMarkov,
    GaussianAR,
    IIDGaussian,
    Trajectory,
    conditional_gaussian,
    impulse_response,
    two_state_flip,
    validate_transition,
)
from mixreg.regression import RegressionProblem, excess_risk, population_optimum

AR = GaussianAR((0.5, 0.2), covariate_dim=2, warmup=0)
IID2 = IIDGaussian(covariate_dim=2)
PROB = RegressionProblem(np.eye(2), np.ones((1, 2)))
R_EST = REstimate(partition=make_partition(4, 1), r=1.0, stderr_sqrt_r=0.0,
                  lambda_odd=1.0, lambda_even=1.0)
FLIP = [[0.7, 0.3], [0.3, 0.7]]

CHECKS = [
    # blocking
    (lambda: make_partition(10, 0), "m must be >= 1"),
    (lambda: uniform_partition(10, 0), "block_len must be >= 1"),
    # bounds
    (lambda: blocked_bernstein_threshold(10, 0, 1.0, 1.0, 0.1), "k must be >= 1"),
    (lambda: noise_spectrum(IID2, population_optimum(IID2), make_partition(8, 2), 1000, 0, s=1.5),
     "s must be >= 2"),
    (lambda: noise_term_threshold(R_EST, 0.1, 0.1, 0.0), r"delta must lie in \(0, 1\]"),
    (lambda: max_per_sample_variance(IID2, population_optimum(IID2), 10, 1000, 0),
     "scalar covariates and targets"),
    # config
    (lambda: ExperimentConfig(process=IID2, trials=0), "trials must be >= 1"),
    # harness
    (lambda: slope_from_medians([10, 20, 40, 80], [1.0, 0.5, 0.0, 0.1]),
     "medians must be positive"),
    (lambda: rate_slope(ExperimentConfig(process=IID2, ns=(10, 20, 40))),
     "at least 4 sample sizes"),
    # linalg
    (lambda: inv_sqrt_psd(np.diag([1.0, 0.0])), "not safely positive definite"),
    (lambda: inv_sqrt_psd([[np.nan]]), r"not safely positive definite \(min eigenvalue nan\)"),
    # mixing
    (lambda: expected_kl_ar(AR, -1, 1), "t must be >= 0"),
    (lambda: expected_kl_ar(AR, None, 0), "k must be >= 1"),
    # processes
    (lambda: impulse_response(AR.state_companion, -1), "k must be >= 0"),
    (lambda: conditional_gaussian(AR.state_companion, np.zeros(3), 0), "k must be >= 1"),
    (lambda: IID2.optimum(horizon=5), "finite-horizon averaging applies to AR specs"),
    (lambda: GaussianAR(()), "ar_coeffs must be non-empty"),
    (lambda: GaussianAR((0.5,), covariate_dim=-1), "covariate_dim must be >= 1"),
    (lambda: GaussianAR((0.5,), warmup=-1), "warmup must be >= 0"),
    # At warmup 0 the one sample's covariates are the zero initial state.
    (lambda: AR.optimum(horizon=1), "covariate covariance is not positive definite"),
    (lambda: FiniteMarkov(FLIP, [[1.0]] * 3, [[1.0], [2.0]]), "emit_x must have one row per state"),
    (lambda: FiniteMarkov(FLIP, [[1.0], [2.0]], [[1.0]]), "emit_y must have one row per state"),
    (lambda: two_state_flip(1.5), r"flip probability must lie in \[0, 1\]"),
    (lambda: validate_transition([[0.5, 0.5]]), "transition must be a square matrix"),
    (lambda: validate_transition([[1.5, -0.5], [0.5, 0.5]]), "entries must be nonnegative"),
    (lambda: BlockConstant(2, covariate_dim=0), "dimensions must be >= 1"),
    (lambda: BlockConstant(2, target_dim=0), "dimensions must be >= 1"),
    (lambda: IIDGaussian(0), "dimensions must be >= 1"),
    (lambda: IIDGaussian(2, target_dim=0), "dimensions must be >= 1"),
    (lambda: Trajectory(xs=np.empty((0, 1)), ys=np.empty((0, 1))),
     "trajectory must contain at least one sample"),
    # regression
    (lambda: RegressionProblem(np.ones((2, 3)), np.ones((1, 3))), "sigma_x must be square"),
    (lambda: RegressionProblem(np.eye(2), np.ones((1, 3))),
     "m_star columns must match sigma_x dimension"),
    (lambda: RegressionProblem(np.diag([1.0, 0.0]), np.ones((1, 2))),
     "sigma_x must be strictly positive definite"),
    (lambda: RegressionProblem([[np.nan]], [[1.0]]), "sigma_x and m_star must be finite"),
    (lambda: RegressionProblem([[np.inf]], [[1.0]]), "sigma_x and m_star must be finite"),
    (lambda: RegressionProblem(np.eye(2), [[np.nan, 1.0]]), "sigma_x and m_star must be finite"),
    (lambda: excess_risk(np.ones((1, 3)), PROB), r"expected shape \(1, 2\), got \(1, 3\)"),
]


@pytest.mark.parametrize("call, message", CHECKS, ids=[m for _, m in CHECKS])
def test_bad_input_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_report_check_of_an_unknown_name_raises():
    report = BoundReport(bound_value=1.0, checks=(), mixing_sum=0.0,
                         constants=UniversalConstants())
    with pytest.raises(KeyError, match="nope"):
        report.check("nope")


def test_lower_tail_report_text():
    report = lower_tail_certificate(make_partition(240, 120), 5, math.sqrt(3.0), 0.1,
                                    iid_profile([1]))
    lines = report.to_text().splitlines()
    assert lines[0] == "lower uniform law certified at the requested confidence"
    assert lines[1:3] == [str(report.sample_check), str(report.mixing_check)]
    assert lines[3] == "required_n 238.155"


def test_config_without_a_process_section_raises(tmp_path):
    path = tmp_path / "bare.cfg"
    path.write_text("[experiment]\nns = 100\n")
    with pytest.raises(ValueError, match=r"config needs a \[process\] section"):
        load_config(path)


def test_mixing_profile_csv_header_and_blank_lines(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("gap,alpha\n1,0.5\n")
    with pytest.raises(ValueError, match="unexpected header 'gap,alpha\\\\n'"):
        MixingProfile.from_csv(path)
    path.write_text("gap,beta\n1,0.5\n\n2,0.25\n  \n")
    assert MixingProfile.from_csv(path).coefficients == {1: 0.5, 2: 0.25}
