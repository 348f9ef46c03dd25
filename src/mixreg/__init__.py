"""mixreg: finite-sample OLS excess-risk theory for beta-mixing data.

Process simulators, exact and bounded mixing coefficients, the blocking
device, OLS/excess-risk machinery, every bound evaluator, and a Monte Carlo
verification harness.
"""

from .blocking import (
    BlockPartition,
    block_sums,
    decoupled_resample,
    make_partition,
    uniform_partition,
)
from .bounds import (
    BoundReport,
    BurninCheck,
    LowerTailReport,
    NoiseSpectrum,
    REstimate,
    UniversalConstants,
    bernstein_threshold,
    blocked_bernstein_threshold,
    clt_variance,
    corollary_bound,
    cs_comparison,
    edim,
    estimate_r,
    fuk_nagaev_constant,
    fuk_nagaev_tail,
    lower_tail_certificate,
    main_bound,
    max_per_sample_variance,
    noise_spectrum,
    noise_term_failure_budget,
    noise_term_threshold,
    phi_tau,
    truncation_mass_check,
)
from .config import ExperimentConfig, load_config, save_config
from .harness import (
    clt_consistency,
    evaluate_bound,
    rate_slope,
    run_coverage,
    slope_from_medians,
    stabilization_length,
    verify_lower_tail,
    verify_noise_walk,
)
from .mixing import (
    MixingProfile,
    beta_ar_kl_bound,
    beta_markov_exact,
    expected_kl_ar,
    gaussian_ar_profile,
    iid_profile,
    kl_gaussian_1d,
    markov_profile,
    mixing_sum,
    profile_from_spec,
)
from .processes import (
    BlockConstant,
    FiniteMarkov,
    GaussianAR,
    IIDGaussian,
    ProcessSpec,
    Trajectory,
    autocovariances,
    companion,
    conditional_gaussian,
    default_warmup,
    derive_seed,
    gramian,
    simulate,
    solve_lyapunov,
    stationary_distribution,
    two_state_flip,
)
from .regression import (
    DegenerateDesignError,
    FitResult,
    RegressionProblem,
    cross_term_expectation,
    error_identity_check,
    evaluate_fit,
    excess_risk,
    fit_ols,
    gaussian_quartic,
    noise_walk,
    population_optimum,
    whitened_empirical_covariance,
)
from .seeding import derive_seeds, pcg64_state, pcg64_states, pcg64_words

__version__ = "0.1.0"
