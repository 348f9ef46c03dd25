"""OLS on dependent data: the population optimum, excess risk, the error
identity, the whitened noise walk, and its exact cross moments."""

import numpy as np

from mixreg import (
    GaussianAR,
    cross_term_expectation,
    error_identity_check,
    evaluate_fit,
    fit_ols,
    gaussian_quartic,
    population_optimum,
    simulate,
)

# Fit an AR(1) regressor to an AR(2) process: the best single-lag predictor
# has coefficient a1 / (1 - a2) = 0.625, not the first AR coefficient.
# The spec's covariate_dim is the regression window.
spec = GaussianAR((0.5, 0.2), covariate_dim=1, warmup=100)
prob = population_optimum(spec)
print("best one-lag coefficient:", prob.m_star[0, 0])
print("covariate covariance:", prob.sigma_x[0, 0])

traj = simulate(spec, 50_000, seed=3)
m_hat = fit_ols(traj)
print("OLS estimate:", round(m_hat[0, 0], 5))

fit = evaluate_fit(traj, prob)
print("excess risk:", f"{fit.excess_risk:.3e}")
print("whitened empirical covariance:", round(fit.emp_cov_whitened[0, 0], 4))
print("noise walk norm:", f"{np.linalg.norm(fit.s_n):.3e}")

# The error identity ties the three together algebraically:
# (M_hat - M_star) sqrt(Sigma_X) equals S_n times the inverse whitened
# empirical covariance, for any nonsingular design.
print("identity residual:", f"{error_identity_check(traj, prob):.2e}")

# Quartic forms of isotropic Gaussians have a closed second moment.  The
# noise walk V_j = w_j x_j' Sigma_X^{-1/2}, with w the residual against
# prob.m_star, is a Gaussian quadratic form in the innovations, so its cross
# moments E[V_s . V_t] at sample indices s < t (warmup included) are one
# quartic form each: exact, and nonzero only because the one-lag fit is
# misspecified.
a = np.array([[1.0, 0.2], [0.0, 0.5]])
b = np.array([[0.3, 0.0], [0.4, 1.0]])
print("E[g'Ag g'Bg] =", gaussian_quartic(a, b))

for s, t in ((3, 5), (5, 9), (5, 15)):
    val = cross_term_expectation(spec, prob, s, t)
    print(f"noise walk E[V_{s} . V_{t}]:", f"{val:.5f}")
