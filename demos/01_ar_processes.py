"""Simulating autoregressive processes and working with their companion form.

Walks through: stability checking, simulation, the state-space view,
k-step Gramians, conditional laws, and stationary covariances.
"""

import numpy as np

from mixreg import (
    GaussianAR,
    companion,
    conditional_gaussian,
    default_warmup,
    gramian,
    simulate,
)

# An AR(2) process y_t = 0.5 y_{t-1} + 0.2 y_{t-2} + eps_t, fit later with a
# single lag, which makes the regression misspecified on purpose.
spec = GaussianAR((0.5, 0.2), covariate_dim=1)
print("order:", spec.order, "| covariate window:", spec.covariate_dim)

traj = simulate(spec, 200_000, seed=1)
print("sample variance:", round(traj.ys.var(), 4))

# The companion form stacks (y_t, y_{t-1}, y_{t-2}); its top row carries the
# coefficients and the sub-diagonal shifts the window.
a = companion(spec.ar_coeffs)
print("companion matrix:\n", a)
print("spectral radius:", round(np.abs(np.linalg.eigvals(a)).max(), 4))

# k-step Gramians give the conditional variance of the output k steps ahead.
for k in (1, 2, 5, 20):
    print(f"gramian({k})[0,0] =", round(gramian(a, k)[0, 0], 6))

state = np.array([1.0, 0.3, -0.2])
mean, var = conditional_gaussian(a, state, k=3)
print(f"y three steps ahead of {state}: N({mean:.4f}, {var:.4f})")

# The stationary state covariance S solves the Lyapunov equation
# S = A S A' + sigma^2 e1 e1'.  The spec solves it once, on the (p+1)
# companion, and extends the autocovariances past p by the AR recursion.
# The covariate window's covariance is the leading block of S, the first
# output of `spec.optimum()`; for the one-lag window it is the stationary
# variance.
print("stationary state covariance:\n", spec.state_covariance)
print("stationary covariate covariance:", spec.optimum()[0])

# Warm starts discard a transient so the simulated trajectory is close to
# stationary; the default length comes from the spectral gap.
warm = GaussianAR((0.5, 0.2), covariate_dim=1, warmup=default_warmup((0.5, 0.2)))
print("default warmup steps:", warm.warmup)

try:
    GaussianAR((1.2,))
except ValueError as exc:
    print("unstable coefficients are rejected:", exc)
