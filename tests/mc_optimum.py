"""Test oracle for `population_optimum`: the OLS fit on one long simulated
trajectory, with a batch-means standard error for each coefficient."""

import numpy as np

from mixreg.processes import ProcessSpec, Trajectory, simulate
from mixreg.regression import DegenerateDesignError, RegressionProblem, fit_ols

MC_BATCHES = 100  # most segments of the batch-means standard error


def monte_carlo_optimum(spec: ProcessSpec, n_mc: int = 10**6,
                        seed: int = 0) -> tuple[RegressionProblem, np.ndarray]:
    """The fitted problem and the standard error of each entry of its m_star."""
    traj = simulate(spec, n_mc, seed)
    # Batch-means standard error: refit on consecutive segments.  Valid for
    # mixing data as long as segments are much longer than the mixing time.
    # A fit on a few times d_X samples is heavy-tailed, so each segment
    # holds at least 10 d_X samples.
    batches = min(MC_BATCHES, n_mc // (10 * traj.xs.shape[1]))
    edges = np.linspace(0, n_mc, batches + 1).astype(int)
    fits = []
    for a, b in zip(edges[:-1], edges[1:]):
        try:
            fits.append(fit_ols(Trajectory(xs=traj.xs[a:b], ys=traj.ys[a:b])))
        except DegenerateDesignError:
            continue
    if len(fits) < 2:
        raise ValueError(f"n_mc = {n_mc} is too small: {len(fits)} of its batch segments "
                         "give a non-degenerate fit, and a standard error needs 2")
    fits = np.asarray(fits)
    stderr = fits.std(axis=0, ddof=1) / np.sqrt(len(fits))
    return RegressionProblem(sigma_x=traj.xs.T @ traj.xs / n_mc, m_star=fit_ols(traj)), stderr
