"""OLS fitting, exact population best linear maps (`ProcessSpec.optimum`;
a Monte Carlo fit is only a test oracle), excess risk, the whitened noise
walk, whose residual W = Y - M* X is the package's only residual, and the
Gaussian quartic forms that give that walk's exact AR cross moments."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import EIG_FLOOR, inv_sqrt_psd, min_eig, sqrt_psd, symmetrize
from .processes import GaussianAR, ProcessSpec, Trajectory, impulse_response


class DegenerateDesignError(ValueError):
    """Raised when the sample Gram matrix is numerically singular."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(f"degenerate design: min eigenvalue {min_eigenvalue:.3e}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """Population description of the regression: averaged covariate covariance
    and the best linear map."""

    sigma_x: np.ndarray
    m_star: np.ndarray

    def __post_init__(self):
        sx = symmetrize(np.atleast_2d(np.asarray(self.sigma_x, dtype=float)))
        ms = np.atleast_2d(np.asarray(self.m_star, dtype=float))
        if sx.shape[0] != sx.shape[1]:
            raise ValueError("sigma_x must be square")
        if ms.shape[1] != sx.shape[0]:
            raise ValueError("m_star columns must match sigma_x dimension")
        if min_eig(sx) <= EIG_FLOOR:
            raise ValueError("sigma_x must be strictly positive definite")
        object.__setattr__(self, "sigma_x", sx)
        object.__setattr__(self, "m_star", ms)

    @cached_property
    def whitener(self) -> np.ndarray:
        """Sigma_X^{-1/2}, computed once per problem (read-only)."""
        return _frozen(inv_sqrt_psd(self.sigma_x))

    @cached_property
    def sqrt_sigma_x(self) -> np.ndarray:
        """Sigma_X^{1/2}, computed once per problem (read-only)."""
        return _frozen(sqrt_psd(self.sigma_x))

    @property
    def d_x(self) -> int:
        return self.sigma_x.shape[0]

    @property
    def d_y(self) -> int:
        return self.m_star.shape[0]


@dataclass(frozen=True, eq=False)
class FitResult:
    """One OLS fit against a known population problem."""

    m_hat: np.ndarray
    emp_cov_whitened: np.ndarray
    s_n: np.ndarray
    excess_risk: float


def _check_gram(gram: np.ndarray) -> None:
    d = gram.shape[0]
    floor = EIG_FLOOR * np.trace(gram) / d
    # A 1 x 1 Gram matrix is its own eigenvalue.
    smallest = float(gram[0, 0]) if d == 1 else min_eig(gram)
    if smallest <= floor:
        raise DegenerateDesignError(smallest)


def fit_ols(traj: Trajectory) -> np.ndarray:
    """Least-squares map (sum Y X') (sum X X')^{-1}: one solve of the normal
    equations, after `_check_gram` has rejected a near-singular Gram matrix."""
    xs, ys = traj.xs, traj.ys
    gram = xs.T @ xs
    _check_gram(gram)
    return np.linalg.solve(gram, (ys.T @ xs).T).T


def excess_risk(m: np.ndarray, prob: RegressionProblem) -> float:
    """Squared Frobenius distance to the best map, weighted by sqrt(Sigma_X)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape != prob.m_star.shape:
        raise ValueError(f"expected shape {prob.m_star.shape}, got {m.shape}")
    diff = (m - prob.m_star) @ prob.sqrt_sigma_x
    return float(np.sum(diff * diff))


def _times(xs: np.ndarray, m: np.ndarray) -> np.ndarray:
    """xs @ m, as a broadcast multiply when the inner dimension is 1, where
    the BLAS call costs more than the multiply itself.  The product's sum
    starts from zero, so a zero term comes out +0.0; adding 0.0 gives the
    multiply the same signed zeros, and the result matches xs @ m bit for
    bit."""
    if m.shape[0] != 1:
        return xs @ m
    out = xs * m
    out += 0.0
    return out


def noise_walk(traj: Trajectory, prob: RegressionProblem) -> np.ndarray:
    """Whitened noise-covariate interactions V_i = W_i X_i' Sigma_X^{-1/2}
    (W_i the residual against the best map), shape (n, d_y, d_x).  Their
    average S_n is `noise_walk(traj, prob).mean(axis=0)`."""
    w = traj.ys - _times(traj.xs, prob.m_star.T)
    xw = _times(traj.xs, prob.whitener)
    if w.shape[1] == 1:
        xw *= w
        return xw[:, None, :]
    return w[:, :, None] * xw[:, None, :]


def whitened_empirical_covariance(traj: Trajectory, prob: RegressionProblem) -> np.ndarray:
    xw = _times(traj.xs, prob.whitener)
    return (xw.T @ xw) / len(traj)


def evaluate_fit(traj: Trajectory, prob: RegressionProblem) -> FitResult:
    m_hat = fit_ols(traj)
    return FitResult(
        m_hat=m_hat,
        emp_cov_whitened=whitened_empirical_covariance(traj, prob),
        s_n=noise_walk(traj, prob).mean(axis=0),
        excess_risk=excess_risk(m_hat, prob),
    )


def error_identity_check(traj: Trajectory, prob: RegressionProblem) -> float:
    """Relative Frobenius residual of the error identity

        (M_hat - M_star) sqrt(Sigma_X) = S_n (whitened empirical cov)^{-1},

    which holds algebraically for any nonsingular design.  Both sides are
    read from `evaluate_fit`.
    """
    fit = evaluate_fit(traj, prob)
    lhs = (fit.m_hat - prob.m_star) @ prob.sqrt_sigma_x
    rhs = fit.s_n @ np.linalg.inv(fit.emp_cov_whitened)
    return float(np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))


# ---------------------------------------------------------------------------
# Population optimum
# ---------------------------------------------------------------------------

def population_optimum(spec: ProcessSpec, horizon: int | None = None) -> RegressionProblem:
    """Best linear predictor of the target from the spec's covariate window,
    and the averaged covariate covariance, from the stationary normal
    equations (Yule-Walker for AR specs, exact enumeration for Markov
    chains).  An AR spec of order p with covariate_dim < p (see `with_window`)
    is misspecified by construction; for AR specs a horizon selects the exact
    uniform mixture over that many sample times of the (possibly
    zero-initialized) trajectory instead of the stationary law."""
    sigma_x, m_star = spec.optimum(horizon)
    return RegressionProblem(sigma_x=sigma_x, m_star=m_star)


# ---------------------------------------------------------------------------
# Gaussian quartic forms
# ---------------------------------------------------------------------------

def gaussian_quartic(a: np.ndarray, b: np.ndarray) -> float:
    """E[g'Ag * g'Bg] for isotropic Gaussian g:
    2 <A, sym(B)> + tr(A) tr(B)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A and B must be square matrices of equal shape")
    sym_b = 0.5 * (b + b.T)
    return float(2.0 * np.sum(a * sym_b) + np.trace(a) * np.trace(b))


def cross_term_expectation(spec: GaussianAR, prob: RegressionProblem, s: int, t: int) -> float:
    """Exact E[V_s . V_t] of the noise walk `noise_walk(simulate(spec, n,
    seed), prob)` at sample indices 0 <= s < t: E[u_s' Sigma_X^{-1} u_t w_s
    w_t] with w = y - m* u the residual against prob.m_star.  Index j is
    process time T = warmup + j.  The state at T of `spec.state_companion`
    (the one `optimum` reads), the covariate u_T (the window of the state at
    T - 1) and w_T are linear images of the innovations eps_0..eps_T, so the
    expectation is one Gaussian quartic form, zero for a realizable fit."""
    if not 0 <= s < t:
        raise ValueError("need 0 <= s < t")
    n_eps = spec.warmup + t + 1
    rev = spec.noise_std * impulse_response(spec.state_companion, n_eps)[:, ::-1]

    def state_map(time: int) -> np.ndarray:
        """Column i <= time is noise_std A^(time - i) e1, the rest zero."""
        m = np.zeros_like(rev)
        m[:, : time + 1] = rev[:, n_eps - 1 - time :]
        return m

    def covariate_and_residual(time: int) -> tuple[np.ndarray, np.ndarray]:
        x = state_map(time - 1)[: spec.covariate_dim]
        return prob.whitener @ x, state_map(time)[0] - prob.m_star[0] @ x

    u_s, r_s = covariate_and_residual(spec.warmup + s)
    u_t, r_t = covariate_and_residual(spec.warmup + t)
    return gaussian_quartic(u_s.T @ u_t, np.outer(r_s, r_t))
