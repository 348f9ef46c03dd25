"""Data-generating processes: Gaussian AR, finite Markov chains, block-constant
worst cases, and iid Gaussian designs.

Every simulator is a pure function of (spec, n, seed): rerunning with the same
arguments reproduces the trajectory bit for bit.  Seeds are split with
numpy's SeedSequence, so derived streams (per block, per trial) never collide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_discrete_lyapunov, toeplitz
from scipy.signal import lfilter

from .csvfile import write_csv
from .linalg import EIG_FLOOR, min_eig, symmetrize

ROW_SUM_TOL = 1e-12


def derive_seed(seed: int, *keys: int) -> int:
    """Deterministic child seed for (seed, keys); used for per-block and
    per-trial streams."""
    return int(np.random.SeedSequence([int(seed), *[int(k) for k in keys]]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Companion-form state space
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StateSpace:
    """Companion realization of an AR(p) recursion on the stacked state
    (current value, previous p values).

    transition has first row (coeffs, 0) and an identity on the sub-diagonal
    block; input is the first standard basis vector, output its transpose.
    """

    transition: np.ndarray
    input_vec: np.ndarray
    output_vec: np.ndarray

    @property
    def dim(self) -> int:
        return self.transition.shape[0]


def companion(coeffs) -> StateSpace:
    """Build the (p+1)-dimensional companion state space for AR coefficients."""
    theta = np.atleast_1d(np.asarray(coeffs, dtype=float))
    p = theta.size
    if p < 1:
        raise ValueError("need at least one AR coefficient")
    a = np.zeros((p + 1, p + 1))
    a[0, :p] = theta
    a[1:, :p] = np.eye(p)
    b = np.zeros(p + 1)
    b[0] = 1.0
    return StateSpace(transition=a, input_vec=b, output_vec=b.copy())


def spectral_radius(coeffs) -> float:
    return float(np.abs(np.linalg.eigvals(companion(coeffs).transition)).max())


def gramian(ss: StateSpace, k: int) -> np.ndarray:
    """k-step controllability Gramian sum_{j<k} A^j b b' (A^j)'.

    k = 0 returns the zero matrix.  Unit innovation variance; scale by the
    noise variance for a non-unit process.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    g = np.zeros((ss.dim, ss.dim))
    col = ss.input_vec.copy()
    for _ in range(k):
        g += np.outer(col, col)
        col = ss.transition @ col
    return g


def conditional_gaussian(ss: StateSpace, state, k: int) -> tuple[float, float]:
    """Mean and variance of the output k steps ahead given the current state
    (unit innovation variance)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(state, dtype=float)
    if x.shape != (ss.dim,):
        raise ValueError(f"state must have dimension {ss.dim}, got {x.shape}")
    ak_x = np.linalg.matrix_power(ss.transition, k) @ x
    var = gramian(ss, k)[0, 0]
    return float(ak_x[0]), float(var)


# ---------------------------------------------------------------------------
# Process specs
# ---------------------------------------------------------------------------

class ProcessSpec:
    """Base of the process kinds.  A kind is one frozen dataclass that sets
    its config name `kind` and implements `_draw(rng, n)` (the covariate and
    target arrays), `_stationary_optimum()` and `mixing_profile(gaps)`; only
    Gaussian AR specs override `with_window` and the finite horizon of
    `optimum`.  `mixing_profile` imports from mixing.py when called, since
    that module imports this one."""

    def simulate(self, n: int, seed: int) -> "Trajectory":
        if n < 1:
            raise ValueError("n must be >= 1")
        xs, ys = self._draw(np.random.default_rng(seed), n)
        return Trajectory(xs=xs, ys=ys, seed=seed, spec=self)

    def with_window(self, window: int) -> "ProcessSpec":
        """The same process regressed on a covariate window of this size."""
        if window != self.covariate_dim:
            raise ValueError("window is only adjustable for AR specs")
        return self

    def optimum(self, horizon: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(sigma_x, m_star): the averaged covariate covariance and the best
        linear map from covariates to targets under the stationary law."""
        if horizon is not None:
            raise ValueError("finite-horizon averaging applies to AR specs")
        return self._stationary_optimum()


@dataclass(frozen=True, eq=False)
class GaussianAR(ProcessSpec):
    """Scalar AR(p) with iid Gaussian innovations and zero initial condition.

    The regression view exposes the last `covariate_dim` lags as covariates,
    so covariate_dim < p is a deliberately misspecified fit.  `warmup` steps
    are simulated and discarded to approximate stationarity (0 keeps the raw
    zero-initialized process).
    """

    kind = "gaussian_ar"

    ar_coeffs: tuple[float, ...]
    noise_std: float = 1.0
    covariate_dim: int = 0  # 0 means "use the full order p"
    warmup: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ar_coeffs", tuple(float(c) for c in np.atleast_1d(self.ar_coeffs)))
        if len(self.ar_coeffs) < 1:
            raise ValueError("ar_coeffs must be non-empty")
        if self.noise_std <= 0:
            raise ValueError("noise_std must be positive")
        if self.covariate_dim == 0:
            object.__setattr__(self, "covariate_dim", len(self.ar_coeffs))
        if self.covariate_dim < 1:
            raise ValueError("covariate_dim must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        rho = spectral_radius(self.ar_coeffs)
        if rho >= 1.0:
            raise ValueError(f"AR coefficients are not Schur stable (spectral radius {rho:.4f})")

    @property
    def order(self) -> int:
        return len(self.ar_coeffs)

    @property
    def target_dim(self) -> int:
        return 1

    def _draw(self, rng, n):
        """Run the AR recursion from zero initial values, discarding warmup
        steps; the covariate at time t is the window of the previous
        covariate_dim values of the series."""
        eps = self.noise_std * rng.standard_normal(self.warmup + n)
        # y_t = sum_k theta_k y_{t-k} + eps_t with zero initial conditions.
        y = lfilter([1.0], np.r_[1.0, -np.asarray(self.ar_coeffs)], eps)
        return _lagged_design(y, self.covariate_dim)[self.warmup:], y[self.warmup:, None]

    def with_window(self, window: int) -> "GaussianAR":
        return self if window == self.covariate_dim else replace(self, covariate_dim=window)

    def _stationary_optimum(self):
        # Yule-Walker on the stationary autocovariances.
        m = self.covariate_dim
        gamma = autocovariances(self, m)
        sigma_x = toeplitz(gamma[:m])
        if min_eig(sigma_x) <= EIG_FLOOR:
            raise ValueError("autocovariance matrix is not positive definite")
        return sigma_x, np.linalg.solve(sigma_x, gamma[1:])[None, :]

    def optimum(self, horizon: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """With a horizon: the exact uniform mixture over that many sample
        times of the (possibly zero-initialized) trajectory instead of the
        stationary law."""
        if horizon is None:
            return self._stationary_optimum()
        return self._zero_init_mixture_optimum(horizon)

    def _zero_init_mixture_optimum(self, horizon: int):
        """Best linear map for the uniform mixture of the sample times of a
        zero-initialized trajectory, via the exact state-covariance recursion.

        The covariate at time t is the leading window of the state one step
        back, so the mixture moments follow from Cov(x_j) and Cov(x_{j+1}, x_j)
        = A Cov(x_j)."""
        window = self.covariate_dim
        ss = companion(self.ar_coeffs)
        a, b = ss.transition, ss.input_vec
        q = self.noise_std**2 * np.outer(b, b)
        state_cov = np.zeros_like(q)
        sum_cov = np.zeros_like(q)
        sum_cross = np.zeros_like(q)
        # state indices warmup .. warmup + horizon - 1 feed samples 1 .. horizon
        for j in range(self.warmup + horizon):
            prev = state_cov
            state_cov = a @ state_cov @ a.T + q
            if j >= self.warmup:
                sum_cov += prev
                sum_cross += a @ prev
        sel = np.zeros((window, a.shape[0]))
        sel[:, :window] = np.eye(window)
        sigma_x = sel @ (sum_cov / horizon) @ sel.T
        if min_eig(sigma_x) <= EIG_FLOOR:
            raise ValueError("mixture covariance is not positive definite")
        cross = (sum_cross / horizon)[0] @ sel.T
        alpha = np.linalg.solve(symmetrize(sigma_x), cross)
        return sigma_x, alpha[None, :]

    def mixing_profile(self, gaps):
        from .mixing import gaussian_ar_profile
        return gaussian_ar_profile(self, gaps)


def default_warmup(coeffs) -> int:
    """Discard count approximating stationarity: 10 p / (1 - spectral radius)."""
    p = len(np.atleast_1d(coeffs))
    rho = spectral_radius(coeffs)
    return int(math.ceil(10.0 * p / (1.0 - rho)))


@dataclass(frozen=True, eq=False)
class FiniteMarkov(ProcessSpec):
    """Stationary finite-state Markov chain with per-state emissions."""

    kind = "finite_markov"

    transition: np.ndarray
    emit_x: np.ndarray
    emit_y: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "emit_x", np.atleast_2d(np.asarray(self.emit_x, dtype=float)))
        object.__setattr__(self, "emit_y", np.atleast_2d(np.asarray(self.emit_y, dtype=float)))
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition must be a square matrix")
        if (p < 0).any():
            raise ValueError("transition entries must be nonnegative")
        if np.abs(p.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        k = p.shape[0]
        if self.emit_x.shape[0] != k or self.emit_y.shape[0] != k:
            raise ValueError("emissions must have one row per state")
        # Existence of a unique stationary law; computed once, cached.
        object.__setattr__(self, "_stationary", stationary_distribution(p))

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def covariate_dim(self) -> int:
        return self.emit_x.shape[1]

    @property
    def target_dim(self) -> int:
        return self.emit_y.shape[1]

    @property
    def stationary(self) -> np.ndarray:
        return self._stationary

    def _draw(self, rng, n):
        # Stationary chain: the initial state is drawn from the stationary law.
        cum_rows = np.cumsum(self.transition, axis=1)
        u = rng.random(n)
        states = np.empty(n, dtype=np.intp)
        states[0] = np.searchsorted(np.cumsum(self.stationary), u[0])
        for t in range(1, n):
            states[t] = np.searchsorted(cum_rows[states[t - 1]], u[t])
        return self.emit_x[states], self.emit_y[states]

    def _stationary_optimum(self):
        # Exact enumeration over the states under the stationary law.
        pi = self.stationary
        sigma_x = self.emit_x.T @ (pi[:, None] * self.emit_x)
        cross = self.emit_y.T @ (pi[:, None] * self.emit_x)
        return sigma_x, np.linalg.solve(symmetrize(sigma_x), cross.T).T

    def mixing_profile(self, gaps):
        from .mixing import markov_profile
        return markov_profile(self, gaps)


def two_state_flip(q: float, emissions=((-1.0, -1.0), (1.0, 1.0))) -> FiniteMarkov:
    """Symmetric two-state chain flipping with probability q; default emits
    the state sign as both covariate and target."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    p = np.array([[1.0 - q, q], [q, 1.0 - q]])
    em = np.asarray(emissions, dtype=float)
    return FiniteMarkov(transition=p, emit_x=em[:, :1], emit_y=em[:, 1:])


def stationary_distribution(p: np.ndarray) -> np.ndarray:
    """Stationary law of a row-stochastic matrix via the eigenproblem.

    Raises ValueError when the eigenvalue 1 is not simple (no unique
    stationary law).
    """
    w, v = np.linalg.eig(p.T)
    close = np.abs(w - 1.0) < 1e-8
    if close.sum() != 1:
        raise ValueError("chain has no unique stationary law (eigenvalue 1 not simple)")
    pi = np.real(v[:, close.argmax()])
    pi = np.abs(pi)
    return pi / pi.sum()


@dataclass(frozen=True, eq=False)
class BlockConstant(ProcessSpec):
    """Worst-case process: one Gaussian draw repeated over each length-k
    block, blocks iid.  Covariates and targets are drawn independently, so
    the best linear predictor is zero."""

    kind = "block_constant"

    block_len: int
    covariate_dim: int = 1
    target_dim: int = 1
    x_std: float = 1.0
    y_std: float = 1.0

    def __post_init__(self):
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        if self.covariate_dim < 1 or self.target_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if self.x_std <= 0 or self.y_std <= 0:
            raise ValueError("standard deviations must be positive")

    def _draw(self, rng, n):
        # A final partial block is allowed when k does not divide n.
        n_blocks = -(-n // self.block_len)
        bx = self.x_std * rng.standard_normal((n_blocks, self.covariate_dim))
        by = self.y_std * rng.standard_normal((n_blocks, self.target_dim))
        return (np.repeat(bx, self.block_len, axis=0)[:n],
                np.repeat(by, self.block_len, axis=0)[:n])

    def _stationary_optimum(self):
        return (self.x_std**2 * np.eye(self.covariate_dim),
                np.zeros((self.target_dim, self.covariate_dim)))

    def mixing_profile(self, gaps):
        # Within a block the future is a deterministic copy of the past
        # (total variation 1); across blocks the draws are independent.
        from .mixing import USER_SUPPLIED, MixingProfile
        return MixingProfile({g: (1.0 if g < self.block_len else 0.0) for g in gaps},
                             method=USER_SUPPLIED)


@dataclass(frozen=True, eq=False)
class IIDGaussian(ProcessSpec):
    """iid isotropic Gaussian design with linear targets plus independent
    Gaussian noise.  `coef` is the true d_Y x d_X map (zeros when omitted)."""

    kind = "iid_gaussian"

    covariate_dim: int
    target_dim: int = 1
    noise_std: float = 1.0
    coef: np.ndarray | None = None

    def __post_init__(self):
        if self.covariate_dim < 1 or self.target_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        m = np.zeros((self.target_dim, self.covariate_dim)) if self.coef is None \
            else np.asarray(self.coef, dtype=float).reshape(self.target_dim, self.covariate_dim)
        object.__setattr__(self, "coef", m)

    def _draw(self, rng, n):
        xs = rng.standard_normal((n, self.covariate_dim))
        noise = self.noise_std * rng.standard_normal((n, self.target_dim))
        return xs, xs @ self.coef.T + noise

    def _stationary_optimum(self):
        return np.eye(self.covariate_dim), self.coef

    def mixing_profile(self, gaps):
        from .mixing import iid_profile
        return iid_profile(gaps)


SPEC_KINDS = {cls.kind: cls for cls in (GaussianAR, FiniteMarkov, BlockConstant, IIDGaussian)}


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """A simulated (covariate, target) sequence plus its provenance."""

    xs: np.ndarray
    ys: np.ndarray
    seed: int
    spec: ProcessSpec = field(repr=False)

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ys = np.atleast_2d(np.asarray(self.ys, dtype=float))
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys must have the same length")
        if xs.shape[0] < 1:
            raise ValueError("trajectory must contain at least one sample")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return self.xs.shape[0]

    def to_csv(self, path) -> None:
        """Write columns t, x_1..x_dX, y_1..y_dY."""
        d_x, d_y = self.xs.shape[1], self.ys.shape[1]
        header = ["t"] + [f"x_{j+1}" for j in range(d_x)] + [f"y_{j+1}" for j in range(d_y)]
        write_csv(path, ",".join(header),
                  ((t, *x, *y) for t, x, y in zip(range(1, len(self) + 1), self.xs, self.ys)))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _lagged_design(values: np.ndarray, window: int) -> np.ndarray:
    """Row t holds (values[t-1], ..., values[t-window]), zero-padded at the
    start (zero initial condition)."""
    n = values.shape[0]
    cols = []
    for lag in range(1, window + 1):
        col = np.zeros(n)
        col[lag:] = values[:-lag]
        cols.append(col)
    return np.column_stack(cols)


def simulate(spec: ProcessSpec, n: int, seed: int) -> Trajectory:
    return spec.simulate(n, seed)


# ---------------------------------------------------------------------------
# Stationary second moments
# ---------------------------------------------------------------------------

def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The exact solution S of S = A S A' + Q for a Schur-stable A."""
    if np.abs(np.linalg.eigvals(a)).max() >= 1.0:
        raise ValueError("the Lyapunov equation needs a Schur-stable matrix")
    return symmetrize(solve_discrete_lyapunov(a, q))


def stationary_state_covariance(spec: GaussianAR) -> np.ndarray:
    """Stationary covariance of the stacked state; entry (i, j) is the
    autocovariance at lag |i - j|."""
    ss = companion(spec.ar_coeffs)
    q = spec.noise_std**2 * np.outer(ss.input_vec, ss.input_vec)
    return solve_lyapunov(ss.transition, q)


def autocovariances(spec: GaussianAR, max_lag: int) -> np.ndarray:
    """Stationary autocovariances gamma(0..max_lag), extended past the order
    by the AR recursion."""
    cov = stationary_state_covariance(spec)
    gamma = list(cov[0, : min(max_lag, spec.order) + 1])
    theta = np.asarray(spec.ar_coeffs)
    while len(gamma) <= max_lag:
        k = len(gamma)
        gamma.append(float(sum(theta[j] * gamma[k - 1 - j] for j in range(spec.order))))
    return np.asarray(gamma[: max_lag + 1])


def stationary_covariance(spec: GaussianAR) -> np.ndarray:
    """Covariance of the covariate window under the stationary law: the
    Toeplitz matrix of autocovariances up to covariate_dim - 1."""
    return toeplitz(autocovariances(spec, spec.covariate_dim - 1))
