"""Data-generating processes: Gaussian AR, finite Markov chains, block-constant
worst cases, and iid Gaussian designs.

Every simulator is a pure function of (spec, n, seed): rerunning with the same
arguments reproduces the trajectory bit for bit.  Seeds are split with
numpy's SeedSequence, so derived streams (per block, per trial) never collide.
Everything here, the AR filter and the stationary second moments included,
is plain numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

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


def impulse_response(ss: StateSpace, k: int) -> np.ndarray:
    """The dim x k matrix with columns b, A b, ..., A^(k-1) b: column i is
    the state i steps after a unit input."""
    if k < 0:
        raise ValueError("k must be >= 0")
    r = np.empty((ss.dim, k))
    col = ss.input_vec
    for i in range(k):
        r[:, i] = col
        col = ss.transition @ col
    return r


def gramian(ss: StateSpace, k: int) -> np.ndarray:
    """k-step controllability Gramian sum_{j<k} A^j b b' (A^j)'.

    k = 0 returns the zero matrix.  Unit innovation variance; scale by the
    noise variance for a non-unit process.
    """
    r = impulse_response(ss, k)
    return r @ r.T


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
# Chunked AR filter
# ---------------------------------------------------------------------------

FILTER_CHUNK = 64  # samples per chunk of the AR filter
SCAN_GROUP = 32    # states per group of its state scan


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D a, as a matrix-matrix product even when a has one row.

    numpy hands a one-row product to BLAS gemv, which rounds differently from
    gemm; padding a zero row keeps each row's result independent of how many
    rows share the call."""
    if a.shape[0] == 1:
        return (np.concatenate([a, np.zeros_like(a)]) @ b)[:1]
    return a @ b


class ARFilter:
    """Exact filter of y_t = sum_k theta_k y_{t-k} + e_t from zero initial
    values, applied along the last axis of e.

    The series is cut into chunks of c samples (c = 64, or the multiple of
    64 at or above the order p).  With s_j = (y_{jc-1}, ..., y_{jc-p}), the p
    values before chunk j,

        y[chunk j] = H e[chunk j] + F s_j,     s_{j+1} = u_j + G s_j,

    where H is the c x c lower-triangular Toeplitz matrix of the impulse
    response, row i of F is the first row of A^(i+1) for the p x p companion
    matrix A, G = A^c is the boundary map, and u_j holds the last p values of
    H e[chunk j], newest first.  The zero-state responses of all chunks are
    one matrix product.  The chunk-start states are a scan of u under G in
    groups of 32 states: within a group the scan is one product with the
    block-Toeplitz matrix of G^0, ..., G^31, for all groups at once, and a
    loop over the groups then adds each group's start state, the last state
    of the group before, times G^1, ..., G^32.  That loop runs once per
    group after the first, which with c = 64 is never for n <= 2,112 and
    four times at n = 10,084.  The two scan matrices, of (32 p)^2 and
    32 p^2 entries, are built with the chunk matrices in `__init__`.

    Accuracy: the matrices carry the rounding of a few ulps, since the
    powers of A are formed in extended precision where numpy.longdouble has
    it; each output then has the rounding of sums of at most c + 32 p terms
    plus the carries of the groups before it.  Against
    `scipy.signal.lfilter`, the largest difference over orders 1 to 3 and n
    up to 10^6 was 7e-14 of max |y|, with simple real or complex roots up to
    modulus 0.99999.  Repeated or close roots near the unit circle lose
    more, since the state basis then cancels: at n = 10^6 a double root at
    0.99 gave 3e-13 to 4e-13, one at 0.999 2e-11, one at 0.99999 2e-7 to
    3e-7, and the pair of roots 0.9999, 0.999 gave 2e-10.

    Reproducibility: row r of a 2-D call equals the 1-D call on row r bit
    for bit, and zeros appended to a row leave its earlier outputs
    unchanged.  Every product is a BLAS gemm (see `_gemm`) with a column
    count that is a multiple of 32, for which the per-entry sums do not
    depend on the row count (tests/test_processes.py checks this on the
    BLAS at hand), the group carries are elementwise sums, and a later
    sample only ever meets an earlier one through an exact zero weight.
    """

    def __init__(self, coeffs):
        theta = np.asarray(coeffs, dtype=float)
        p = theta.size
        c = FILTER_CHUNK * -(-p // FILTER_CHUNK)
        k = SCAN_GROUP
        # Powers of A are built in extended precision where the platform has
        # it: a float64 product chain would lose about k ulps in A^k.
        a = companion(theta).transition[:p, :p].astype(np.longdouble)
        f = np.empty((c, p))
        row = a[0]
        for i in range(c):
            f[i] = row  # first row of A^(i+1)
            row = row @ a
        h = np.concatenate([[1.0], f[:-1, 0]])  # h_i = (A^i)[0, 0]
        lag = np.subtract.outer(np.arange(c), np.arange(c))  # lag[l, i] = l - i
        g = np.linalg.matrix_power(a, c)
        pows = [np.eye(p, dtype=np.longdouble)]  # G^0, ..., G^k
        for _ in range(k):
            pows.append(pows[-1] @ g)
        # within[(l, b), (i, a)] = (G^(i-l))[a, b] for l <= i scans a group
        # from a zero start; carry[b, (i, a)] = (G^(i+1))[a, b] is the start
        # state's share of the state after step i of the group.
        within = np.zeros((k, p, k, p))
        for d in range(k):
            first = np.arange(k - d)
            within[first, :, first + d, :] = pows[d].T
        self.order, self.chunk = p, c
        self._ht = np.where(lag <= 0, h[np.abs(lag)], 0.0)  # H^T: H[i, l] = h[i - l]
        self._ft = np.ascontiguousarray(f.T)
        self._within = within.reshape(k * p, k * p)
        self._carry = np.stack([m.T for m in pows[1:]], axis=1).astype(float).reshape(p, k * p)

    def __call__(self, eps) -> np.ndarray:
        eps = np.asarray(eps, dtype=float)
        lead, n = eps.shape[:-1], eps.shape[-1]
        t, p, c, k = math.prod(lead), self.order, self.chunk, SCAN_GROUP
        nch = -(-n // c)
        e = np.zeros((t, nch * c))
        e[:, :n] = eps.reshape(t, n)
        y = _gemm(e.reshape(t * nch, c), self._ht)
        if nch > 1:
            # Scan u_0, ..., u_{nch-2} in groups of k: the state before chunk
            # j + 1 is the state after step j.
            m = nch - 1
            ng = -(-m // k)
            u = np.zeros((t, ng * k, p))
            u[:, :m] = y.reshape(t, nch, c)[:, :-1, ::-1][..., :p]
            ends = _gemm(u.reshape(t * ng, k * p), self._within).reshape(t, ng, k * p)
            for g in range(1, ng):
                # Group g starts from the last state of group g - 1.  An
                # elementwise sum, unlike a product, rounds each row alike
                # however many rows share the call.
                ends[:, g] += (ends[:, g - 1, -p:, None] * self._carry).sum(axis=1)
            s = np.zeros((t, nch, p))
            s[:, 1:] = ends.reshape(t, ng * k, p)[:, :m]
            y += s.reshape(t * nch, p) @ self._ft
        return y.reshape(t, nch * c)[:, :n].reshape(*lead, n)


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
    zero-initialized process).  Draws run the recursion through the
    spec's `ARFilter`, built once per spec.
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
        object.__setattr__(self, "_filter", ARFilter(self.ar_coeffs))

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
        eps = rng.standard_normal(self.warmup + n)
        eps *= self.noise_std
        # y_t = sum_k theta_k y_{t-k} + eps_t with zero initial conditions.
        y = self._filter(eps)
        return _lagged_design(y, self.covariate_dim, self.warmup), y[self.warmup:, None]

    def with_window(self, window: int) -> "GaussianAR":
        return self if window == self.covariate_dim else replace(self, covariate_dim=window)

    def _stationary_optimum(self):
        # Yule-Walker on the stationary autocovariances.
        m = self.covariate_dim
        gamma = autocovariances(self, m)
        sigma_x = _toeplitz(gamma[:m])
        if min_eig(sigma_x) <= EIG_FLOOR:
            raise ValueError("autocovariance matrix is not positive definite")
        return sigma_x, np.linalg.solve(sigma_x, gamma[1:])[None, :]

    def optimum(self, horizon: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """With a horizon: the exact uniform mixture over that many sample
        times of the (possibly zero-initialized) trajectory instead of the
        stationary law.

        The covariate at time t is the leading window of the state one step
        back, so the mixture moments follow from Cov(x_j) and Cov(x_{j+1}, x_j)
        = A Cov(x_j).  States j = warmup .. warmup + horizon - 1 feed the
        samples, and Cov(x_j) = sigma^2 sum_{i<j} A^i b b' (A^i)', so the
        summed covariance weighs term i by the number of those j above i."""
        if horizon is None:
            return self._stationary_optimum()
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        window = self.covariate_dim
        ss = companion(self.ar_coeffs)
        k = self.warmup + horizon - 1
        r = impulse_response(ss, k)
        weights = np.minimum(horizon, k - np.arange(k))
        mean_cov = self.noise_std**2 * (r * weights) @ r.T / horizon
        sigma_x = mean_cov[:window, :window]
        if min_eig(sigma_x) <= EIG_FLOOR:
            raise ValueError("mixture covariance is not positive definite")
        cross = (ss.transition @ mean_cov)[0, :window]
        return sigma_x, np.linalg.solve(symmetrize(sigma_x), cross)[None, :]

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
        object.__setattr__(self, "_cum_rows", _cumulative(p))
        object.__setattr__(self, "_cum_stationary", _cumulative(self._stationary))

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
        cum_rows = self._cum_rows
        u = rng.random(n)
        states = np.empty(n, dtype=np.intp)
        states[0] = np.searchsorted(self._cum_stationary, u[0])
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


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis with each row's final total pinned
    to 1.0, so `searchsorted` of a uniform in [0, 1) is always a valid index.
    Rows may sum to 1 only within ROW_SUM_TOL; the pin moves the entries equal
    to the final total (the last positive-probability state onward), so a
    uniform in a rounding gap lands on the last state that can occur."""
    cum = np.cumsum(probs, axis=-1)
    cum[cum >= cum[..., -1:]] = 1.0
    return cum


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

def _lagged_design(values: np.ndarray, window: int, skip: int = 0) -> np.ndarray:
    """Rows t = skip, skip + 1, ... of the lagged design, where row t holds
    (values[t-1], ..., values[t-window]), zero-padded at the start (zero
    initial condition).  The first skip rows are never built."""
    n = values.shape[0]
    out = np.zeros((n - skip, window))
    for lag in range(1, window + 1):
        first = max(lag - skip, 0)  # first kept row with t >= lag
        if first < len(out):
            out[first:, lag - 1] = values[first + skip - lag : n - lag]
    return out


def simulate(spec: ProcessSpec, n: int, seed: int) -> Trajectory:
    return spec.simulate(n, seed)


# ---------------------------------------------------------------------------
# Stationary second moments
# ---------------------------------------------------------------------------

def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The exact solution S of S = A S A' + Q for a Schur-stable A, from the
    linear system (I - A kron A) vec S = vec Q (row-major vec)."""
    a = np.asarray(a, dtype=float)
    if np.abs(np.linalg.eigvals(a)).max() >= 1.0:
        raise ValueError("the Lyapunov equation needs a Schur-stable matrix")
    d = a.shape[0]
    s = np.linalg.solve(np.eye(d * d) - np.kron(a, a), np.asarray(q, dtype=float).reshape(d * d))
    return symmetrize(s.reshape(d, d))


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
    return _toeplitz(autocovariances(spec, spec.covariate_dim - 1))


def _toeplitz(gamma: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix with entry (i, j) = gamma[|i - j|]."""
    idx = np.arange(len(gamma))
    return gamma[np.abs(idx[:, None] - idx)]
