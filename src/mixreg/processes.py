"""Data-generating processes: Gaussian AR, finite Markov chains, block-constant
worst cases, and iid Gaussian designs.

Every simulator is a pure function of (spec, n, seed, start): rerunning with
the same arguments reproduces the trajectory bit for bit, and a start above 0
keeps the rows from start on of the same draw.  Seeds are split with
numpy's SeedSequence hash (seeding.py), so derived streams (per block, per
trial) never collide.  `simulate` also takes a Generator, so a loop over
blocks can re-seed one Generator from `seeding.pcg64_state` of its
`seeding.pcg64_words` instead of building one per block.  Everything here,
the AR filter and the stationary second moments included, is plain numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .csvfile import write_csv
from .linalg import EIG_FLOOR, min_eig, opnorm_psd, symmetrize
from .seeding import derive_seed

ROW_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# Companion form
# ---------------------------------------------------------------------------

def companion(coeffs) -> np.ndarray:
    """The (p+1) x (p+1) companion matrix of an AR(p) recursion on the
    stacked state (current value, previous p values): first row (coeffs, 0)
    and an identity on the sub-diagonal block.  The innovation enters, and
    the output is read from, the first coordinate."""
    theta = np.atleast_1d(np.asarray(coeffs, dtype=float))
    p = theta.size
    if p < 1:
        raise ValueError("need at least one AR coefficient")
    a = np.zeros((p + 1, p + 1))
    a[0, :p] = theta
    a[1:, :p] = np.eye(p)
    return a


def spectral_radius(coeffs) -> float:
    return float(np.abs(np.linalg.eigvals(companion(coeffs))).max())


def impulse_response(a: np.ndarray, k: int) -> np.ndarray:
    """The dim x k matrix with columns e1, A e1, ..., A^(k-1) e1: column i
    is the state i steps after a unit input."""
    if k < 0:
        raise ValueError("k must be >= 0")
    r = np.empty((a.shape[0], k))
    col = np.eye(a.shape[0])[0]
    for i in range(k):
        r[:, i] = col
        col = a @ col
    return r


def _settled_impulse_response(a: np.ndarray, k: int) -> np.ndarray:
    """The columns of `impulse_response(a, k)` up to the first whose squared
    norm is at most machine epsilon times the running sum of squared norms.
    For a Schur-stable A the later columns are smaller still, so Gramians
    of more columns equal the one of these to float64 resolution."""
    cols, total = [], 0.0
    col = np.eye(a.shape[0])[0]
    for _ in range(k):
        cols.append(col)
        sq = float(col @ col)
        total += sq
        if sq <= np.finfo(float).eps * total:
            break
        col = a @ col
    return np.array(cols).T.reshape(a.shape[0], len(cols))


def gramian(a: np.ndarray, k: int) -> np.ndarray:
    """k-step controllability Gramian sum_{j<k} A^j e1 e1' (A^j)'.

    k = 0 returns the zero matrix.  Unit innovation variance; scale by the
    noise variance for a non-unit process.
    """
    r = impulse_response(a, k)
    return r @ r.T


def conditional_gaussian(a: np.ndarray, state, k: int) -> tuple[float, float]:
    """Mean and variance of the output k steps ahead given the current state
    (unit innovation variance)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(state, dtype=float)
    if x.shape != (a.shape[0],):
        raise ValueError(f"state must have dimension {a.shape[0]}, got {x.shape}")
    ak_x = np.linalg.matrix_power(a, k) @ x
    var = gramian(a, k)[0, 0]
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

    An input whose length is a multiple of the chunk length is read in
    place, not copied into a padded buffer; a caller that owns its samples
    can draw them into such a buffer (see `GaussianAR._filtered_rows`).

    Initial state: `filt(eps, skip)` returns outputs skip, skip + 1, ... of
    `filt(eps)` without filtering the first skip samples.  The state after
    them, s = (y_{skip-1}, ..., y_{skip-p}), is read from the state map: the
    32 c rows A^j e1, j < 32 c (2,048 rows at c = 64), built in `__init__`
    in extended precision from h and the chunk powers as
    A^(i c + r) e1 = G^i A^r e1.  Up to 32 c skipped samples take one
    product with the map; more are cut into spans of 32 c samples, one
    product each, chained oldest first by G^32.  The rest is filtered from
    s: a tail of at most one chunk is H e + F s, and a longer tail starts
    the recursion above at s_0 = s, which adds G s to the scan's first
    input u_0.  Against the skip-0 call the outputs differ by rounding,
    over orders 1 to 3 and up to 12,000 samples: at most 9e-16 of max |y|
    for simple real or complex roots up to modulus 0.95, 4e-15 up to
    0.99999, and 3e-13 for a double root at 0.99.  The bit-for-bit claims
    above are for skip = 0.
    """

    def __init__(self, coeffs):
        theta = np.asarray(coeffs, dtype=float)
        p = theta.size
        c = FILTER_CHUNK * -(-p // FILTER_CHUNK)
        k = SCAN_GROUP
        # Powers of A are built in extended precision where the platform has
        # it: a float64 product chain would lose about k ulps in A^k.
        a = companion(theta)[:p, :p].astype(np.longdouble)
        f = np.empty((c, p), dtype=np.longdouble)
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
        # Column r < c of A^r e1 is (h_r, ..., h_(r-p+1)), zero below lag 0,
        # so A^(i c + r) e1 = G^i A^r e1; the state map stores these k c
        # columns as rows, newest innovation last.
        cols = np.where(lag[:, :p] >= 0, h[np.maximum(lag[:, :p], 0)], 0.0)
        span = np.einsum("iab,rb->ira", np.stack(pows[:k]), cols).reshape(k * c, p)
        self.order, self.chunk = p, c
        self._ht = np.where(lag <= 0, h[np.abs(lag)], 0.0).astype(float)  # H^T: H[i, l] = h[i - l]
        self._ft = np.ascontiguousarray(f.T, dtype=float)
        self._within = within.reshape(k * p, k * p)
        self._carry = np.stack([m.T for m in pows[1:]], axis=1).astype(float).reshape(p, k * p)
        self._span_map = np.ascontiguousarray(span[::-1], dtype=float)

    def _state(self, head: np.ndarray) -> np.ndarray:
        """The states (y_{s-1}, ..., y_{s-p}) after the s innovations along
        the last axis of head, from zero initial values: one product with
        the state map per span of 32 c innovations, the spans chained oldest
        first by G^32 = A^(32 c)."""
        span = len(self._span_map)
        full, r = divmod(head.shape[-1], span)
        x = head[..., :r].dot(self._span_map[span - r:])
        if full:
            shares = head[..., r:].reshape(*head.shape[:-1], full, span).dot(self._span_map)
            g_k = self._carry[:, -self.order:]  # (G^32)^T
            for j in range(full):
                x = x.dot(g_k) + shares[..., j, :]
        return x

    def __call__(self, eps, skip: int = 0) -> np.ndarray:
        eps = np.asarray(eps, dtype=float)
        start_state = None
        if skip:
            if not 0 < skip < eps.shape[-1]:
                raise ValueError("skip must be 0 or lie in [1, number of samples)")
            start_state = self._state(eps[..., :skip])
            eps = eps[..., skip:]
            n = eps.shape[-1]
            if n <= self.chunk:
                # One chunk from the start state: the two chunk products.
                # A longer tail has more than one chunk, so s_0 = s below.
                return eps.dot(self._ht[:n, :n]) + start_state.dot(self._ft[:, :n])
        lead, n = eps.shape[:-1], eps.shape[-1]
        t, p, c, k = math.prod(lead), self.order, self.chunk, SCAN_GROUP
        nch = -(-n // c)
        if n == nch * c:
            e = eps.reshape(t, n)
        else:
            e = np.zeros((t, nch * c))
            e[:, :n] = eps.reshape(t, n)
        y = _gemm(e.reshape(t * nch, c), self._ht)
        if nch > 1:
            # Scan u_0, ..., u_{nch-2} in groups of k: the state before chunk
            # j + 1 is the state after step j.  The scan input has at least
            # two rows, a zero row past the groups if need be, so `_gemm`
            # never pads a copy of it.
            m = nch - 1
            ng = -(-m // k)
            u = np.zeros((max(t * ng, 2), k * p))
            steps = u[:t * ng].reshape(t, ng * k, p)
            steps[:, :m] = y.reshape(t, nch, c)[:, :-1, ::-1][..., :p]
            if start_state is not None:
                # The start state reaches the state before chunk 1 as G s_0.
                steps[:, 0] += start_state.reshape(t, p) @ self._carry[:, :p]
            ends = _gemm(u, self._within)[:t * ng].reshape(t, ng, k * p)
            for g in range(1, ng):
                # Group g starts from the last state of group g - 1.  An
                # elementwise sum, unlike a product, rounds each row alike
                # however many rows share the call.
                ends[:, g] += (ends[:, g - 1, -p:, None] * self._carry).sum(axis=1)
            s = np.zeros((t, nch, p))
            s[:, 1:] = ends.reshape(t, ng * k, p)[:, :m]
            if start_state is not None:
                s[:, 0] = start_state.reshape(t, p)
            y += s.reshape(t * nch, p) @ self._ft
        return y.reshape(t, nch * c)[:, :n].reshape(*lead, n)


# ---------------------------------------------------------------------------
# Process specs
# ---------------------------------------------------------------------------

class ProcessSpec:
    """Base of the process kinds.  A kind is one frozen dataclass that sets
    its config name `kind` and implements `_draw(rng, n)` (the covariate and
    target arrays, read by `simulate`) and `mixing_profile(gaps)`.  The base
    `_draw_from(rng, n, start)`, which `simulate` reads for start > 0,
    slices the full draw; Gaussian AR overrides it to build only the kept
    rows.  Gaussian AR also overrides `optimum`, with a finite horizon and
    its cached `state_companion` and `state_covariance`, and `with_window`;
    the other kinds implement `_stationary_optimum()`.  The base
    `fourth_moment_constant`, exact for stationary Gaussian covariates, is
    overridden by the AR and Markov kinds.  `mixing_profile` imports from
    mixing.py when called, since that module imports this one."""

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

    def _draw_from(self, rng, n, start):
        """Rows start.. of `_draw(rng, n)`: the full draw, sliced."""
        xs, ys = self._draw(rng, n)
        return xs[start:], ys[start:]

    def fourth_moment_constant(self, sigma_x: np.ndarray, n: int, seed: int) -> float:
        """The fourth-moment constant h over sample times t < n: h^2 is the
        sup over v' sigma_x v = 1 of sum_t E<v, x_t>^4 / sum_t E<v, x_t>^2.
        Kinds that take the sup over the `_h_directions` grid draw it from
        the seed.  Here, for stationary Gaussian covariates of covariance C,
        it is the closed form 3 lambda_max(sigma_x^{-1} C): 3 if sigma_x = C."""
        cov = self.optimum()[0]
        chol = np.linalg.cholesky(sigma_x)
        whitened = np.linalg.solve(chol, np.linalg.solve(chol, cov).T)
        return math.sqrt(3.0 * opnorm_psd(whitened))


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
        if not np.isfinite(self.ar_coeffs).all():
            raise ValueError("ar_coeffs must be finite")
        if not 0.0 < self.noise_std < math.inf:
            raise ValueError("noise_std must be positive and finite")
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
        return self._filtered_rows(rng, n, 0, 0)

    def _draw_from(self, rng, n, start):
        """Rows start.. of `_draw(rng, n)` from the same innovations.  All of
        them are drawn, but the filter runs only from t0 = warmup + start -
        covariate_dim, the first series value those rows read, starting from
        the state that the t0 innovations before it leave (see `ARFilter`)."""
        return self._filtered_rows(rng, n, start, max(self.warmup + start - self.covariate_dim, 0))

    def _filtered_rows(self, rng, n, start, t0):
        """Draw warmup + n innovations, filter them from index t0 on, and
        build rows start.. of the design.  The innovations are drawn into a
        zero buffer whose part from t0 has the filter's chunk-padded length,
        which the filter reads without a copy; with one lag past a warmup,
        the covariates are a view of the series.  The covariates and targets
        can then share memory, so the series is made read-only."""
        total = self.warmup + n
        c = self._filter.chunk
        eps = np.zeros(t0 + c * -(-(total - t0) // c))
        drawn = eps[:total]
        rng.standard_normal(out=drawn)
        if self.noise_std != 1.0:  # a unit scale would change no bit
            drawn *= self.noise_std
        # y_t = sum_k theta_k y_{t-k} + eps_t with zero initial conditions.
        y = self._filter(eps, t0)[:total - t0]
        y.setflags(write=False)
        skip = self.warmup + start - t0  # series index of row start
        if self.covariate_dim == 1 and skip >= 1:
            xs = y[skip - 1 : -1, None]
        else:
            xs = _lagged_design(y, self.covariate_dim, skip)
        return xs, y[skip:, None]

    def with_window(self, window: int) -> "GaussianAR":
        return self if window == self.covariate_dim else replace(self, covariate_dim=window)

    def optimum(self, horizon: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Yule-Walker on `state_covariance`; with a horizon, the exact
        uniform mixture over that many sample times of the (possibly
        zero-initialized) trajectory instead of the stationary law.

        The covariate at time t is the leading window of the state one step
        back, so both follow from a state covariance S as sigma_x = S[:w, :w]
        and Cov(x_{j+1}, x_j) = A S.  For the mixture, states j = warmup ..
        warmup + horizon - 1 feed the samples, and Cov(x_j) = sigma^2
        sum_{i<j} A^i e1 e1' (A^i)', so the summed covariance weighs term i
        by the number of those j above i."""
        a = self.state_companion
        if horizon is None:
            mean_cov = self.state_covariance
        elif horizon < 1:
            raise ValueError("horizon must be >= 1")
        else:
            k = self.warmup + horizon - 1
            r = impulse_response(a, k)
            weights = np.minimum(horizon, k - np.arange(k))
            mean_cov = self.noise_std**2 * (r * weights) @ r.T / horizon
        window = self.covariate_dim
        sigma_x = mean_cov[:window, :window]
        if min_eig(sigma_x) <= EIG_FLOOR:
            raise ValueError("covariate covariance is not positive definite")
        cross = (a @ mean_cov)[0, :window]
        return sigma_x, np.linalg.solve(symmetrize(sigma_x), cross)[None, :]

    @cached_property
    def state_companion(self) -> np.ndarray:
        """Companion matrix of the state (y_t, ..., y_{t-D+1}) with
        D = max(p + 1, covariate_dim), so that every lag of the covariate
        window is a state coordinate: the one state every AR moment reads
        (read-only)."""
        dim = max(self.order + 1, self.covariate_dim)
        a = companion(self.ar_coeffs + (0.0,) * (dim - 1 - self.order))
        a.flags.writeable = False
        return a

    @cached_property
    def _lyapunov_row(self) -> np.ndarray:
        """gamma(0..p), the first row of the stationary covariance of the
        (p+1) companion state: the spec's one Lyapunov solve (read-only)."""
        q = np.zeros((self.order + 1, self.order + 1))
        q[0, 0] = self.noise_std**2
        row = solve_lyapunov(companion(self.ar_coeffs), q)[0]
        row.flags.writeable = False
        return row

    @cached_property
    def state_covariance(self) -> np.ndarray:
        """Stationary covariance of the D-coordinate state of
        `state_companion`, entry (i, j) = gamma(|i - j|) (read-only).  The
        lags past p come from the AR recursion, never from a Lyapunov solve
        on the D-state, whose Kronecker system has D^4 entries."""
        dim = max(self.order + 1, self.covariate_dim)
        idx = np.arange(dim)
        cov = autocovariances(self, dim - 1)[np.abs(idx[:, None] - idx)]
        cov.flags.writeable = False
        return cov

    def fourth_moment_constant(self, sigma_x: np.ndarray, n: int, seed: int) -> float:
        """Exact per direction: from the zero initial state, the window
        covariance Sigma_t at sample time t = warmup + i, i < n, is
        noise_std^2 times the window block of the Gramian of the first t
        impulse-response columns, so q_t = v' Sigma_t v is a cumulative sum
        and h^2 = 3 sum_t q_t^2 / sum_t q_t.  Past the settled columns
        Sigma_t is stationary.  One direction for d_X = 1; for d_X > 1 the
        max over the grid, a lower estimate of the sup."""
        times = self.warmup + np.arange(n)
        r = _settled_impulse_response(self.state_companion, int(times[-1]))
        dirs = _h_directions(sigma_x, seed)
        proj = dirs @ r[:self.covariate_dim]
        cum = np.zeros((len(dirs), r.shape[1] + 1))
        np.cumsum(self.noise_std**2 * proj * proj, axis=1, out=cum[:, 1:])
        q = cum[:, np.minimum(times, r.shape[1])]
        return math.sqrt(3.0 * np.max(np.sum(q * q, axis=1)
                                      / np.maximum(np.sum(q, axis=1), 1e-300)))

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
        p = validate_transition(self.transition)
        object.__setattr__(self, "transition", p)
        for name in ("emit_x", "emit_y"):
            emit = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if emit.shape[0] != p.shape[0]:
                raise ValueError(f"{name} must have one row per state")
            if not np.isfinite(emit).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, emit)
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

    def fourth_moment_constant(self, sigma_x: np.ndarray, n: int, seed: int) -> float:
        """Exact sums over the stationary law, which every sample time has:
        h^2 = sum_s pi_s <v, e_s>^4 / sum_s pi_s <v, e_s>^2 over the
        emissions e_s, at the one direction when d_X = 1, else the max over
        the grid (a lower estimate of the sup)."""
        p2 = np.square(self.emit_x @ _h_directions(sigma_x, seed).T)
        pi = self.stationary
        return math.sqrt(np.max(pi @ (p2 * p2) / np.maximum(pi @ p2, 1e-300)))

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


def validate_transition(transition) -> np.ndarray:
    """transition as a float array, checked to be square, finite, nonnegative
    and row-stochastic within ROW_SUM_TOL."""
    p = np.asarray(transition, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("transition must be a square matrix")
    if not np.isfinite(p).all():
        raise ValueError("transition must be finite")
    if (p < 0).any():
        raise ValueError("transition entries must be nonnegative")
    if np.abs(p.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        raise ValueError("transition must be row-stochastic: rows sum to 1 within 1e-12")
    return p


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
        for name in ("x_std", "y_std"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

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
        from .mixing import MixingProfile
        return MixingProfile({g: (1.0 if g < self.block_len else 0.0) for g in gaps})


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
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be nonnegative and finite")
        m = np.zeros((self.target_dim, self.covariate_dim)) if self.coef is None \
            else np.asarray(self.coef, dtype=float).reshape(self.target_dim, self.covariate_dim)
        if not np.isfinite(m).all():
            raise ValueError("coef must be finite")
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


def _h_directions(sigma_x: np.ndarray, seed: int) -> np.ndarray:
    """Eigenvector grid plus 10 d random directions, normalized onto the
    ellipsoid v' Sigma_X v = 1.  For d = 1 every normalized direction is
    +-the eigenvector and gives the same ratio, so only it is returned and
    no random directions are drawn."""
    d = sigma_x.shape[0]
    _, eigvecs = np.linalg.eigh(sigma_x)
    dirs = eigvecs.T
    if d > 1:
        rng = np.random.default_rng(derive_seed(seed, 0xD1))
        dirs = np.concatenate([dirs, rng.standard_normal((10 * d, d))], axis=0)
    scale = np.sqrt(np.einsum("ij,jk,ik->i", dirs, sigma_x, dirs))
    return dirs / scale[:, None]


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

_FLOAT64 = np.dtype(np.float64)


def _float_2d(a) -> np.ndarray:
    """a as a 2-D float64 array, converted only if it is not one already."""
    if type(a) is np.ndarray and a.ndim == 2 and a.dtype is _FLOAT64:
        return a
    return np.atleast_2d(np.asarray(a, dtype=float))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A simulated (covariate, target) sequence."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs, ys = _float_2d(self.xs), _float_2d(self.ys)
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys must have the same length")
        if xs.shape[0] < 1:
            raise ValueError("trajectory must contain at least one sample")
        if xs is not self.xs:
            object.__setattr__(self, "xs", xs)
        if ys is not self.ys:
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


def simulate(spec: ProcessSpec, n: int, seed: int | np.random.Generator,
             start: int = 0) -> Trajectory:
    """Samples start..n-1 of the first n samples of the spec's process, a
    pure function of (spec, n, seed, start).  The seed may also be a
    Generator, which the draw advances: one whose state is
    `pcg64_state(pcg64_words([s])[0])` draws what seed s draws.  A start
    above 0 makes the same random calls in the same order as start 0 and
    builds only the kept rows: the result is the full draw's rows from
    start on, bit for bit for the iid, Markov and block-constant kinds and
    to rounding for Gaussian AR, whose filter skips the rows before them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= start < n:
        raise ValueError(f"start must lie in [0, n), got {start} for n = {n}")
    rng = np.random.default_rng(seed)
    xs, ys = spec._draw_from(rng, n, start) if start else spec._draw(rng, n)
    return Trajectory(xs=xs, ys=ys)


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


def autocovariances(spec: GaussianAR, max_lag: int) -> np.ndarray:
    """Stationary autocovariances gamma(0..max_lag): the spec's Lyapunov row
    up to the order, extended past it by the AR recursion."""
    gamma = list(spec._lyapunov_row[: min(max_lag, spec.order) + 1])
    theta = np.asarray(spec.ar_coeffs)
    while len(gamma) <= max_lag:
        k = len(gamma)
        gamma.append(float(sum(theta[j] * gamma[k - 1 - j] for j in range(spec.order))))
    return np.asarray(gamma[: max_lag + 1])
