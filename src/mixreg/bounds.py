"""Every bound evaluator: Bernstein and blocked Bernstein thresholds, the
effective dimension, block noise spectra, Fuk-Nagaev tails, the dependent
random-walk threshold, the lower-tail certificate, truncation checks, and the
main excess-risk bound with its burn-in conditions.

The universal constants in these bounds are not pinned by the theory; the
defaults here are engineering choices and every report records the constants
it used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .blocking import BlockPartition, block_sums
from .linalg import min_eig, opnorm_psd, symmetrize
from .mixing import MixingProfile, mixing_sum
from .parallel import draw_decoupled, draw_process, map_trials
from .processes import ProcessSpec, derive_seed
from .regression import RegressionProblem, noise_walk

MIN_MC_TRIALS = 1000


def _require_trials(n_mc: int, floor: int) -> None:
    if n_mc < floor:
        raise ValueError(f"n_mc must be >= {floor}, got {n_mc}")


# ---------------------------------------------------------------------------
# Scalar thresholds
# ---------------------------------------------------------------------------

def bernstein_threshold(n: int, var: float, b: float, delta: float) -> float:
    """Deviation level of the mean of n iid mean-zero b-bounded variables at
    confidence 1 - delta: 2 sqrt(var log(1/d) / n) + 4 b log(1/d) / (3n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if var < 0 or b <= 0:
        raise ValueError("need var >= 0 and b > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    log_term = math.log(1.0 / delta)
    return 2.0 * math.sqrt(var * log_term / n) + 4.0 * b * log_term / (3.0 * n)


def blocked_bernstein_threshold(n: int, k: int, blockvar: float, b: float,
                                delta: float) -> float:
    """Blocked variant: variables are summed over length-k blocks, so the
    large-deviations term is inflated by k while the leading term keeps the
    per-block normalized variance blockvar = E(block sum)^2 / k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n % k != 0:
        raise ValueError(f"block length {k} must divide n = {n}")
    if blockvar < 0 or b <= 0:
        raise ValueError("need blockvar >= 0 and b > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    log_term = math.log(1.0 / delta)
    return 2.0 * math.sqrt(blockvar * log_term / n) + 4.0 * b * k * log_term / (3.0 * n)


def edim(m: np.ndarray) -> float:
    """Effective dimension of a symmetric PSD matrix: trace / operator norm."""
    m = np.asarray(m, dtype=float)
    op = opnorm_psd(m)
    if op <= 0.0:
        raise ValueError("effective dimension undefined for the zero matrix")
    return float(np.trace(m) / op)


def phi_tau(u, tau: float):
    """Quadratic capped at tau^2: u^2 for |u| <= tau, else tau^2."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    out = np.minimum(np.square(np.asarray(u, dtype=float)), tau * tau)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Fuk-Nagaev machinery
# ---------------------------------------------------------------------------

def fuk_nagaev_constant(eps: float, eta: float, s: float) -> float:
    """Constant multiplying the polynomial tail:
    1 + (2s/e)^{2s} (2 (1 + 2/eps)(3 + 4/eta))^2 + eps^{-s}."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if s <= 2:
        raise ValueError("s must exceed 2")
    poly = (2.0 * s / math.e) ** (2.0 * s)
    bracket = (2.0 * (1.0 + 2.0 / eps) * (3.0 + 4.0 / eta)) ** 2
    return 1.0 + poly * bracket + eps ** (-s)


def fuk_nagaev_tail(lam: float, moments_s, t: float, eps: float, eta: float,
                    s: float) -> float:
    """Right-hand side of the mixed tail for norms of sums of independent
    vectors: exp(-t^2 / ((2+eta) lam)) + C sum_i E||U_i||^s / t^s."""
    if t <= 0:
        raise ValueError("t must be positive")
    if lam <= 0:
        raise ValueError("weak variance must be positive")
    c = fuk_nagaev_constant(eps, eta, s)
    poly = c * float(np.sum(np.asarray(moments_s, dtype=float))) / t**s
    return math.exp(-t * t / ((2.0 + eta) * lam)) + poly


def noise_term_threshold(lambda_odd: float, lambda_even: float,
                         size_odd: int, size_even: int, r: float,
                         eps: float, eta: float, delta: float) -> float:
    """Deviation threshold for the mean of a mean-zero mixing process:
    worst of the odd/even scales times ((1+2 eta) sqrt(r) +
    (1+9 eps) sqrt((2+eta) log(1/delta)))."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if min(lambda_odd, lambda_even) < 0 or min(size_odd, size_even) < 1 or r < 0:
        raise ValueError("variances, sizes and r must be nonnegative")
    if eps <= 0 or not 0.0 < eta <= 1.0:
        raise ValueError("need eps > 0 and eta in (0, 1]")
    log_term = math.log(1.0 / delta)
    body = (1.0 + 2.0 * eta) * math.sqrt(r) \
        + (1.0 + 9.0 * eps) * math.sqrt((2.0 + eta) * log_term)
    scale = max(math.sqrt(lambda_odd / size_odd), math.sqrt(lambda_even / size_even))
    return scale * body


def noise_term_failure_budget(block_moments_odd, block_moments_even,
                              lambda_odd: float, lambda_even: float,
                              size_odd: int, size_even: int, r: float,
                              eps: float, eta: float, s: float, delta: float,
                              interior_mixing_sum: float) -> float:
    """Total failure probability charged by the dependent random-walk tail:
    2 delta + the interior mixing sum + the polynomial Fuk-Nagaev remainder."""
    if r <= 0:
        raise ValueError("r must be positive for the polynomial term")
    c = fuk_nagaev_constant(eps, eta, s)
    prefactor = c * (1.0 + 9.0 * eps) ** s / (r ** (s / 2.0) * eta**s)
    poly = 0.0
    for moments, lam, size in ((block_moments_odd, lambda_odd, size_odd),
                               (block_moments_even, lambda_even, size_even)):
        msum = float(np.sum(np.asarray(moments, dtype=float)))
        if msum == 0.0:
            continue
        if lam <= 0:
            raise ValueError("weak variances must be positive when moments are nonzero")
        poly += msum / (size ** (s / 2.0) * lam ** (s / 2.0))
    return 2.0 * delta + interior_mixing_sum + prefactor * poly


# ---------------------------------------------------------------------------
# Noise spectrum estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NoiseSpectrum:
    """Second-order statistics of the whitened noise walk over a partition.

    sigma_blocks[i] is the covariance of the vectorized centered block sum;
    sigma_agg their sum divided by n; sigma2 and effective_dim its operator
    norm and trace ratio.  block_moment_s is the average (normalized by
    sqrt(max block length)) s-th block moment entering the moment burn-in,
    and block_snorm_moments the raw per-block s-th moments of the block sums.
    Centering uses the Monte Carlo mean (bias O(1/n_mc)).
    """

    partition: BlockPartition
    d_x: int
    d_y: int
    sigma_blocks: np.ndarray          # (2m, D, D) with D = d_x * d_y
    sigma_agg: np.ndarray             # (D, D)
    sigma2: float
    effective_dim: float
    moment_s: float
    block_moment_s: float
    block_snorm_moments: np.ndarray   # (2m,)
    h: float
    n_mc: int
    mean_walk_norm: float             # norm of the estimated mean of S_n

    def odd_even_sums(self) -> tuple[np.ndarray, np.ndarray]:
        odd = self.sigma_blocks[0::2].sum(axis=0)
        even = self.sigma_blocks[1::2].sum(axis=0)
        return odd, even


def _h_directions(sigma_x: np.ndarray, seed: int) -> np.ndarray:
    """Eigenvector grid plus 10 d random directions, normalized onto the
    ellipsoid v' Sigma_X v = 1."""
    d = sigma_x.shape[0]
    _, eigvecs = np.linalg.eigh(sigma_x)
    rng = np.random.default_rng(derive_seed(seed, 0xD1))
    dirs = np.concatenate([eigvecs.T, rng.standard_normal((10 * d, d))], axis=0)
    scale = np.sqrt(np.einsum("ij,jk,ik->i", dirs, sigma_x, dirs))
    return dirs / scale[:, None]


def _walk_block_sums(prob: RegressionProblem, partition: BlockPartition, traj):
    v, s_n = noise_walk(traj, prob)
    return block_sums(v.reshape(partition.n, -1), partition), s_n


def _spectrum_moments(prob, partition, dirs, proj, traj):
    """Pass-1 statistic: block sums, their outer products, the walk's end
    point, and the second and fourth powers of the projections onto dirs
    (written into the reused (n, K) buffer proj)."""
    bs, s_n = _walk_block_sums(prob, partition, traj)
    np.matmul(traj.xs, dirs.T, out=proj)
    p2 = np.square(proj, out=proj)
    return (), (bs, np.einsum("bi,bj->bij", bs, bs), s_n.reshape(-1),
                p2.sum(axis=0), (p2 * p2).sum(axis=0))


def _block_snorms(prob, partition, mean_bs, s, traj):
    """Pass-2 statistic: s-th powers of the centered block-sum norms."""
    bs = _walk_block_sums(prob, partition, traj)[0] - mean_bs
    return (), (np.linalg.norm(bs, axis=1) ** s,)


def noise_spectrum(spec: ProcessSpec, prob: RegressionProblem,
                   partition: BlockPartition, n_mc: int, seed: int,
                   s: float = 4.0) -> NoiseSpectrum:
    """Monte Carlo estimate of the block noise spectrum over n_mc independent
    trajectories, including the fourth-moment constant h (maximized over an
    eigenvector grid plus random directions; a lower estimate of the true
    supremum) and the s-th block moments."""
    _require_trials(n_mc, MIN_MC_TRIALS)
    if s < 2:
        raise ValueError("s must be >= 2")
    dirs = _h_directions(prob.sigma_x, seed)
    draw = partial(draw_process, spec, partition.n)
    proj = np.empty((partition.n, dirs.shape[0]))
    _, (sum_bs, sum_outer, sum_walk, sum_p2, sum_p4) = map_trials(
        partial(_spectrum_moments, prob, partition, dirs, proj), draw, n_mc, seed)

    mean_bs = sum_bs / n_mc
    sigma_blocks = sum_outer / n_mc - np.einsum("bi,bj->bij", mean_bs, mean_bs)
    sigma_blocks = 0.5 * (sigma_blocks + sigma_blocks.transpose(0, 2, 1))
    sigma_agg = symmetrize(sigma_blocks.sum(axis=0) / partition.n)
    sigma2 = opnorm_psd(sigma_agg)
    # A fully noiseless problem has an empty spectrum; report dimension 0
    # rather than 0/0 so the bound degrades to 0.
    eff = edim(sigma_agg) if sigma2 > 0 else 0.0
    h = float(np.sqrt(np.max(sum_p4 / np.maximum(sum_p2, 1e-300))))

    _, (sum_snorm,) = map_trials(partial(_block_snorms, prob, partition, mean_bs, s),
                                 draw, n_mc, seed)
    block_snorm = sum_snorm / n_mc
    norm_factor = partition.a_max ** (s / 2.0)
    block_moment = float(np.sum(block_snorm / norm_factor) / partition.m)

    return NoiseSpectrum(
        partition=partition, d_x=prob.d_x, d_y=prob.d_y,
        sigma_blocks=sigma_blocks, sigma_agg=sigma_agg,
        sigma2=float(sigma2), effective_dim=float(eff),
        moment_s=float(s), block_moment_s=block_moment,
        block_snorm_moments=block_snorm, h=h, n_mc=n_mc,
        mean_walk_norm=float(np.linalg.norm(sum_walk / n_mc)),
    )


def _noise_sum(prob: RegressionProblem, traj):
    v, _ = noise_walk(traj, prob)
    return v.reshape(len(v), -1).sum(axis=0), ()


def clt_variance(spec: ProcessSpec, prob: RegressionProblem, block_lens,
                 n_mc: int, seed: int) -> dict[int, np.ndarray]:
    """Per block length L: the normalized covariance of the vectorized sum of
    the centered noise variables over a single length-L stretch, i.e. the
    finite-L approximation of the limiting noise covariance."""
    block_lens = [int(v) for v in block_lens]
    if not block_lens:
        raise ValueError("need at least one block length")
    _require_trials(n_mc, 2)
    out = {}
    for length in block_lens:
        sums, _ = map_trials(partial(_noise_sum, prob), partial(draw_process, spec, length),
                             n_mc, seed, length)
        centered = sums - sums.mean(axis=0)
        out[length] = symmetrize(centered.T @ centered / n_mc / length)
    return out


# ---------------------------------------------------------------------------
# Normalized mean-norm ratio r
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class REstimate:
    r: float
    sqrt_r: float
    stderr_sqrt_r: float
    lambda_odd: float
    lambda_even: float
    degenerate: bool = False


def _parity_sums(prob, partition, traj):
    """Odd and even block-sum totals per trial; block sums and their outer
    products as totals."""
    bs, _ = _walk_block_sums(prob, partition, traj)
    return (np.stack([bs[0::2].sum(axis=0), bs[1::2].sum(axis=0)]),
            (bs, np.einsum("bi,bj->bij", bs, bs)))


def estimate_r(spec: ProcessSpec, prob: RegressionProblem,
               partition: BlockPartition, n_mc: int, seed: int) -> REstimate:
    """Monte Carlo estimate of the squared normalized mean-norm ratio of the
    decoupled noise walk: max over odd/even of
    E||sum of centered noise over the union / sqrt(union size)|| / sqrt(Lambda).
    """
    _require_trials(n_mc, MIN_MC_TRIALS)
    sgn_sums, (sum_bs, sum_outer) = map_trials(
        partial(_parity_sums, prob, partition), partial(draw_decoupled, spec, partition),
        n_mc, seed)
    mean_bs = sum_bs / n_mc
    sigma_blocks = sum_outer / n_mc - np.einsum("bi,bj->bij", mean_bs, mean_bs)

    sizes = (len(partition.odd_union), len(partition.even_union))
    lambdas = []
    ratios, stderrs = [], []
    for side, size in enumerate(sizes):
        blocks = sigma_blocks[side::2]
        lam = opnorm_psd(symmetrize(blocks.sum(axis=0))) / size
        lambdas.append(lam)
        centered = sgn_sums[:, side, :] - sgn_sums[:, side, :].mean(axis=0)
        norms = np.linalg.norm(centered, axis=1) / math.sqrt(size)
        mean_norm = norms.mean()
        se_norm = norms.std(ddof=1) / math.sqrt(n_mc)
        if lam <= 0:
            ratios.append(0.0)
            stderrs.append(0.0)
        else:
            ratios.append(mean_norm / math.sqrt(lam))
            stderrs.append(se_norm / math.sqrt(lam))
    sqrt_r = max(ratios)
    which = int(np.argmax(ratios))
    degenerate = max(lambdas) <= 0
    return REstimate(r=sqrt_r**2, sqrt_r=sqrt_r, stderr_sqrt_r=stderrs[which],
                     lambda_odd=lambdas[0], lambda_even=lambdas[1],
                     degenerate=degenerate)


# ---------------------------------------------------------------------------
# Main bound and friends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniversalConstants:
    """Unpinned bound constants; defaults are engineering choices recorded
    in every report.  c1 multiplies the bound, c2/c3 gate the sample-size and
    moment burn-ins, c4/c5 the odd-even balance, c6 the mixing budget, and
    c_lower the lower-tail sample requirement."""

    c1: float = 2.0
    c2: float = 20.0
    c3: float = 20.0
    c4: float = 2.0
    c5: float = 2.0
    c6: float = 1.0
    c_lower: float = 20.0

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4", "c5", "c6", "c_lower"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_CONSTANTS = UniversalConstants()


@dataclass(frozen=True)
class BurninCheck:
    name: str
    value: float
    threshold: float
    holds: bool
    note: str = ""

    def __str__(self):
        status = "PASS" if self.holds else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        return f"{status} {self.name}: value {self.value:.6g} vs threshold {self.threshold:.6g}{extra}"


@dataclass(frozen=True, eq=False)
class BoundReport:
    bound_value: float
    checks: tuple[BurninCheck, ...]
    mixing_sum: float
    constants: UniversalConstants

    @property
    def all_pass(self) -> bool:
        return all(c.holds for c in self.checks)

    def check(self, name: str) -> BurninCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_text(self) -> str:
        lines = [f"bound_value {self.bound_value:.10g}",
                 f"mixing_sum {self.mixing_sum:.10g}",
                 f"constants {self.constants}"]
        lines += [str(c) for c in self.checks]
        lines.append(f"all burn-ins {'PASS' if self.all_pass else 'FAIL'}")
        return "\n".join(lines)

    def csv_header(self) -> str:
        cols = ["bound_value", "mixing_sum"]
        for c in self.checks:
            cols += [f"{c.name}_value", f"{c.name}_threshold", f"{c.name}_holds"]
        return ",".join(cols)

    def csv_row(self) -> tuple:
        """The cells under `csv_header`, for `write_csv` to format."""
        cols = [self.bound_value, self.mixing_sum]
        for c in self.checks:
            cols += [c.value, c.threshold, c.holds]
        return tuple(cols)


def _shared_burnins(ratio_n: float, d_x: int, h: float, s: float, block_moment: float,
                    noise_scale: float, mix: float, delta: float,
                    c: UniversalConstants, mix_note: str = "") -> tuple[BurninCheck, ...]:
    """Sample-size, block-moment and mixing-budget burn-ins, shared by both
    bound forms.  ratio_n is n over the block length; the block moment is
    compared against noise_scale, and a zero scale passes only a zero
    moment."""
    log_term = math.log(1.0 / delta)
    thr_n = c.c2 * (d_x + h**2 * log_term)
    lhs_moment = ratio_n ** (1.0 - 2.0 / s)
    denom = noise_scale * delta ** (2.0 / s)
    if denom > 0:
        thr_moment = c.c3 * s**2 * block_moment ** (2.0 / s) / denom
    else:
        thr_moment = 0.0 if block_moment == 0 else math.inf
    return (BurninCheck("sample_size", ratio_n, thr_n, ratio_n >= thr_n),
            BurninCheck("block_moment", lhs_moment, thr_moment, lhs_moment >= thr_moment),
            BurninCheck("mixing", mix, c.c6 * delta, mix <= c.c6 * delta, note=mix_note))


def main_bound(spectrum: NoiseSpectrum, n: int, delta: float,
               constants: UniversalConstants | None = None,
               profile: MixingProfile | None = None) -> BoundReport:
    """Evaluate the excess-risk bound c1 sigma^2 (edim + log(1/delta)) / n and
    all five burn-in predicates; a report is always produced, with failed
    predicates marked rather than raised."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    c = constants or DEFAULT_CONSTANTS
    part = spectrum.partition
    log_term = math.log(1.0 / delta)
    bound = c.c1 * spectrum.sigma2 * (spectrum.effective_dim + log_term) / n

    mix = float("nan") if profile is None else mixing_sum(profile, part)
    check_1a, check_1b, check_3 = _shared_burnins(
        n / part.a_max, spectrum.d_x, spectrum.h, spectrum.moment_s,
        spectrum.block_moment_s, spectrum.effective_dim * spectrum.sigma2, mix, delta, c,
        mix_note="no mixing profile supplied" if profile is None else "")

    odd_len = sum(part.lengths[0::2])
    even_len = sum(part.lengths[1::2])
    len_ratio = even_len / odd_len
    ok_2a = 1.0 / c.c4 < len_ratio < c.c4
    check_2a = BurninCheck("length_balance", len_ratio, c.c4, ok_2a,
                           note=f"must lie in (1/{c.c4:g}, {c.c4:g})")

    odd_sum, even_sum = spectrum.odd_even_sums()
    tol = 1e-8 * max(np.trace(odd_sum), np.trace(even_sum), 1e-300)
    margin = min(min_eig(c.c5 * odd_sum - even_sum),
                 min_eig(c.c5 * even_sum - odd_sum))
    check_2b = BurninCheck("spectrum_balance", margin, -tol, margin >= -tol,
                           note="min eigenvalue of the two-sided PSD comparison")

    return BoundReport(bound_value=float(bound),
                       checks=(check_1a, check_1b, check_2a, check_2b, check_3),
                       mixing_sum=mix, constants=c)


def corollary_bound(tau: int, n: int, d_x: int, sigma2: float, h: float,
                    s: float, block_moment: float, profile: MixingProfile,
                    delta: float,
                    constants: UniversalConstants | None = None) -> BoundReport:
    """Stationary one-dimensional-target form with uniform block length tau
    (2 tau must divide n): bound c1 sigma^2 (d_x + log(1/delta)) / n with
    three burn-ins.  block_moment is E||(tau d_x)^{-1/2} sum of tau centered
    noise variables||^s; the mixing budget reuses the c6 constant."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if tau < 1 or n % (2 * tau) != 0:
        raise ValueError("2 tau must divide n")
    c = constants or DEFAULT_CONSTANTS
    log_term = math.log(1.0 / delta)
    bound = c.c1 * sigma2 * (d_x + log_term) / n

    ratio_n = n / tau
    mix = ratio_n * profile.beta(tau)
    checks = _shared_burnins(ratio_n, d_x, h, s, block_moment, sigma2, mix, delta, c)
    return BoundReport(bound_value=float(bound), checks=checks,
                       mixing_sum=float(mix), constants=c)


@dataclass(frozen=True)
class LowerTailReport:
    sample_check: BurninCheck
    mixing_check: BurninCheck
    required_n: float

    @property
    def certified(self) -> bool:
        return self.sample_check.holds and self.mixing_check.holds

    def to_text(self) -> str:
        head = "certified" if self.certified else "not certified"
        return "\n".join([
            f"lower uniform law {head} at the requested confidence",
            str(self.sample_check), str(self.mixing_check),
            f"required_n {self.required_n:.6g}",
        ])


def lower_tail_certificate(n: int, partition: BlockPartition, d_x: int,
                           h: float, delta: float, profile: MixingProfile,
                           c_lower: float | None = None) -> LowerTailReport:
    """Check the two prerequisites under which every directional empirical
    second moment stays above half its population value with probability
    1 - delta.  The mixing condition is evaluated with the supplied profile
    (a joint-process profile is a valid, conservative stand-in for the
    covariate-only coefficients)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    c = DEFAULT_CONSTANTS.c_lower if c_lower is None else float(c_lower)
    required = c * partition.a_max * (d_x + h**2 * math.log(1.0 / delta))
    sample_check = BurninCheck("sample_size", float(n), required, n >= required)
    mix = mixing_sum(profile, partition)
    mixing_check = BurninCheck("mixing", mix, delta / 2.0, mix <= delta / 2.0)
    return LowerTailReport(sample_check=sample_check, mixing_check=mixing_check,
                           required_n=required)


# ---------------------------------------------------------------------------
# Truncation and comparison checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationCheck:
    lhs: float
    rhs: float
    stderr: float
    h: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 3.0 * self.stderr


def _truncated_mass(start, stop, v, tau, traj):
    """Directional mass of one block, raw and truncated at tau, per trial;
    the fourth powers of the projections as a total."""
    proj = traj.xs[start:stop] @ v
    p2 = proj * proj
    raw = p2.sum()
    kept = raw if raw / (stop - start) <= tau * tau else 0.0
    return (raw, kept), ((p2 * p2).sum(),)


def truncation_mass_check(spec: ProcessSpec, prob: RegressionProblem,
                          block: tuple[int, int], direction, tau: float,
                          n_mc: int, seed: int) -> TruncationCheck:
    """Monte Carlo check that truncating a block at level tau preserves the
    stated fraction of directional second-moment mass:

        (1 - h^2/tau^2) E[sum <v, X_i>^2]  <=  sum E[<v, X_i>^2 1{block mean
        of squares <= tau^2}].

    The direction is normalized onto v' Sigma_X v = 1 and h is estimated
    along that direction from the same sample.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    start, stop = block
    if not 0 <= start < stop:
        raise ValueError("invalid block range")
    _require_trials(n_mc, 2)
    v = np.asarray(direction, dtype=float)
    mass = float(v @ prob.sigma_x @ v)
    if not mass > 0:
        raise ValueError(f"direction must have v' Sigma_X v > 0, got {mass}")
    v = v / math.sqrt(mass)
    samples, (sum_p4,) = map_trials(partial(_truncated_mass, start, stop, v, tau),
                                    partial(draw_process, spec, stop), n_mc, seed)
    raw, kept = samples[:, 0], samples[:, 1]
    h2 = sum_p4 / max(raw.sum(), 1e-300)
    factor = 1.0 - h2 / (tau * tau)
    lhs_samples = factor * raw
    diff = kept - lhs_samples
    stderr = float(diff.std(ddof=1) / math.sqrt(n_mc))
    return TruncationCheck(lhs=float(lhs_samples.mean()), rhs=float(kept.mean()),
                           stderr=stderr, h=float(math.sqrt(h2)))


def cs_comparison(spectrum: NoiseSpectrum, per_sample_var: float) -> tuple[float, float]:
    """Scalar comparison of the block noise level sigma^2 against its
    Cauchy-Schwarz inflation max|a_i| * max_i E Vbar_i^2; the first never
    exceeds the second (up to Monte Carlo error), with equality for
    block-constant processes aligned with the partition."""
    if spectrum.d_x != 1 or spectrum.d_y != 1:
        raise ValueError("comparison is defined for scalar covariates and targets")
    inflated = spectrum.partition.a_max * float(per_sample_var)
    return spectrum.sigma2, inflated


def _noise_moments(prob: RegressionProblem, traj):
    flat = noise_walk(traj, prob)[0].reshape(-1)
    return (), (flat, flat * flat)


def max_per_sample_variance(spec: ProcessSpec, prob: RegressionProblem,
                            n: int, n_mc: int, seed: int) -> float:
    """Largest per-time variance of the centered scalar noise variable,
    estimated across trials."""
    if prob.d_x != 1 or prob.d_y != 1:
        raise ValueError("defined for scalar covariates and targets")
    _require_trials(n_mc, 2)
    _, (sum_v, sum_v2) = map_trials(partial(_noise_moments, prob),
                                    partial(draw_process, spec, n), n_mc, seed)
    mean = sum_v / n_mc
    var = sum_v2 / n_mc - mean * mean
    return float(var.max())
