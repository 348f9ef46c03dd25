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
from functools import cached_property, partial

import numpy as np

from .blocking import BlockPartition, block_sums
from .linalg import min_eig, opnorm_psd, symmetrize
from .mixing import MixingProfile, mixing_sum
from .parallel import draw_decoupled, draw_process, map_trials
from .processes import ProcessSpec
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
    confidence 1 - delta: 2 sqrt(var log(1/d) / n) + 4 b log(1/d) / (3n),
    the blocked threshold with blocks of one sample."""
    return blocked_bernstein_threshold(n, 1, var, b, delta)


def blocked_bernstein_threshold(n: int, k: int, blockvar: float, b: float,
                                delta: float) -> float:
    """Blocked variant: variables are summed over length-k blocks, so the
    large-deviations term is inflated by k while the leading term keeps the
    per-block normalized variance blockvar = E(block sum)^2 / k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n % k != 0:
        raise ValueError(f"block length {k} must divide n = {n}")
    if not (0.0 <= blockvar < math.inf and 0.0 < b < math.inf):
        raise ValueError("need a finite variance >= 0 and a finite b > 0")
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
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    out = np.minimum(np.square(np.asarray(u, dtype=float)), tau * tau)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Fuk-Nagaev machinery
# ---------------------------------------------------------------------------

def fuk_nagaev_constant(eps: float, eta: float, s: float) -> float:
    """Constant multiplying the polynomial tail:
    1 + (2s/e)^{2s} (2 (1 + 2/eps)(3 + 4/eta))^2 + eps^{-s}."""
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if not 2.0 < s < math.inf:
        raise ValueError("s must exceed 2 and be finite")
    poly = (2.0 * s / math.e) ** (2.0 * s)
    bracket = (2.0 * (1.0 + 2.0 / eps) * (3.0 + 4.0 / eta)) ** 2
    return 1.0 + poly * bracket + eps ** (-s)


def fuk_nagaev_tail(lam: float, moments_s, t: float, eps: float, eta: float,
                    s: float) -> float:
    """Right-hand side of the mixed tail for norms of sums of independent
    vectors: exp(-t^2 / ((2+eta) lam)) + C sum_i E||U_i||^s / t^s."""
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if not 0.0 < lam < math.inf:
        raise ValueError("weak variance must be positive and finite")
    c = fuk_nagaev_constant(eps, eta, s)
    poly = c * float(np.sum(np.asarray(moments_s, dtype=float))) / t**s
    return math.exp(-t * t / ((2.0 + eta) * lam)) + poly


# ---------------------------------------------------------------------------
# Noise spectrum estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NoiseSpectrum:
    """Second-order statistics of the whitened noise walk over a partition.

    Estimated by Monte Carlo: sigma_odd and sigma_even, the odd-block and
    even-block sums of the covariance of the vectorized centered block sum,
    and block_snorm_moments, the per-block s-th moments of its norm.
    Computed by the process kind: h, the fourth-moment constant of the
    covariates (see `ProcessSpec.fourth_moment_constant`).
    Derived: sigma_agg = (sigma_odd + sigma_even) / n, its operator norm
    sigma2 and trace ratio effective_dim, and block_moment_s = (sum of the 2m
    block_snorm_moments) / (m a_max^(s/2)), which enters the moment burn-in.
    Centering uses the Monte Carlo mean (bias O(1/n_mc)).
    """

    partition: BlockPartition
    d_x: int
    d_y: int
    sigma_odd: np.ndarray             # (D, D) with D = d_x * d_y
    sigma_even: np.ndarray            # (D, D)
    moment_s: float
    block_snorm_moments: np.ndarray   # (2m,)
    h: float

    @cached_property
    def sigma_agg(self) -> np.ndarray:
        return symmetrize((self.sigma_odd + self.sigma_even) / self.partition.n)

    @cached_property
    def sigma2(self) -> float:
        return opnorm_psd(self.sigma_agg)

    @cached_property
    def effective_dim(self) -> float:
        # A fully noiseless problem has an empty spectrum; report dimension 0
        # rather than 0/0 so the bound degrades to 0.
        return edim(self.sigma_agg) if self.sigma2 > 0 else 0.0

    @cached_property
    def block_moment_s(self) -> float:
        norm_factor = self.partition.a_max ** (self.moment_s / 2.0)
        return float(np.sum(self.block_snorm_moments / norm_factor) / self.partition.m)


def _walk_block_sums(prob: RegressionProblem, partition: BlockPartition, traj):
    return block_sums(noise_walk(traj, prob).reshape(partition.n, -1), partition)


def _parity_outer(bs: np.ndarray) -> np.ndarray:
    """Odd-block and even-block sums of the block-sum outer products,
    shape (2, D, D)."""
    odd, even = bs[0::2], bs[1::2]
    return np.stack([odd.T @ odd, even.T @ even])


def _block_totals(prob, partition, traj):
    """Block sums and their outer products summed by parity, as totals."""
    bs = _walk_block_sums(prob, partition, traj)
    return (), (bs, _parity_outer(bs))


def _block_snorms(prob, partition, mean_bs, s, traj):
    """Pass-2 statistic: s-th powers of the centered block-sum norms."""
    bs = _walk_block_sums(prob, partition, traj) - mean_bs
    return (), (np.einsum("ij,ij->i", bs, bs) ** (s / 2.0),)


def _parity_covariances(sum_bs, sum_parity_outer, n_mc: int):
    """Per-block means, and the odd-block and even-block sums of the per-block
    covariances, from Monte Carlo totals of the block sums, shape (2m, D),
    and of their outer products summed by parity, shape (2, D, D).  The sum
    over blocks b of parity p of E[b b'] - mu_b mu_b' is the parity total
    over n_mc minus M_p' M_p, where M_p stacks the block means mu_b."""
    mean_bs = sum_bs / n_mc
    cov = sum_parity_outer / n_mc - _parity_outer(mean_bs)
    return mean_bs, symmetrize(cov[0]), symmetrize(cov[1])


def noise_spectrum(spec: ProcessSpec, prob: RegressionProblem,
                   partition: BlockPartition, n_mc: int, seed: int,
                   s: float = 4.0) -> NoiseSpectrum:
    """Block noise spectrum over the partition: the odd and even block
    covariance sums and the s-th block moments, estimated by Monte Carlo
    over n_mc independent trajectories in two passes (the first gives the
    block means that the second centers on), and the fourth-moment
    constant h, computed by the process kind from prob.sigma_x without
    simulation (see `ProcessSpec.fourth_moment_constant`).  Its derived
    numbers are computed from these on first read."""
    _require_trials(n_mc, MIN_MC_TRIALS)
    if s < 2:
        raise ValueError("s must be >= 2")
    h = spec.fourth_moment_constant(prob.sigma_x, partition.n, seed)
    draw = partial(draw_process, spec, partition.n)
    _, (sum_bs, sum_parity_outer) = map_trials(
        partial(_block_totals, prob, partition), draw, n_mc, seed)
    mean_bs, sigma_odd, sigma_even = _parity_covariances(sum_bs, sum_parity_outer, n_mc)

    _, (sum_snorm,) = map_trials(partial(_block_snorms, prob, partition, mean_bs, s),
                                 draw, n_mc, seed)
    return NoiseSpectrum(
        partition=partition, d_x=prob.d_x, d_y=prob.d_y,
        sigma_odd=sigma_odd, sigma_even=sigma_even, moment_s=float(s),
        block_snorm_moments=sum_snorm / n_mc, h=h,
    )


def _noise_prefix_sums(prob: RegressionProblem, block_lens, traj):
    v = noise_walk(traj, prob)
    return np.cumsum(v.reshape(len(v), -1), axis=0)[np.asarray(block_lens) - 1], ()


def clt_variance(spec: ProcessSpec, prob: RegressionProblem, block_lens,
                 n_mc: int, seed: int) -> dict[int, np.ndarray]:
    """Per block length L: the normalized covariance of the vectorized sum of
    the centered noise variables over a single length-L stretch, i.e. the
    finite-L approximation of the limiting noise covariance.  Every L is read
    from the prefix of one longest draw per trial, which is exact because
    draws are causal from time zero: the first L samples of a longer draw
    have the law of a length-L draw."""
    block_lens = [int(v) for v in block_lens]
    if not block_lens or min(block_lens) < 1:
        raise ValueError(f"need block lengths >= 1, got {block_lens}")
    _require_trials(n_mc, 2)
    sums, _ = map_trials(partial(_noise_prefix_sums, prob, block_lens),
                         partial(draw_process, spec, max(block_lens)), n_mc, seed)
    centered = sums - sums.mean(axis=0)
    return {length: symmetrize(c.T @ c / n_mc / length)
            for length, c in zip(block_lens, centered.transpose(1, 0, 2))}


# ---------------------------------------------------------------------------
# Normalized mean-norm ratio r
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class REstimate:
    partition: BlockPartition
    r: float
    stderr_sqrt_r: float
    lambda_odd: float
    lambda_even: float

    @property
    def degenerate(self) -> bool:
        return max(self.lambda_odd, self.lambda_even) <= 0


def _parity_sums(prob, partition, traj):
    """Odd and even block-sum totals per trial, and the `_block_totals`."""
    _, totals = _block_totals(prob, partition, traj)
    bs = totals[0]
    return np.stack([bs[0::2].sum(axis=0), bs[1::2].sum(axis=0)]), totals


def estimate_r(spec: ProcessSpec, prob: RegressionProblem,
               partition: BlockPartition, n_mc: int, seed: int) -> REstimate:
    """Monte Carlo estimate of the squared normalized mean-norm ratio of the
    decoupled noise walk: max over odd/even of
    E||sum of centered noise over the union / sqrt(union size)|| / sqrt(Lambda).
    """
    _require_trials(n_mc, MIN_MC_TRIALS)
    sgn_sums, (sum_bs, sum_parity_outer) = map_trials(
        partial(_parity_sums, prob, partition), partial(draw_decoupled, spec, partition),
        n_mc, seed)
    _, sigma_odd, sigma_even = _parity_covariances(sum_bs, sum_parity_outer, n_mc)

    lambdas, ratios, stderrs = [], [], []
    for side, (cov, size) in enumerate(zip((sigma_odd, sigma_even), partition.parity_sizes)):
        lam = opnorm_psd(cov) / size
        centered = sgn_sums[:, side, :] - sgn_sums[:, side, :].mean(axis=0)
        norms = np.linalg.norm(centered, axis=1) / math.sqrt(size)
        root = math.sqrt(lam) if lam > 0 else math.inf  # a zero variance gives ratio 0
        lambdas.append(lam)
        ratios.append(norms.mean() / root)
        stderrs.append(norms.std(ddof=1) / math.sqrt(n_mc) / root)
    which = int(np.argmax(ratios))
    return REstimate(partition=partition, r=ratios[which]**2, stderr_sqrt_r=stderrs[which],
                     lambda_odd=lambdas[0], lambda_even=lambdas[1])


def noise_term_threshold(r_est: REstimate, eps: float, eta: float, delta: float) -> float:
    """Deviation threshold for the mean of a mean-zero mixing process:
    worst of the odd/even scales sqrt(Lambda / size) over r_est's partition
    times ((1+2 eta) sqrt(r) + (1+9 eps) sqrt((2+eta) log(1/delta)))."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if not (0.0 < eps < math.inf and 0.0 < eta <= 1.0):
        raise ValueError("need a finite eps > 0 and eta in (0, 1]")
    body = (1.0 + 2.0 * eta) * math.sqrt(r_est.r) \
        + (1.0 + 9.0 * eps) * math.sqrt((2.0 + eta) * math.log(1.0 / delta))
    size_odd, size_even = r_est.partition.parity_sizes
    scale = max(math.sqrt(r_est.lambda_odd / size_odd), math.sqrt(r_est.lambda_even / size_even))
    return scale * body


def noise_term_failure_budget(r_est: REstimate, spectrum: NoiseSpectrum, profile: MixingProfile,
                              eps: float, eta: float, delta: float) -> float:
    """Total failure probability charged by the dependent random-walk tail
    over r_est's partition: 2 delta + the interior mixing sum on the profile
    + the polynomial Fuk-Nagaev remainder, from r_est's r and weak variances
    and the spectrum's s-th block moments.  A parity with zero moments adds
    nothing; any other makes the budget inf if r or its variance is zero.
    At the default constants, fuk_nagaev_constant(0.1, 0.1, 4) = 1.836e10 puts
    it far above 1 (1.56e15 on the noise-walk-ar bench): `exceedance <= budget`
    cannot fail there, by the constants and not by simulation."""
    part = r_est.partition
    if spectrum.partition != part:
        raise ValueError("r_est and the spectrum must share a partition")
    s = spectrum.moment_s
    c = fuk_nagaev_constant(eps, eta, s)
    poly = 0.0
    for parity, lam in enumerate((r_est.lambda_odd, r_est.lambda_even)):
        msum = float(np.sum(spectrum.block_snorm_moments[parity::2]))
        if msum == 0.0:
            continue
        if lam <= 0 or r_est.r <= 0:
            return math.inf
        poly += msum / (part.parity_sizes[parity] ** (s / 2.0) * lam ** (s / 2.0))
    if poly > 0.0:
        poly *= c * (1.0 + 9.0 * eps) ** s / (r_est.r ** (s / 2.0) * eta**s)
    return 2.0 * delta + mixing_sum(profile, part) + poly


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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


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
                    c: UniversalConstants) -> tuple[BurninCheck, ...]:
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
            BurninCheck("mixing", mix, c.c6 * delta, mix <= c.c6 * delta))


def main_bound(spectrum: NoiseSpectrum, delta: float, profile: MixingProfile,
               constants: UniversalConstants | None = None) -> BoundReport:
    """Evaluate the excess-risk bound c1 sigma^2 (edim + log(1/delta)) / n and
    all five burn-in predicates, with n the size of the spectrum's partition
    and mixing on the given profile; a report is always produced, with failed
    predicates marked rather than raised."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    c = constants or DEFAULT_CONSTANTS
    part = spectrum.partition
    n = part.n
    log_term = math.log(1.0 / delta)
    bound = c.c1 * spectrum.sigma2 * (spectrum.effective_dim + log_term) / n

    mix = mixing_sum(profile, part)
    check_1a, check_1b, check_3 = _shared_burnins(
        n / part.a_max, spectrum.d_x, spectrum.h, spectrum.moment_s,
        spectrum.block_moment_s, spectrum.effective_dim * spectrum.sigma2, mix, delta, c)

    len_ratio = part.parity_sizes[1] / part.parity_sizes[0]
    check_2a = BurninCheck("length_balance", len_ratio, c.c4, 1.0 / c.c4 < len_ratio < c.c4,
                           note=f"must lie in (1/{c.c4:g}, {c.c4:g})")

    odd, even = spectrum.sigma_odd, spectrum.sigma_even
    tol = 1e-8 * max(np.trace(odd), np.trace(even), 1e-300)
    margin = min(min_eig(c.c5 * odd - even), min_eig(c.c5 * even - odd))
    check_2b = BurninCheck("spectrum_balance", margin, -tol, margin >= -tol,
                           note="min eigenvalue of the two-sided PSD comparison")

    return BoundReport(bound_value=float(bound),
                       checks=(check_1a, check_1b, check_2a, check_2b, check_3),
                       mixing_sum=mix, constants=c)


def corollary_block_length(partition: BlockPartition) -> int:
    """The block length tau of the corollary form, which needs a partition of
    equal blocks; unequal blocks raise a ValueError naming their lengths.
    The rule reads only the partition, so callers can check it before
    estimating a spectrum."""
    lengths = sorted(set(partition.lengths))
    if len(lengths) > 1:
        raise ValueError(f"the corollary form needs equal block lengths, got {lengths}")
    return lengths[0]


def corollary_bound(spectrum: NoiseSpectrum, delta: float, profile: MixingProfile,
                    constants: UniversalConstants | None = None) -> BoundReport:
    """Stationary one-dimensional-target form over a partition of equal
    blocks of length tau: bound c1 sigma^2 (d_x + log(1/delta)) / n with
    three burn-ins.  The block moment, (mean of the 2m block_snorm_moments) /
    (tau d_x)^(s/2), is the mean over blocks of E||(tau d_x)^{-1/2} sum of tau
    centered noise variables||^s; the mixing budget (n / tau) beta(tau)
    reuses the c6 constant."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    tau = corollary_block_length(spectrum.partition)
    c = constants or DEFAULT_CONSTANTS
    n, d_x, s = spectrum.partition.n, spectrum.d_x, spectrum.moment_s
    log_term = math.log(1.0 / delta)
    bound = c.c1 * spectrum.sigma2 * (d_x + log_term) / n

    block_moment = float(np.mean(spectrum.block_snorm_moments)) / (tau * d_x) ** (s / 2.0)
    ratio_n = n / tau
    mix = ratio_n * profile.beta_sum((tau,))
    checks = _shared_burnins(ratio_n, d_x, spectrum.h, s, block_moment, spectrum.sigma2,
                             mix, delta, c)
    return BoundReport(bound_value=float(bound), checks=checks,
                       mixing_sum=float(mix), constants=c)


# Config name ([partition] form) -> evaluator of that bound form.
BOUND_FORMS = {"main": main_bound, "corollary": corollary_bound}


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


def lower_tail_certificate(partition: BlockPartition, d_x: int, h: float, delta: float,
                           profile: MixingProfile,
                           constants: UniversalConstants | None = None) -> LowerTailReport:
    """Check the two prerequisites under which every directional empirical
    second moment over the partition's n samples of a d_x-dimensional
    covariate with fourth-moment constant h stays above half its population
    value with probability 1 - delta: n against
    c_lower a_max (d_x + h^2 log(1/delta)), and the mixing sum over the
    partition against delta / 2.  The mixing condition is evaluated with the
    supplied profile (a joint-process profile is a valid, conservative
    stand-in for the covariate-only coefficients)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    c = constants or DEFAULT_CONSTANTS
    required = c.c_lower * partition.a_max * (d_x + h**2 * math.log(1.0 / delta))
    sample_check = BurninCheck("sample_size", float(partition.n), required,
                               partition.n >= required)
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
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
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
    flat = noise_walk(traj, prob).reshape(-1)
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
