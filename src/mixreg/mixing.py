"""beta-mixing coefficients: exact values for finite Markov chains, KL/Pinsker
bounds for Gaussian AR processes, and the mixing sums entering burn-in
conditions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .csvfile import write_csv
from .processes import (
    ROW_SUM_TOL,
    FiniteMarkov,
    GaussianAR,
    ProcessSpec,
    companion,
    gramian,
    stationary_distribution,
    stationary_state_covariance,
)

if TYPE_CHECKING:
    from .blocking import BlockPartition

EXACT_MARKOV = "exact_markov"
GAUSSIAN_KL_BOUND = "gaussian_kl_bound"
USER_SUPPLIED = "user_supplied"


@dataclass(frozen=True, eq=False)
class MixingProfile:
    """Map from time gap to a beta-mixing coefficient (or upper bound).

    Coefficients always lie in [0, 1].  Monotonicity in the gap is *not*
    enforced: `is_nonincreasing` reports it so callers can decide.
    """

    coefficients: dict[int, float] = field(default_factory=dict)
    method: str = USER_SUPPLIED

    def __post_init__(self):
        coeffs = {int(g): float(b) for g, b in self.coefficients.items()}
        for g, b in coeffs.items():
            if g < 1:
                raise ValueError(f"gaps must be >= 1, got {g}")
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"beta({g}) = {b} outside [0, 1]")
        object.__setattr__(self, "coefficients", coeffs)

    def beta(self, gap: int) -> float:
        try:
            return self.coefficients[int(gap)]
        except KeyError:
            raise ValueError(f"profile has no coefficient for gap {gap}") from None

    def is_nonincreasing(self) -> bool:
        gaps = sorted(self.coefficients)
        vals = [self.coefficients[g] for g in gaps]
        return all(b >= a for b, a in zip(vals, vals[1:]))

    def to_csv(self, path) -> None:
        write_csv(path, "gap,beta", sorted(self.coefficients.items()))

    @classmethod
    def from_csv(cls, path) -> "MixingProfile":
        coeffs = {}
        with open(path) as fh:
            header = fh.readline()
            if header.strip().lower() not in ("gap,beta", ""):
                raise ValueError(f"unexpected header {header!r}")
            for line in fh:
                if not line.strip():
                    continue
                g, b = line.split(",")
                coeffs[int(g)] = float(b)
        return cls(coefficients=coeffs, method=USER_SUPPLIED)


def iid_profile(gaps) -> MixingProfile:
    return MixingProfile({int(g): 0.0 for g in gaps}, method=USER_SUPPLIED)


# ---------------------------------------------------------------------------
# Exact Markov coefficients
# ---------------------------------------------------------------------------

def beta_markov_exact(transition: np.ndarray, gap: int) -> float:
    """Expected total-variation distance between the gap-step conditional law
    and the stationary law, for the chain started at stationarity.

    Conditioning on the full past reduces to conditioning on the current
    state by the Markov property.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    p = np.asarray(transition, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("transition must be a square matrix")
    if (p < 0).any() or np.abs(p.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        raise ValueError("transition must be row-stochastic")
    pi = stationary_distribution(p)
    p_gap = np.linalg.matrix_power(p, gap)
    tv_per_state = 0.5 * np.abs(p_gap - pi[None, :]).sum(axis=1)
    return float(pi @ tv_per_state)


def markov_profile(spec: FiniteMarkov, gaps) -> MixingProfile:
    coeffs = {int(g): beta_markov_exact(spec.transition, int(g)) for g in gaps}
    return MixingProfile(coeffs, method=EXACT_MARKOV)


# ---------------------------------------------------------------------------
# Gaussian AR bounds
# ---------------------------------------------------------------------------

def kl_gaussian_1d(mu1: float, var1: float, mu2: float, var2: float) -> float:
    """KL(N(mu1, var1) || N(mu2, var2)) for scalar Gaussians."""
    if var1 <= 0 or var2 <= 0:
        raise ValueError("variances must be positive")
    return float(0.5 * np.log(var2 / var1) + 0.5 * (var1 / var2 - 1.0)
                 + (mu1 - mu2) ** 2 / (2.0 * var2))


def expected_kl_ar(spec: GaussianAR, t: int | None, k: int) -> float:
    """Upper bound on the expected KL divergence between the law of the output
    k steps ahead given the state at time t and its marginal law.

    The bound is e1' A^k S_{t+1} (A^k)' e1 with S the unit-noise state
    covariance at time t+1; the innovation variance cancels between the
    numerators and the (>= noise variance) denominators.  t=None takes the
    stationary limit, which dominates every finite t for the zero-initialized
    process.
    """
    if t is not None and t < 0:
        raise ValueError("t must be >= 0")
    ss = companion(spec.ar_coeffs)
    if t is None:
        state_cov = stationary_state_covariance(spec) / spec.noise_std**2
    else:
        state_cov = gramian(ss, t + 1)
    return _expected_kl(ss, state_cov, k)


def _expected_kl(ss, state_cov: np.ndarray, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    a_k = np.linalg.matrix_power(ss.transition, k)
    return float((a_k @ state_cov @ a_k.T)[0, 0])


def _pinsker_beta(kl: float) -> float:
    return float(min(1.0, np.sqrt(kl / 2.0)))


def beta_ar_kl_bound(spec: GaussianAR, t: int | None, k: int) -> float:
    """beta-coefficient bound at gap k via Pinsker and Jensen:

        E TV <= E sqrt(KL/2) <= sqrt(E KL / 2),

    clipped to [0, 1] since total variation never exceeds 1.
    """
    return _pinsker_beta(expected_kl_ar(spec, t, k))


def gaussian_ar_profile(spec: GaussianAR, gaps) -> MixingProfile:
    """Profile of KL-route bounds in the stationary limit, which dominates
    every conditioning time t of the zero-initialized process.  The
    stationary state covariance is solved once for all gaps."""
    ss = companion(spec.ar_coeffs)
    state_cov = stationary_state_covariance(spec) / spec.noise_std**2
    coeffs = {g: _pinsker_beta(_expected_kl(ss, state_cov, g)) for g in map(int, gaps)}
    return MixingProfile(coeffs, method=GAUSSIAN_KL_BOUND)


def profile_from_spec(spec: ProcessSpec, gaps) -> MixingProfile:
    """Best available profile for a spec: exact for Markov chains and
    block-constant processes, KL bound for Gaussian AR, zero for iid."""
    return spec.mixing_profile([int(g) for g in gaps])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def mixing_sum(profile: MixingProfile, partition: "BlockPartition") -> float:
    """Sum of beta over the interior blocks (all but the first and last), the
    quantity compared against the mixing budget in the burn-in conditions."""
    interior = partition.lengths[1:-1]
    missing = sorted({g for g in interior if g not in profile.coefficients})
    if missing:
        raise ValueError(f"profile missing coefficients for gaps {missing}")
    return float(sum(profile.coefficients[g] for g in interior))
