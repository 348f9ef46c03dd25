"""beta-mixing coefficients: exact values for finite Markov chains, KL/Pinsker
bounds for Gaussian AR processes, and the mixing sums entering burn-in
conditions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .csvfile import write_csv
from .processes import (
    FiniteMarkov,
    GaussianAR,
    ProcessSpec,
    gramian,
    stationary_distribution,
    validate_transition,
)

if TYPE_CHECKING:
    from .blocking import BlockPartition

@dataclass(frozen=True, eq=False)
class MixingProfile:
    """Map from time gap to a beta-mixing coefficient (or upper bound).

    Coefficients always lie in [0, 1].  Monotonicity in the gap is *not*
    enforced: `is_nonincreasing` reports it so callers can decide.
    """

    coefficients: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        coeffs = {int(g): float(b) for g, b in self.coefficients.items()}
        for g, b in coeffs.items():
            if g < 1:
                raise ValueError(f"gaps must be >= 1, got {g}")
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"beta({g}) = {b} outside [0, 1]")
        object.__setattr__(self, "coefficients", coeffs)

    def beta_sum(self, gaps: tuple[int, ...]) -> float:
        """Sum of beta over the gaps, one term per entry; a ValueError names
        every gap the profile has no coefficient for.  The one lookup of
        beta values: `mixing_sum` and the corollary bound's beta(tau) read
        the profile through it.  Over every block length,
        `beta_sum(partition.lengths)` is the all-blocks decoupling budget
        (see `mixing_sum`)."""
        missing = sorted({g for g in gaps if g not in self.coefficients})
        if missing:
            raise ValueError(f"profile missing coefficients for gaps {missing}")
        return float(sum(self.coefficients[g] for g in gaps))

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
        return cls(coefficients=coeffs)


def iid_profile(gaps) -> MixingProfile:
    return MixingProfile({int(g): 0.0 for g in gaps})


# ---------------------------------------------------------------------------
# Exact Markov coefficients
# ---------------------------------------------------------------------------

def beta_markov_exact(transition: np.ndarray, gap: int) -> float:
    """Expected total-variation distance between the gap-step conditional law
    and the stationary law, for the chain started at stationarity.

    Conditioning on the full past reduces to conditioning on the current
    state by the Markov property.
    """
    p = validate_transition(transition)
    return _beta_markov(p, stationary_distribution(p), gap)


def _beta_markov(p: np.ndarray, pi: np.ndarray, gap: int) -> float:
    """`beta_markov_exact` for a validated transition p of stationary law pi."""
    if gap < 1:
        raise ValueError("gap must be >= 1")
    p_gap = np.linalg.matrix_power(p, gap)
    tv_per_state = 0.5 * np.abs(p_gap - pi[None, :]).sum(axis=1)
    return float(pi @ tv_per_state)


def markov_profile(spec: FiniteMarkov, gaps) -> MixingProfile:
    """Exact beta at every gap, from the spec's validated transition and its
    cached stationary law."""
    return MixingProfile({int(g): _beta_markov(spec.transition, spec.stationary, int(g))
                          for g in gaps})


# ---------------------------------------------------------------------------
# Gaussian AR bounds
# ---------------------------------------------------------------------------

def kl_gaussian_1d(mu1: float, var1: float, mu2: float, var2: float) -> float:
    """KL(N(mu1, var1) || N(mu2, var2)) for scalar Gaussians."""
    if not (0.0 < var1 < math.inf and 0.0 < var2 < math.inf):
        raise ValueError("variances must be positive and finite")
    if not (math.isfinite(mu1) and math.isfinite(mu2)):
        raise ValueError("means must be finite")
    return float(0.5 * np.log(var2 / var1) + 0.5 * (var1 / var2 - 1.0)
                 + (mu1 - mu2) ** 2 / (2.0 * var2))


def expected_kl_ar(spec: GaussianAR, t: int | None, k: int) -> float:
    """Upper bound on the expected KL divergence between the law of the output
    k steps ahead given the state at time t and its marginal law.

    The bound is e1' A^k S_{t+1} (A^k)' e1 with S the unit-noise state
    covariance at time t+1; the innovation variance cancels between the
    numerators and the (>= noise variance) denominators.  t=None takes the
    stationary limit, the spec's `state_covariance`, which dominates every
    finite t for the zero-initialized process.
    """
    if t is not None and t < 0:
        raise ValueError("t must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    a = spec.state_companion
    if t is None:
        state_cov = spec.state_covariance / spec.noise_std**2
    else:
        state_cov = gramian(a, t + 1)
    a_k = np.linalg.matrix_power(a, k)
    return float((a_k @ state_cov @ a_k.T)[0, 0])


def beta_ar_kl_bound(spec: GaussianAR, t: int | None, k: int) -> float:
    """beta-coefficient bound at gap k via Pinsker and Jensen:

        E TV <= E sqrt(KL/2) <= sqrt(E KL / 2),

    clipped to [0, 1] since total variation never exceeds 1.
    """
    return float(min(1.0, np.sqrt(expected_kl_ar(spec, t, k) / 2.0)))


def gaussian_ar_profile(spec: GaussianAR, gaps) -> MixingProfile:
    """Profile of KL-route bounds in the stationary limit, which dominates
    every conditioning time t of the zero-initialized process."""
    return MixingProfile({g: beta_ar_kl_bound(spec, None, g) for g in map(int, gaps)})


def profile_from_spec(spec: ProcessSpec, gaps) -> MixingProfile:
    """Best available profile for a spec: exact for Markov chains and
    block-constant processes, KL bound for Gaussian AR, zero for iid."""
    return spec.mixing_profile([int(g) for g in gaps])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def mixing_sum(profile: MixingProfile, partition: "BlockPartition") -> float:
    """Sum of beta over the interior blocks (all but the first and last), the
    quantity compared against the mixing budget in the burn-in conditions:
    `MixingProfile.beta_sum` over the interior block lengths.

    It is also the interior decoupling budget: replacing the process with
    its blockwise-decoupled version costs an additive failure probability of
    beta over the interior blocks only (the even blocks except the last for
    functions of the odd blocks, the odd blocks except the first for
    functions of the even blocks).  The all-blocks budget, which charges
    every block as needed when both parities are controlled at once, is
    `profile.beta_sum(partition.lengths)`."""
    return profile.beta_sum(partition.lengths[1:-1])
