"""Small dense symmetric-matrix helpers shared across the package.

`positive_definite` is the package's one test of whether a covariance or
Gram matrix is usable: it must be square and finite, and its smallest
eigenvalue must exceed EIG_FLOOR times its mean eigenvalue (trace / d).  The
floor is relative, so the verdict does not change when the matrix is
scaled, as the paper's whitened bound does not."""

from __future__ import annotations

import numpy as np

# Eigenvalues at or below this fraction of the mean eigenvalue are treated
# as zero.
EIG_FLOOR = 1e-10


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def positive_definite(m: np.ndarray) -> bool:
    """Whether m is square and finite with min eigenvalue > EIG_FLOOR *
    trace(m) / d.  Every check that a covariance or Gram matrix may be
    whitened, inverted or solved against calls this, before that work."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or not 0 < len(m) == m.shape[1] or not np.isfinite(m).all():
        return False
    # A 1 x 1 matrix is its own eigenvalue: no eigensolver per 1-D OLS fit.
    return bool((m[0, 0] if len(m) == 1 else min_eig(m)) > EIG_FLOOR * np.trace(m) / len(m))


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition."""
    w, v = np.linalg.eigh(symmetrize(np.asarray(m, dtype=float)))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def inv_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root; raises ValueError unless
    `positive_definite(m)`."""
    if not positive_definite(m):
        raise ValueError(
            f"matrix is not safely positive definite (min eigenvalue {min_eig(m):.3e})"
        )
    w, v = np.linalg.eigh(symmetrize(np.asarray(m, dtype=float)))
    return (v / np.sqrt(w)) @ v.T


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(symmetrize(np.asarray(m, dtype=float))).min())


def opnorm_psd(m: np.ndarray) -> float:
    """Operator norm of a symmetric PSD matrix (largest eigenvalue)."""
    return float(np.linalg.eigvalsh(symmetrize(np.asarray(m, dtype=float))).max())
