"""Reference-moment estimation and Mahalanobis canary selection.

Works on any collection of vectors: raw records when auditing a mean
release, per-example gradients when auditing a training loop. The selected
canary is the candidate whose precision-weighted distance from the
reference cloud is largest, which is exactly the record the theory predicts
leaks most.
"""

from __future__ import annotations

import numpy as np

from ._util import ConfigError, as_target
from .score import ReferenceEstimates, _as_rows

__all__ = ["estimate_reference", "mahalanobis_score_est", "select_canary"]


def estimate_reference(
    refs,
    cov_mode: str = "diagonal",
    ridge: float | None = None,
    centered: bool = False,
) -> ReferenceEstimates:
    """Estimate reference moments from an (n0, d) matrix of sample vectors.

    The mean is the column average. The covariance defaults to the
    uncentered second moment (1/n0) * sum_i g_i g_i^T, the form an auditor
    computes in one streaming pass; pass ``centered=True`` for the mean-
    subtracted version. ``cov_mode`` keeps either the full matrix or only
    its diagonal. ``ridge`` defaults to 1e-6 * trace / d, enough to make a
    rank-deficient estimate factorizable without distorting scores.

    Raises:
      ValueError: fewer than two reference vectors.
      NumericalError: covariance not positive definite even after ridge.
    """
    Z = np.asarray(refs, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError(f"refs must be an (n0, d) matrix, got shape {Z.shape}")
    n0, d = Z.shape
    if n0 < 2:
        raise ValueError(f"need at least 2 reference vectors, got {n0}")
    if cov_mode not in ("diagonal", "full"):
        raise ConfigError(f"cov_mode must be 'diagonal' or 'full', got {cov_mode!r}")

    mu0 = Z.mean(axis=0)
    base = Z - mu0 if centered else Z
    if cov_mode == "diagonal":
        c0 = np.mean(np.square(base), axis=0)
        trace = float(c0.sum())
    else:
        c0 = (base.T @ base) / n0
        trace = float(np.trace(c0))
    if ridge is None:
        ridge = 1e-6 * trace / d
    return ReferenceEstimates(mu0=mu0, c0=c0, n0=n0, ridge=float(ridge))


def mahalanobis_score_est(x, refs: ReferenceEstimates) -> float:
    """Estimated squared Mahalanobis distance (x - mu0)^T C0^-1 (x - mu0),
    evaluated through the cached factorization. Always non-negative.

    Raises:
      ValueError: if ``x`` is not a length-d vector of finite numbers.
    """
    u = as_target(x, refs.d, "x") - refs.mu0
    return refs.precision_quad(u)


def _mahalanobis_rows(X, refs: ReferenceEstimates) -> np.ndarray:
    """mahalanobis_score_est of each row of a (T, d) block, bit for bit,
    from one ReferenceEstimates._pairs call."""
    U = _as_rows(X, refs.d, "candidates")
    bad = np.argwhere(~np.isfinite(U))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"candidate {r} coordinates must be finite, got {U[r, c]} at {c}")
    U = U - refs.mu0
    refs._check_finite(U)
    return refs._pairs(U, U)[1]


def select_canary(candidates, refs: ReferenceEstimates) -> tuple[int, float]:
    """Pick the candidate with the largest estimated Mahalanobis score.

    Ties resolve to the lowest index so repeated audits select the same
    canary.

    Raises:
      ValueError: no candidates, or a candidate that is not a length-d vector
        of finite numbers, the first such named by its index.
    """
    scores = _mahalanobis_rows(list(candidates), refs)
    best = int(np.argmax(scores))
    return best, float(scores[best])
