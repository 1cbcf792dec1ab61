"""Attack score functions and the side information they consume.

Every score maps a released vector o (an empirical mean of some flavor) and
a target record z to a single real number that an adversary thresholds.
Higher means "the target looks present". Scores may return -inf or +inf as
sentinels for outcomes that are impossible under one hypothesis; callers
treat those as extreme thresholds rather than errors.

Side information is one moments type, :class:`ReferenceEstimates`: a mean
and a diagonal or full covariance, with an optional ridge and a cached
Cholesky factor for a full matrix. Moments estimated from reference points
and :class:`OracleMoments`, the true moments and its ridge-free diagonal
case, feed the same precision-weighted forms and the same LR score.

Every Mahalanobis form has one kernel, ``ReferenceEstimates._pairs``, the
terms (u^T P v, u^T P u) of paired rows or of one u against a block:
``precision_pair``, ``precision_quad``, a canary pool's ranking and the LR
score, bit for bit alike. Each score is one block kernel, whose one-row
case scores one release and whose rows score the white-box attack steps.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ._util import ConfigError, NumericalError, as_target, as_vector
from .mech import NoisyMean, SubsampledMean, _noise_scales, subsample_count

# scipy.linalg.solve_triangular's own LAPACK routine for float64 input
_TRTRS = scipy.linalg.get_lapack_funcs(("trtrs",), dtype=np.float64)[0]

__all__ = [
    "OracleMoments",
    "ReferenceEstimates",
    "lr_exact_bernoulli",
    "lr_asymptotic",
    "lr_empirical_cov",
    "scalar_product",
    "lr_noisy",
    "lr_subsampled",
    "lr_misspecified",
    "SCORE_NAMES",
    "make_score",
]


class ReferenceEstimates:
    """A mean and covariance, ready for precision-weighted scoring: moments
    estimated from reference points, or the true ones (:class:`OracleMoments`).

    ``c0`` is either a length-d vector (diagonal covariance) or a d-by-d
    symmetric matrix. ``ridge`` is added to the diagonal before any
    factorization; the full-matrix path factorizes once at construction and
    reuses the triangular factor, with the LAPACK ``trtrs`` routine that
    solves against it, for every score evaluation.

    Raises:
      NumericalError: if the ridged covariance is not positive definite; the
        message names the smallest eigenvalue found.
    """

    def __init__(self, mu0, c0, n0: int, ridge: float = 0.0):
        self.mu0 = as_vector(mu0, name="mu0").copy()
        self.mu0.flags.writeable = False
        self.d = d = int(self.mu0.shape[0])
        if n0 < 1:
            raise ValueError("n0 must be >= 1")
        if not 0 <= ridge < np.inf:  # written so that NaN fails it
            raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
        self.n0 = int(n0)
        self.ridge = float(ridge)

        c = np.asarray(c0, dtype=np.float64)
        if c.ndim == 1:
            if c.shape[0] != d:
                raise ValueError(f"diagonal c0 has length {c.shape[0]}, expected {d}")
            c = c.copy()
            var = c + self.ridge
            if np.any(var <= 0):
                raise NumericalError(
                    "diagonal covariance not positive definite after ridge "
                    f"{self.ridge:g}: smallest eigenvalue {var.min():.6e}"
                )
            var.flags.writeable = False
            self._var = var
            self._chol = None
        elif c.ndim == 2:
            if c.shape != (d, d):
                raise ValueError(f"full c0 has shape {c.shape}, expected ({d}, {d})")
            if not np.allclose(c, c.T, rtol=1e-8, atol=1e-12):
                raise ValueError("full c0 must be symmetric")
            c = (c + c.T) / 2.0
            ridged = c + self.ridge * np.eye(d)
            try:
                self._chol = scipy.linalg.cholesky(ridged, lower=True)
            except scipy.linalg.LinAlgError:
                lam = float(scipy.linalg.eigvalsh(ridged, subset_by_index=[0, 0])[0])
                raise NumericalError(
                    "covariance not positive definite after ridge "
                    f"{self.ridge:g}: smallest eigenvalue {lam:.6e}"
                ) from None
            self._var = None
            # the branch solve_triangular takes: trtrs wants a Fortran-ordered
            # factor, and a C-ordered lower factor is the transpose of a
            # Fortran-ordered upper one
            self._lower = bool(self._chol.flags.f_contiguous)
            self._trans = int(not self._lower)
            self._tri = self._chol if self._lower else self._chol.T
        else:
            raise ValueError(f"c0 must be a vector or a square matrix, got ndim {c.ndim}")
        c.flags.writeable = False
        self.c0 = c

    @property
    def is_diagonal(self) -> bool:
        return self._chol is None

    def _check_finite(self, *arrays: np.ndarray) -> None:
        # solve_triangular's finiteness check on its right-hand side, made
        # once for whole blocks of them before _whiten takes them one by
        # one; the diagonal path makes none
        if self._chol is not None and not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("array must not contain infs or NaNs")

    def _whiten(self, u: np.ndarray) -> np.ndarray:
        # solve_triangular(self._chol, u, lower=True) bit for bit, without
        # its per-call dispatch or f2py's keyword parsing; the caller has
        # made _check_finite. A (T, d) block is solved row by row, since a
        # solve of many right-hand sides would sum in another order.
        if u.ndim == 2:
            return np.array([self._whiten(row) for row in u]).reshape(u.shape)
        w, info = _TRTRS(self._tri, u, self._lower, self._trans)
        if info != 0:
            raise scipy.linalg.LinAlgError(f"triangular solve failed: trtrs info {info}")
        return w

    def precision_quad(self, u) -> float:
        """u^T (c0 + ridge I)^-1 u."""
        u = as_vector(u, self.d, "u")
        self._check_finite(u)
        return float(self._pairs(u, u)[1])

    def precision_pair(self, u, v) -> tuple[float, float]:
        """(u^T P v, u^T P u) with P = (c0 + ridge I)^-1, from one
        triangular solve for each of u and v on the full-matrix path."""
        u, v = as_vector(u, self.d, "u"), as_vector(v, self.d, "v")
        self._check_finite(u, v)
        cross, quad = self._pairs(u, v)
        return float(cross), float(quad)

    def _pairs(self, U: np.ndarray, V: np.ndarray):
        """(u^T P v, u^T P u) for each pair of rows of checked (T, d) blocks
        U and V, for one vector u, (d,), and every row of V, or for two
        vectors; V is U asks for the quadratic terms alone.

        Each entry is one np.vecdot of two vectors, which takes the routine
        np.dot takes for them, so a row gets the same bits in a block as
        alone (a mat-vec would sum in another order). Each distinct vector
        is whitened once.
        """
        if self._chol is None:
            W, right = U / self._var, U
        else:
            W = right = self._whiten(U)
        quad = np.vecdot(W, right)
        if V is U:
            return quad, quad
        return np.vecdot(W, V if self._chol is None else self._whiten(V)), quad


class OracleMoments(ReferenceEstimates):
    """True per-coordinate mean and variance, as adversary side information:
    the ridge-free diagonal case of :class:`ReferenceEstimates`, c0 = sigma2.
    True moments come from no reference sample, so ``n0`` is None."""

    def __init__(self, mu, sigma2):
        mu = np.asarray(mu, dtype=np.float64)
        s2 = np.asarray(sigma2, dtype=np.float64)
        if mu.ndim != 1 or mu.shape != s2.shape:
            raise ValueError("mu and sigma2 must be 1-D vectors of equal length")
        if not np.all((s2 > 0) & (s2 < np.inf)):  # written so that NaN fails it
            raise ValueError("sigma2 must be finite and > 0 component-wise")
        super().__init__(mu, s2, n0=1)
        self.n0 = None

    @property
    def mu(self) -> np.ndarray:
        return self.mu0

    @property
    def sigma2(self) -> np.ndarray:
        return self.c0

    @classmethod
    def from_distribution(cls, dist) -> "OracleMoments":
        """The distribution's own moments object, shared, not copied."""
        return dist._om


# -- score functions -----------------------------------------------------------


def lr_exact_bernoulli(mu_hat, z, mu) -> float:
    """Exact log-likelihood ratio for the empirical mean of independent
    Bernoulli columns.

    Per coordinate the ratio of the shifted to the unshifted binomial
    likelihood collapses to mu_hat_j / mu_j when z_j = 1 and to
    (1 - mu_hat_j) / (1 - mu_j) when z_j = 0, so the score is

        sum_j z_j * log(mu_hat_j / mu_j) + (1 - z_j) * log((1 - mu_hat_j) / (1 - mu_j)).

    A coordinate whose selected log argument is 0 contributes -inf: the
    observed mean is impossible with the target present. That sentinel is a
    legitimate score value, not an error.
    """
    mu = as_vector(mu, name="mu")
    return float(_exact_bernoulli(as_vector(mu_hat, mu.shape[0], "mu_hat"), z, mu))


def _exact_bernoulli(mu_hat: np.ndarray, z, mu: np.ndarray):
    # lr_exact_bernoulli of a release (d,) or of each row of a block (T, d):
    # element-wise terms, then one sum per row, which adds a row's terms in
    # the same order whether the row stands alone or in a block
    zv = _targets(z, mu_hat, mu.shape[0])
    if np.any(mu <= 0) or np.any(mu >= 1):
        raise ValueError("mu must lie strictly inside (0, 1) component-wise")
    if np.any(mu_hat < 0) or np.any(mu_hat > 1):
        raise ValueError("mu_hat must lie in [0, 1] component-wise")
    ones = zv == 1.0
    if not np.all(ones | (zv == 0.0)):
        raise ValueError("z must be a binary vector")
    with np.errstate(divide="ignore"):
        log_present = np.log(mu_hat) - np.log(mu)
        log_absent = np.log1p(-mu_hat) - np.log1p(-mu)
    return np.sum(np.where(ones, log_present, log_absent), axis=-1)


def lr_asymptotic(mu_hat, z, om: OracleMoments, n: int) -> float:
    """Limiting log-likelihood-ratio score with oracle moments:
    (z - mu)^T C^-1 (mu_hat - mu) - (1 / 2n) ||z - mu||^2_{C^-1},
    where C is the diagonal covariance diag(sigma2): lr_empirical_cov on
    the true moments."""
    return lr_empirical_cov(mu_hat, z, om, n)


def lr_empirical_cov(mu_hat, z, refs: ReferenceEstimates, n: int) -> float:
    """Same functional form as the oracle score but with estimated moments:
    (z - mu0)^T C0^-1 (mu_hat - mu0) - (1 / 2n) ||z - mu0||^2_{C0^-1}.

    The full-matrix path evaluates the precision products through the cached
    triangular factor; no matrix is ever inverted explicitly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(_lr(as_vector(mu_hat, refs.d, "mu_hat"), z, refs, n))


def _lr(mu_hat: np.ndarray, z, refs: ReferenceEstimates, n: int):
    # lr_empirical_cov of a release (d,) or of each row of a block (T, d)
    u = _targets(z, mu_hat, refs.d) - refs.mu0
    v = mu_hat - refs.mu0
    refs._check_finite(u, v)
    cross, quad = refs._pairs(u, v)
    return cross - quad / (2.0 * n)


def scalar_product(mu_hat, z, z_ref) -> float:
    """Correlation-style score (z - z_ref)^T mu_hat, the cheapest attack:
    no variance weighting, just alignment of the released mean with the
    direction separating the target from a reference record."""
    zv = as_vector(z, name="z")
    ref = as_vector(z_ref, zv.shape[0], "z_ref")
    v = as_vector(mu_hat, zv.shape[0], "mu_hat")
    return float(_scalar(v, zv, ref))


def _scalar(mu_hat: np.ndarray, z, ref):
    # scalar_product of a release (d,) or of each row of a block (T, d)
    return np.vecdot(_targets(z, mu_hat, mu_hat.shape[-1]) - ref, mu_hat)


def _as_rows(x, d: int, name: str) -> np.ndarray:
    # a (T, d) float64 block of releases, one per row
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != d:
        raise ValueError(f"{name} must be a (T, {d}) block, got shape {v.shape}")
    return v


def _targets(z, mu_hat: np.ndarray, d: int) -> np.ndarray:
    # the target of a release (d,), or of a block (T, d) of releases: one
    # for every row, checked finite once per call, or a (T, d) block of one
    # per row, which the average-target game draws from the distribution
    if mu_hat.ndim == 1 or np.ndim(z) != 2:
        return as_target(z, d, "z")
    if np.shape(z) != mu_hat.shape:
        raise ValueError(f"z must be ({d},) or {mu_hat.shape}, got shape {np.shape(z)}")
    return np.asarray(z, dtype=np.float64)


def _noise_inflated(om: OracleMoments, gamma) -> OracleMoments:
    # the moments of a mean released with N(0, gamma^2) noise per coordinate
    g = _noise_scales(gamma, om.sigma2.shape[0])
    return OracleMoments(om.mu, om.sigma2 + np.broadcast_to(np.square(g), om.sigma2.shape))


def lr_noisy(mu_hat, z, om: OracleMoments, gamma, n: int) -> float:
    """Oracle score adapted to a noisy mean release: lr_asymptotic with
    per-coordinate variance sigma2 + gamma^2."""
    return lr_empirical_cov(mu_hat, z, _noise_inflated(om, gamma), n)


def lr_subsampled(mu_hat_sub, z, om: OracleMoments, rho: float, n: int) -> float:
    """Approximate log-likelihood ratio for the mean of a size-k uniform
    subsample, k = round(rho * n).

    Per coordinate, with standardized deviations

        d_out = sqrt(k) (mu_hat_j - mu_j) / sigma_j
        d_in  = (k (mu_hat_j - mu_j) + (mu_j - z_j)) / (sqrt(k - 1) sigma_j)

    the contribution is

        (rho/2) (d_out^2 - d_in^2) + rho(1-rho)/8 (d_out^2 - d_in^2)^2 + rho/(2k).

    The third-cumulant correction of the underlying expansion is deliberately
    dropped: it needs third moments the side-information model does not
    carry, and it vanishes faster than the retained terms at auditing scales.
    """
    k = _subsample_size(rho, n)
    return float(_subsampled(as_vector(mu_hat_sub, om.d, "mu_hat_sub"), z, om, rho, k))


def _subsample_size(rho: float, n: int) -> int:
    k = subsample_count(rho, n)
    if k < 2:
        raise ConfigError(f"lr_subsampled needs a subsample of >= 2 rows, got k={k} from "
                          f"rho={rho}, n={n}")
    return k


def _subsampled(mu_hat_sub: np.ndarray, z, om: OracleMoments, rho: float, k: int):
    # lr_subsampled of a release (d,) or of each row of a block (T, d),
    # summed per row as _exact_bernoulli is
    sigma = np.sqrt(om.sigma2)
    diff = mu_hat_sub - om.mu
    zv = _targets(z, mu_hat_sub, om.d)
    d_out = np.sqrt(k) * diff / sigma
    d_in = (k * diff + (om.mu - zv)) / (np.sqrt(k - 1.0) * sigma)
    q = np.square(d_out) - np.square(d_in)
    w = (rho / 2.0) * q + (rho * (1.0 - rho) / 8.0) * np.square(q) + rho / (2.0 * k)
    return np.sum(w, axis=-1)


def lr_misspecified(mu_hat, z_targ, om: OracleMoments, n: int) -> float:
    """Oracle score built for a guessed target z_targ. Functionally this is
    lr_asymptotic evaluated at the guess; it exists as a named score so a
    game can be configured with a target the score disagrees with."""
    return lr_empirical_cov(mu_hat, z_targ, om, n)


# -- score registry ------------------------------------------------------------

SCORE_NAMES = (
    "lr_exact_bernoulli",
    "lr_asymptotic",
    "lr_empirical_cov",
    "scalar_product",
    "lr_noisy",
    "lr_subsampled",
    "lr_misspecified",
)


def make_score(
    name: str,
    *,
    dist,
    n: int,
    mech=None,
    refs: ReferenceEstimates | None = None,
    z_ref=None,
    z_targ=None,
    gamma=None,
    rho: float | None = None,
):
    """Bind side information to a named score and return a callable
    ``score(o, z) -> float``.

    The callable carries the score's one block kernel, ``score.block(O,
    z)``: its values on every row of a (T, d) block of releases, with one
    target z for every row or a (T, d) block of one per row. One release
    is scored as a one-row block, so it gets the bits it gets in a block.

    Defaults are resolved from the distribution and, where it makes sense,
    from the mechanism: lr_noisy takes gamma from a NoisyMean mechanism,
    lr_subsampled takes rho from a SubsampledMean, and scalar_product falls
    back to the true mean as its reference record. lr_misspecified scores
    every round against the fixed guess ``z_targ`` regardless of the game's
    true target.

    Raises:
      ConfigError: unknown name, missing side information, or an
        lr_subsampled k = round(rho * n) below 2.
    """
    if name not in SCORE_NAMES:
        raise ConfigError(f"unknown score {name!r}; expected one of {', '.join(SCORE_NAMES)}")
    if n < 1:
        raise ConfigError("n must be >= 1")

    om = OracleMoments.from_distribution(dist)

    if name == "lr_exact_bernoulli":
        if not dist.all_bernoulli:
            raise ConfigError("lr_exact_bernoulli needs a distribution of Bernoulli columns")
        return _bound(dist.d, lambda O, z: _exact_bernoulli(O, z, om.mu))
    if name == "lr_asymptotic":
        return _bound(dist.d, lambda O, z: _lr(O, z, om, n))
    if name == "lr_empirical_cov":
        if refs is None:
            raise ConfigError("lr_empirical_cov needs reference estimates")
        return _bound(dist.d, lambda O, z: _lr(O, z, refs, n))
    if name == "scalar_product":
        ref = om.mu if z_ref is None else as_vector(z_ref, dist.d, "z_ref")
        return _bound(dist.d, lambda O, z: _scalar(O, z, ref))
    if name == "lr_noisy":
        if gamma is None and isinstance(mech, NoisyMean):
            gamma = mech.gamma
        if gamma is None:
            raise ConfigError("lr_noisy needs gamma (or a NoisyMean mechanism)")
        noisy = _noise_inflated(om, gamma)
        return _bound(dist.d, lambda O, z: _lr(O, z, noisy, n))
    if name == "lr_subsampled":
        if rho is None and isinstance(mech, SubsampledMean):
            rho = mech.rho
        if rho is None:
            raise ConfigError("lr_subsampled needs rho (or a SubsampledMean mechanism)")
        r = float(rho)
        k = _subsample_size(r, n)
        return _bound(dist.d, lambda O, z: _subsampled(O, z, om, r, k))
    # lr_misspecified
    if z_targ is None:
        raise ConfigError("lr_misspecified needs the guessed target z_targ")
    guess = as_vector(z_targ, dist.d, "z_targ")
    return _bound(dist.d, lambda O, z: _lr(O, guess, om, n))


def _bound(d: int, kernel):
    # a bound score: kernel(O, z) of a (T, d) block, and of one release as a row
    def score(o, z) -> float:
        return float(kernel(as_vector(o, d, "mu_hat")[None], z)[0])

    score.block = lambda O, z: kernel(_as_rows(O, d, "mu_hat"), z)
    return score
