"""Closed-form leakage, trade-off, and privacy-conversion formulas.

Everything in this module is a pure function of a handful of scalars, chief
among them the per-record leakage score m. The limiting distribution of the
log-likelihood-ratio score is N(-m/2, m) when the target is absent and
N(+m/2, m) when it is present, and every formula below is a consequence of
that Gaussian pair:

  * theoretical_leakage(m)        best achievable advantage
  * theoretical_power(m, alpha)   power of the level-alpha threshold test
  * optimal_threshold(m, alpha)   the threshold that attains it
  * gdp_delta(m, epsilon)         the (epsilon, delta) profile of the
                                  equivalent sqrt(m)-Gaussian-DP guarantee

Effective scores for noisy and misspecified variants reduce those settings
to the same m-parameterized family. Fixed-size row subsampling does not: a
release that keeps k of n rows contains the target with probability
q = k / n, and when it misses the target it is distributed exactly as under
the null. Its optimal trade-off is the mixture

  * subsampled_power(m_in, q, alpha)   (1 - q) alpha + q Phi(Phi^-1(alpha) + sqrt(m_in))

with m_in the leakage score of a k-row mean (the subsampling theorem of
Dong, Roth & Su, Gaussian Differential Privacy, 2022). TradeoffCurve
carries q alongside the score, and tradeoff_curve picks the right curve for
any supported mechanism. The scalar rho * m of subsampled_leakage_score is
a discount of the score, not the trade-off curve of that mechanism.

sup_norm_gap, the distance of an empirical ROC from its closed form, is a
Chebyshev Hausdorff distance computed exactly by a binary search along each
curve, which works because neither coordinate of an ROC or a trade-off curve
ever decreases.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from ._util import as_target, check_rate
from .mech import EmpiricalMean, NoisyMean, SubsampledMean
from .score import OracleMoments, _noise_inflated

__all__ = [
    "phi",
    "phi_inv",
    "theoretical_leakage",
    "theoretical_power",
    "optimal_threshold",
    "noisy_leakage_score",
    "subsampled_leakage_score",
    "misspec_advantage",
    "cross_leakage",
    "gdp_delta",
    "tv_gaussians",
    "effective_leakage",
    "subsampled_power",
    "TradeoffCurve",
    "tradeoff_curve",
    "polyline_gap",
    "sup_norm_gap",
    "vertical_gap",
]


def phi(x):
    """Standard normal CDF. Accepts scalars or arrays; -inf and +inf map to
    0 and 1."""
    out = ndtr(np.asarray(x, dtype=np.float64))
    return float(out) if np.ndim(x) == 0 else out


def phi_inv(p):
    """Standard normal quantile.

    Defined on [0, 1]; the endpoints return -inf and +inf so that
    downstream threshold formulas degrade gracefully at alpha = 0 or 1.

    Raises:
      ValueError: if any input lies outside [0, 1].
    """
    q = np.asarray(p, dtype=np.float64)
    if np.any(q < 0.0) or np.any(q > 1.0) or np.any(np.isnan(q)):
        raise ValueError(f"quantile argument must lie in [0, 1], got {p!r}")
    out = ndtri(q)
    return float(out) if np.ndim(p) == 0 else out


def _check_score(m, name: str = "leakage score"):
    # the one bound on a leakage score, written so that NaN fails it
    if not m >= 0:
        raise ValueError(f"{name} must be >= 0, got {m}")
    return m


def _check_epsilon(epsilon):
    # the one bound on a privacy epsilon, written so that NaN fails it
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    return epsilon


def _two_sided(x):
    # Phi(x) - Phi(-x); shared so that identities between formulas that are
    # algebraically equal also hold bit-for-bit.
    return ndtr(x) - ndtr(-x)


def theoretical_leakage(m: float) -> float:
    """Largest achievable advantage against a target with leakage score m.

    Equals Phi(sqrt(m)/2) - Phi(-sqrt(m)/2), the total variation distance
    between the two limiting score distributions. Zero at m = 0 and strictly
    increasing, approaching 1 as m grows.
    """
    return float(_two_sided(np.sqrt(_check_score(m)) / 2.0))


def theoretical_power(m, alpha):
    """Asymptotic power of the optimal level-alpha test, Phi(Phi^-1(alpha) + sqrt(m)).

    Vectorized over alpha. At m = 0 the test is blind and power equals alpha.

    Raises:
      ValueError: if m is negative or NaN, or alpha is outside [0, 1].
    """
    _check_score(m)
    u = phi_inv(alpha)
    with np.errstate(invalid="ignore"):
        out = ndtr(u + np.sqrt(m))
    # -inf + 0 is fine, but guard the exact corner alpha in {0,1} with m = 0
    # where u is +-inf and the sum is still +-inf.
    out = np.where(np.isinf(u), ndtr(u), out)
    return float(out) if np.ndim(alpha) == 0 else np.asarray(out, dtype=np.float64)


def optimal_threshold(m: float, alpha: float) -> float:
    """Score threshold attaining the level-alpha optimal test: -m/2 + sqrt(m) * Phi^-1(1 - alpha).

    Guessing "present" when the log-likelihood-ratio score exceeds this value
    has asymptotic false-positive rate alpha.
    """
    _check_score(m)
    return float(-m / 2.0 + np.sqrt(m) * phi_inv(1.0 - alpha))


def noisy_leakage_score(dist, z, gamma, n: int) -> float:
    """Effective leakage score when the released mean carries additive
    Gaussian noise of standard deviation gamma_j / sqrt(n) per coordinate.

    Computes (1/n) * sum_j (z_j - mu_j)^2 / (sigma_j^2 + gamma_j^2); the
    noise inflates each coordinate's variance and so deflates its precision
    weight. gamma may be a scalar or a length-d vector, and gamma = 0
    recovers the noiseless leakage score exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    om = OracleMoments.from_distribution(dist)
    u = as_target(z, dist.d, "z") - om.mu
    return _noise_inflated(om, gamma).precision_quad(u) / n


def subsampled_leakage_score(m: float, rho: float) -> float:
    """The rate-discounted score rho * m.

    This is a scalar summary only: the Gaussian curve it indexes is not the
    trade-off curve of uniform k-of-n row subsampling, and it lies above the
    power cap rho + (1 - rho) * alpha that mechanism obeys. The curve of the
    mechanism is the mixture of subsampled_power (see tradeoff_curve)."""
    _check_score(m)
    check_rate(rho, "subsampling rate")
    return rho * m


def misspec_advantage(m_scal: float, m_targ: float) -> float:
    """Advantage of an attacker that thresholds the score built for a guessed
    target while the true inserted record is z_star.

    With m_scal the cross leakage between guess and truth, and m_targ the
    leakage score of the guess, the value is
    Phi(|m_scal| / (2 sqrt(m_targ))) - Phi(-|m_scal| / (2 sqrt(m_targ))).
    A guess with m_targ = 0 yields a constant score, so the advantage is 0
    by convention. m_scal may take either sign; its size is a score.
    """
    _check_score(abs(m_scal), "|m_scal|")
    if _check_score(m_targ, "m_targ") == 0.0:
        return 0.0
    return float(_two_sided(abs(m_scal) / (2.0 * np.sqrt(m_targ))))


def cross_leakage(dist, z_targ, z_star, n: int) -> float:
    """Precision-weighted inner product (1/n) * sum_j (z_targ_j - mu_j)(z_star_j - mu_j) / sigma_j^2.

    Symmetric in its two targets; equals the leakage score when they
    coincide and 0 when either equals the distribution mean.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    om = OracleMoments.from_distribution(dist)
    a = as_target(z_targ, dist.d, "z_targ") - om.mu
    b = as_target(z_star, dist.d, "z_star") - om.mu
    return om.precision_pair(a, b)[0] / n


def gdp_delta(m: float, epsilon: float) -> float:
    """delta(epsilon) profile of the sqrt(m)-Gaussian-DP guarantee implied by
    leakage score m:

        Phi(-eps/sqrt(m) + sqrt(m)/2) - e^eps * Phi(-eps/sqrt(m) - sqrt(m)/2)

    The product term is evaluated as exp(eps + log Phi(...)) so that large
    epsilon underflows cleanly to 0 instead of producing inf * 0. The result
    is clamped to [0, 1].
    """
    if not _check_score(m) > 0:  # -eps / sqrt(m) has no value at m = 0
        raise ValueError("gdp_delta needs a leakage score > 0, got 0")
    _check_epsilon(epsilon)
    root = np.sqrt(m)
    a = ndtr(-epsilon / root + root / 2.0)
    b = np.exp(epsilon + log_ndtr(-epsilon / root - root / 2.0))
    return float(np.clip(a - b, 0.0, 1.0))


def tv_gaussians(mu0: float, mu1: float, sigma: float) -> float:
    """Total variation distance between two normal laws with a shared
    standard deviation, Phi(|mu0 - mu1| / (2 sigma)) - Phi(-|mu0 - mu1| / (2 sigma))."""
    if not sigma > 0:  # written so that NaN fails it
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return float(_two_sided(abs(mu1 - mu0) / (2.0 * sigma)))


def effective_leakage(dist, z, n: int, mech=None) -> float:
    """Leakage score adjusted for the release mechanism: the plain score for
    an exact mean, the noise-deflated score for a noisy mean, and the
    rho-discounted score rho * m for a subsampled mean.

    For the first two the Gaussian curve of this score is the mechanism's
    trade-off curve. For a subsampled mean it is not; use tradeoff_curve,
    which returns the inclusion mixture."""
    m = dist.leakage_score(z, n)
    if mech is None or isinstance(mech, EmpiricalMean):
        return m
    if isinstance(mech, NoisyMean):
        return noisy_leakage_score(dist, z, mech.gamma, n)
    if isinstance(mech, SubsampledMean):
        return subsampled_leakage_score(m, mech.rho)
    raise TypeError(f"unsupported mechanism: {mech!r}")


def _mix(alpha, power_in, q: float):
    # at q = 1 this is 0 * alpha + power_in, which is power_in bit for bit
    return (1.0 - q) * alpha + q * power_in


def subsampled_power(m_in: float, q: float, alpha):
    """Power of the optimal level-alpha test when the target enters the
    release with probability q and, when it does, leaks with score m_in:

        (1 - q) * alpha + q * Phi(Phi^-1(alpha) + sqrt(m_in))

    The likelihood ratio of the mixture is increasing in that of the
    included branch, so the same threshold is optimal on both branches.
    Vectorized over alpha; q = 1 is theoretical_power exactly. The curve
    never exceeds the cap q + (1 - q) * alpha.
    """
    check_rate(q, "inclusion probability")
    out = _mix(np.asarray(alpha, dtype=np.float64), theoretical_power(m_in, alpha), q)
    return float(out) if np.ndim(alpha) == 0 else out


@dataclasses.dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """The asymptotic trade-off curve alpha -> power, tabulated on a fixed
    alpha grid.

    The closed form is subsampled_power(m_eff, q, alpha): with the default
    inclusion probability q = 1 it is the Gaussian curve of the effective
    leakage score m_eff, and with q < 1 it is the mixture of a row-subsampled
    release, m_eff then being the score of the release that kept the target.

    The grid always spans [0, 1] inclusive so the boundary identities
    power(0) = 0 and power(1) = 1 are part of the stored data. Construction
    validates monotonicity and that the curve dominates blind guessing.
    """

    m_eff: float
    alphas: np.ndarray
    powers: np.ndarray
    q: float = 1.0

    def __post_init__(self):
        _check_score(self.m_eff, "m_eff")
        check_rate(self.q, "inclusion probability")
        a = np.asarray(self.alphas, dtype=np.float64)
        p = np.asarray(self.powers, dtype=np.float64)
        if a.shape != p.shape or a.ndim != 1 or a.size < 2:
            raise ValueError("alphas and powers must be 1-D arrays of equal length >= 2")
        if a[0] != 0.0 or a[-1] != 1.0 or np.any(np.diff(a) <= 0):
            raise ValueError("alpha grid must increase strictly from 0 to 1")
        if abs(p[0]) > 1e-12 or abs(p[-1] - 1.0) > 1e-12:
            raise ValueError("power must be 0 at alpha=0 and 1 at alpha=1")
        if np.any(np.diff(p) < -1e-12):
            raise ValueError("power must be non-decreasing in alpha")
        if np.any(p < a - 1e-12):
            raise ValueError("power may not fall below alpha")
        a = a.copy()
        p = p.copy()
        a.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "powers", p)

    @classmethod
    def from_leakage(cls, m_eff: float, num: int = 512, q: float = 1.0) -> "TradeoffCurve":
        """Tabulate the closed-form curve for one leakage score and
        inclusion probability on a uniform grid of ``num`` points."""
        if num < 2:
            raise ValueError("grid needs at least 2 points")
        alphas = np.linspace(0.0, 1.0, num)
        powers = subsampled_power(m_eff, q, alphas)
        return cls(m_eff=float(m_eff), alphas=alphas, powers=powers, q=float(q))

    @property
    def samples(self) -> list[tuple[float, float]]:
        return [(float(a), float(p)) for a, p in zip(self.alphas, self.powers)]

    def power(self, alpha):
        """Evaluate the closed form at arbitrary alpha (scalar or array)."""
        return subsampled_power(self.m_eff, self.q, alpha)

    def leakage(self) -> float:
        """Largest advantage, max over alpha of power(alpha) - alpha, which
        is q * theoretical_leakage(m_eff)."""
        return self.q * theoretical_leakage(self.m_eff)

    def delta(self, epsilon: float) -> float:
        """delta(epsilon) profile, max over alpha of power(alpha) - e^eps * alpha.

        Factoring q out of the mixture leaves the Gaussian profile at a
        shifted epsilon: q * gdp_delta(m_eff, log(1 + (e^eps - 1) / q)).
        At epsilon = 0 this is the leakage.
        """
        if self.q == 1.0:  # keep epsilon exact rather than log1p(expm1(epsilon))
            return gdp_delta(self.m_eff, epsilon)
        _check_epsilon(epsilon)
        return self.q * gdp_delta(self.m_eff, float(np.log1p(np.expm1(epsilon) / self.q)))

    def __eq__(self, other):
        """Equal fields, the arrays compared by value."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m_eff == other.m_eff and self.q == other.q
                and np.array_equal(self.alphas, other.alphas)
                and np.array_equal(self.powers, other.powers))

    def __hash__(self):
        # equal curves have equal m_eff and q; hashing the arrays' bytes
        # would split curves whose entries differ only as 0.0 and -0.0
        return hash((self.m_eff, self.q))


def tradeoff_curve(dist, z, n: int, mech=None, num: int = 512) -> TradeoffCurve:
    """The trade-off curve of the optimal attack on ``mech``, tabulated on
    ``num`` points.

    An exact or noisy mean gets the Gaussian curve of effective_leakage. A
    subsampled mean keeps k = mech.k(n) rows, so the target is included
    with probability q = k / n and the included release is an exact k-row
    mean with score dist.leakage_score(z, k); its curve is that mixture.
    """
    if isinstance(mech, SubsampledMean):
        k = mech.k(n)
        return TradeoffCurve.from_leakage(dist.leakage_score(z, k), num, q=k / n)
    return TradeoffCurve.from_leakage(effective_leakage(dist, z, n, mech), num)


# -- distance between an empirical ROC polyline and the theory curve ----------

# The analysis of a game (its ROC, these gaps, its advantages) reads
# per-round arrays this many rows at a time, so that its temporaries stay
# the same size whatever the round count.
_BLOCK_ROWS = 1 << 13


def _coerce_points(points) -> np.ndarray:
    if hasattr(points, "points"):
        points = points.points
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError(f"expected an (N, 2) array of (fpr, tpr) points, got shape {pts.shape}")
    return pts


def _steps(pts: np.ndarray):
    # (lo, pts[lo + 1:hi + 1] - pts[lo:hi]) for each block [lo, hi) of the
    # steps from one row of pts to the next
    for lo in range(0, len(pts) - 1, _BLOCK_ROWS):
        yield lo, np.diff(pts[lo:lo + _BLOCK_ROWS + 1], axis=0)


def _pieces(poly: np.ndarray, step: float):
    # (first segment, its differences, pieces each) for each block of
    # segments of poly, a segment needing ceil(Chebyshev length / step) pieces
    for lo, seg in _steps(poly):
        yield lo, seg, np.maximum(1, np.ceil(np.max(np.abs(seg), axis=1) / step).astype(np.intp))


def _densify(poly: np.ndarray, step: float) -> np.ndarray:
    """Insert vertices along each segment so consecutive points are within
    ``step`` of each other in the Chebyshev norm.

    A segment a -> b whose Chebyshev length needs k pieces gets the points
    a + t (b - a) at t = j * (1/k), j = 1..k, the last set to exactly 1.0.
    Those are the values np.linspace(0, 1, k + 1)[1:] takes, built a block
    of segments at a time straight into the output, once its length is
    counted.
    """
    out = np.empty((1 + sum(int(k.sum()) for _, _, k in _pieces(poly, step)), 2))
    out[0] = poly[0]
    at = 1
    for lo, seg, k in _pieces(poly, step):
        ends = np.cumsum(k)
        owner = np.repeat(np.arange(seg.shape[0]), k)
        j = np.arange(1, ends[-1] + 1) - np.repeat(ends - k, k)
        t = j * np.repeat(1.0 / k, k)
        t[ends - 1] = 1.0
        out[at:at + ends[-1]] = poly[lo + owner] + t[:, None] * seg[owner]
        at += ends[-1]
    return out


def _closed_form(theory) -> tuple[float, float]:
    """(score, inclusion probability) of a leakage score or a TradeoffCurve."""
    if isinstance(theory, TradeoffCurve):
        return theory.m_eff, theory.q
    return float(_check_score(theory, "m_eff")), 1.0


def _theory_polyline(m_eff: float, q: float = 1.0, num: int = 4001) -> np.ndarray:
    # Parameterize by u = Phi^-1(alpha) so vertices concentrate where the
    # curve actually bends; endpoints pin the corners exactly.
    u = np.linspace(-8.5, 8.5, num)
    alphas = ndtr(u)
    powers = _mix(alphas, ndtr(u + np.sqrt(m_eff)), q)
    pts = np.column_stack([alphas, powers])
    return np.vstack([[0.0, 0.0], pts, [1.0, 1.0]])


def _check_monotone(pts: np.ndarray) -> np.ndarray:
    if not all(np.all(seg >= 0.0) for _, seg in _steps(pts)):
        raise ValueError(
            "polyline coordinates must be non-decreasing from vertex to vertex, "
            "as on an ROC or trade-off curve"
        )
    return pts


def _nearest_on_chain(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Chebyshev distance from each point of ``p`` to the nearest point of
    ``s``, a chain whose two coordinates never decrease.

    With dx = s_x - p_x and dy = s_y - p_y taken along the chain,
    max(dx, dy) never falls and -min(dx, dy) never rises, so the distance
    max(|dx|, |dy|) is smallest at the last index where the first is below
    the second, that is where dx + dy < 0, or at the index after it (index
    0 if there is none). A branch-free binary search finds that index for
    all points at once. Rounded subtraction is monotone and a rounded sum
    keeps the sign of the exact one, so the argument holds for the computed
    values and the result equals a brute-force minimum exactly.
    """
    sx, sy = s[:, 0], s[:, 1]
    px, py = p[:, 0], p[:, 1]
    lo = np.zeros(len(p), dtype=np.intp)
    width = len(s)
    while width > 1:
        half = width // 2
        mid = lo + half
        lo = np.where((sx[mid] - px) + (sy[mid] - py) < 0.0, mid, lo)
        width -= half
    hi = np.minimum(lo + 1, len(s) - 1)
    return np.minimum(
        np.maximum(np.abs(sx[lo] - px), np.abs(sy[lo] - py)),
        np.maximum(np.abs(sx[hi] - px), np.abs(sy[hi] - py)),
    )


def _directed_gap(p: np.ndarray, s: np.ndarray) -> float:
    # A densified segment can end one ulp past its vertex (a + (b - a) is
    # not always b), so a monotone polyline may densify into a chain with
    # one-ulp steps back. Searching each non-decreasing run separately
    # keeps the minimum exact. The points of p are searched a block at a
    # time, and only each block's largest distance is kept.
    cuts = np.flatnonzero((s[1:, 0] < s[:-1, 0]) | (s[1:, 1] < s[:-1, 1])) + 1
    runs = np.split(s, cuts)
    far = []
    for lo in range(0, len(p), _BLOCK_ROWS):
        block = p[lo:lo + _BLOCK_ROWS]
        far.append(functools.reduce(np.minimum, (_nearest_on_chain(block, r) for r in runs)).max())
    return float(np.max(far))


def polyline_gap(a, b, step: float = 5e-4) -> float:
    """Hausdorff distance under the Chebyshev ground metric between two
    polylines, each densified to ``step`` resolution. Identical polylines
    yield 0; the value bounds how far either curve strays from the other in
    any direction.

    Both polylines must be monotone chains, as every ROC and trade-off curve
    is: neither coordinate may decrease from one vertex to the next.

    Raises:
      ValueError: if either input is not an (N, 2) array with N >= 2, or a
        coordinate decreases (or is NaN) along it.
    """
    return _dense_gap(_dense(a, step), _dense(b, step))


def _dense(poly, step: float) -> np.ndarray:
    # a checked polyline, densified to step
    return _densify(_check_monotone(_coerce_points(poly)), step)


def _dense_gap(pa: np.ndarray, pb: np.ndarray) -> float:
    # polyline_gap of two densified polylines
    return max(_directed_gap(pa, pb), _directed_gap(pb, pa))


def sup_norm_gap(points, m_eff, step: float = 5e-4) -> float:
    """Gap between an empirical ROC polyline and the closed-form trade-off
    curve, measured as a Hausdorff distance in the unit square.

    ``m_eff`` is either a leakage score, read as its Gaussian curve, or a
    TradeoffCurve, whose closed form (mixture included) is used. ``points``
    must not decrease in either coordinate (see polyline_gap); an ROC never
    does.

    Treating both curves as point sets is the right yardstick for a
    staircase estimate: a vertical reading at small alpha is dominated by
    the resolution limit of a finite game, while the curves themselves can
    still be uniformly close.
    """
    return _dense_gap(_dense(points, step), _dense_theory(*_closed_form(m_eff), step))


@functools.lru_cache(maxsize=16)
def _dense_theory(m_eff: float, q: float, step: float) -> np.ndarray:
    # the closed form densified to step, made once per (m_eff, q, step) and
    # read-only, since every caller of the cache shares the one array
    dense = _dense(_theory_polyline(m_eff, q), step)
    dense.flags.writeable = False
    return dense


def vertical_gap(points, m_eff, alpha_min: float = 0.0) -> float:
    """Largest vertical distance |TPR_emp(alpha) - power(alpha)| over
    alpha >= alpha_min, against a leakage score or a TradeoffCurve as in
    sup_norm_gap.

    The empirical curve is read as the staircase upper envelope (the largest
    tpr whose fpr does not exceed alpha). Readings below the resolution
    floor of the sample are excluded by alpha_min; at alpha smaller than one
    over the class count the staircase has no information and the vertical
    gap is an artifact, which is why sup_norm_gap is the headline metric.

    The gap is read at each fpr of ``points`` from alpha_min up and at 513
    even steps from alpha_min to 1, a block of alphas at a time. ``points``
    must not decrease in either coordinate (see polyline_gap), so the
    envelope at alpha is the tpr of the last point with fpr <= alpha.
    """
    pts = _check_monotone(_coerce_points(points))
    fpr, tpr = pts[:, 0], pts[:, 1]
    m, q = _closed_form(m_eff)

    def gap(alphas: np.ndarray) -> float:
        idx = np.clip(np.searchsorted(fpr, alphas, side="right") - 1, 0, len(fpr) - 1)
        return np.max(np.abs(tpr[idx] - subsampled_power(m, q, alphas)), initial=0.0)

    blocks = (fpr[lo:lo + _BLOCK_ROWS] for lo in range(0, len(fpr), _BLOCK_ROWS))
    grid = np.linspace(alpha_min, 1.0, 513)
    return float(np.max([gap(grid), *(gap(a[a >= alpha_min]) for a in blocks)]))
