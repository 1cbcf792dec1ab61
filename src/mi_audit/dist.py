"""Column-wise independent data-generating distributions.

A :class:`ProductDistribution` is a product of one-dimensional column laws
(Bernoulli or Gaussian). It holds the mean vector ``mu`` and the diagonal
covariance ``sigma2`` in one :class:`~mi_audit.score.OracleMoments`, which
every attack score and closed-form leakage formula reads, and it knows how
to sample datasets or only their column sums, and how to measure the
Mahalanobis geometry of a candidate target record.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import ClassVar, Sequence, Union

import numpy as np

from ._util import ConfigError, as_target, config_checked, config_value
from .score import OracleMoments

__all__ = [
    "Bernoulli",
    "Gaussian",
    "ColumnLaw",
    "ProductDistribution",
    "TargetPoint",
    "make_extreme_targets",
    "target_from_spec",
]


@dataclasses.dataclass(frozen=True)
class Bernoulli:
    """Bernoulli column law with success probability strictly inside (0, 1).

    The open interval is enforced at construction because every precision
    weight downstream divides by the variance p(1 - p).
    """

    p: float
    # whether the column takes values in {0, 1} alone
    binary: ClassVar[bool] = True

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"Bernoulli p must lie strictly in (0, 1), got {self.p}")

    @property
    def mean(self) -> float:
        return self.p

    @property
    def var(self) -> float:
        return self.p * (1.0 - self.p)


@dataclasses.dataclass(frozen=True)
class Gaussian:
    """Gaussian column law with a finite mean and a finite, positive variance."""

    mean: float
    var: float
    binary: ClassVar[bool] = False

    def __post_init__(self):
        # both bounds written so that NaN fails them
        if not -np.inf < self.mean < np.inf:
            raise ValueError(f"Gaussian mean must be finite, got {self.mean}")
        if not 0.0 < self.var < np.inf:
            raise ValueError(f"Gaussian var must be finite and > 0, got {self.var}")


ColumnLaw = Union[Bernoulli, Gaussian]


@dataclasses.dataclass(frozen=True)
class TargetPoint:
    """A candidate target record, a real vector of length d."""

    z: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.z, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"target must be a non-empty 1-D vector, got shape {v.shape}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "z", v)

    @property
    def d(self) -> int:
        return int(self.z.shape[0])


class ProductDistribution:
    """Product of independent column laws.

    Immutable after construction and safe to share across concurrent game
    rounds; all randomness comes from externally supplied generator streams.

    Both supported laws have moments of every order, so the finite
    higher-moment requirements of the asymptotic results hold automatically.
    """

    def __init__(self, columns: Sequence[ColumnLaw]):
        columns = tuple(columns)
        if len(columns) < 1:
            raise ValueError("need at least one column")
        self._columns = columns
        # the one copy of the moments: scores and closed forms read it
        self._om = om = OracleMoments([c.mean for c in columns], [c.var for c in columns])
        binary = np.array([c.binary for c in columns])
        self._all_bernoulli = bool(binary.all())
        if self._all_bernoulli:
            self._p32 = om.mu.astype(np.float32)
        self._bern = np.flatnonzero(binary)
        self._gauss = np.flatnonzero(~binary)
        self._mu_bern = om.mu[self._bern]
        self._mu_gauss = om.mu[self._gauss]
        self._gauss_sd = np.sqrt(om.sigma2[self._gauss])

    # -- construction helpers -------------------------------------------------

    @classmethod
    def bernoulli(cls, p) -> "ProductDistribution":
        """Build an all-Bernoulli product from a vector of probabilities."""
        p = np.atleast_1d(np.asarray(p, dtype=np.float64))
        return cls([Bernoulli(float(v)) for v in p])

    @classmethod
    def gaussian(cls, mean, var) -> "ProductDistribution":
        """Build an all-Gaussian product from mean and variance vectors."""
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        var = np.atleast_1d(np.asarray(var, dtype=np.float64))
        if mean.shape != var.shape:
            raise ValueError("mean and var must have the same length")
        return cls([Gaussian(float(m), float(v)) for m, v in zip(mean, var)])

    @classmethod
    def bernoulli_uniform(cls, d: int, a: float, seed: int) -> "ProductDistribution":
        """Bernoulli product with p drawn once, uniformly from [a, 1 - a]^d.

        The margin ``a`` keeps every coordinate away from the degenerate
        endpoints; the draw is reproducible from ``seed``.
        """
        if not 0.0 < a < 0.5:
            raise ValueError(f"margin a must lie in (0, 0.5), got {a}")
        if d < 1:
            raise ValueError("d must be >= 1")
        p = np.random.default_rng(seed).uniform(a, 1.0 - a, size=d)
        return cls.bernoulli(p)

    @classmethod
    def from_spec(cls, obj: dict) -> "ProductDistribution":
        """Parse a JSON-style distribution spec.

        Two forms are accepted::

            {"columns": [{"law": "bernoulli", "p": 0.3},
                         {"law": "gaussian", "mean": 0, "var": 1}, ...]}
            {"law": "bernoulli_uniform", "d": 5000, "a": 0.25, "seed": 7}
        """
        cols = config_value(obj, "columns", list, None, where="dist")
        try:
            if cols is not None:
                laws = []
                for i in range(len(cols)):
                    col = config_value(cols, i, dict, where="dist.columns")
                    where = f"dist.columns.{i}"
                    law = config_value(col, "law", str, where=where)
                    if law == "bernoulli":
                        laws.append(config_checked(Bernoulli, col, "p", float, where=where))
                    elif law == "gaussian":
                        # the law checks each value, named as it is read
                        mean = config_checked(functools.partial(Gaussian, var=1.0), col,
                                              "mean", float, where=where).mean
                        laws.append(config_checked(functools.partial(Gaussian, mean), col,
                                                   "var", float, where=where))
                    else:
                        raise ConfigError(f"unknown column law: {law!r}")
                return cls(laws)
            if config_value(obj, "law", str, None, where="dist") == "bernoulli_uniform":
                return cls.bernoulli_uniform(config_value(obj, "d", int, where="dist"),
                                             config_value(obj, "a", float, where="dist"),
                                             config_value(obj, "seed", int, where="dist"))
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"bad distribution spec: {e}") from e
        raise ConfigError(
            "distribution spec needs either a 'columns' list or "
            "{'law': 'bernoulli_uniform', 'd', 'a', 'seed'}"
        )

    # -- basic queries --------------------------------------------------------

    @property
    def columns(self) -> tuple:
        return self._columns

    @property
    def d(self) -> int:
        return len(self._columns)

    @property
    def all_bernoulli(self) -> bool:
        return self._all_bernoulli

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (mu, sigma2), the per-column mean and variance vectors:
        the read-only arrays of the distribution's one OracleMoments."""
        return self._om.mu, self._om.sigma2

    # -- sampling -------------------------------------------------------------

    def sample_dataset(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw an (n, d) dataset of i.i.d. rows.

        Deterministic given the generator state. All-Bernoulli products are
        returned as a compact uint8 0/1 matrix (exact values, fast to sample
        and to average); anything involving a Gaussian column is float64.

        Args:
          n: number of rows, >= 1.
          rng: a numpy Generator; consumed.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if self._all_bernoulli:
            u = rng.random((n, self.d), dtype=np.float32)
            return np.less(u, self._p32).view(np.uint8)
        out = np.empty((n, self.d), dtype=np.float64)
        bern, gauss = self._bern, self._gauss
        if bern.size:
            out[:, bern] = rng.random((n, bern.size)) < self._mu_bern
        if gauss.size:
            out[:, gauss] = self._mu_gauss + self._gauss_sd * rng.standard_normal((n, gauss.size))
        return out

    def sample_sums(self, rows: int, rng: np.random.Generator) -> np.ndarray:
        """Column sums of ``rows`` i.i.d. rows, drawn without the rows.

        A Bernoulli column sums to Binomial(rows, p); a Gaussian column to
        rows * mean + sqrt(rows) * sd * N(0, 1). This is the law of
        ``sample_dataset(rows, rng).sum(axis=0)``, not its value: the two
        consume the generator differently. Returns a float64 vector of
        length d; ``rows`` = 0 gives zeros.

        Args:
          rows: number of rows summed, >= 0.
          rng: a numpy Generator; consumed.
        """
        raw = np.empty((1, self.d), dtype=np.float64)
        self._draw_sums(rows, rng, raw[0])
        return self._finish_sums(raw, [rows], np.empty_like(raw))[0]

    def _draw_sums(self, rows: int, rng: np.random.Generator, raw: np.ndarray) -> None:
        """The draws of sample_sums(rows, rng), in its order, written raw
        into the length-d row ``raw`` in draw order: the Binomial(rows, p)
        counts of the Bernoulli columns, then a standard normal for each
        Gaussian column."""
        if rows < 0:
            raise ValueError("rows must be >= 0")
        nb = self._bern.size
        if nb:
            raw[:nb] = rng.binomial(rows, self._mu_bern)
        if nb < self.d:
            rng.standard_normal(out=raw[nb:])

    def _finish_sums(self, raw: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
        """Column sums from a (T, d) block of _draw_sums rows, row i drawn
        for rows[i] rows, written into ``out`` in column order and returned.
        Each Gaussian sum is rows * mean + sqrt(rows) * sd * noise, element
        by element the arithmetic of sample_sums, so a row finishes to the
        same bits alone or in a block."""
        nb = self._bern.size
        out[:, self._bern] = raw[:, :nb]
        if nb < self.d:
            r = np.asarray(rows, dtype=np.float64)[:, None]
            out[:, self._gauss] = r * self._mu_gauss + np.sqrt(r) * self._gauss_sd * raw[:, nb:]
        return out

    # -- Mahalanobis geometry -------------------------------------------------

    def mahalanobis2(self, z) -> float:
        """Squared Mahalanobis distance of ``z`` from the distribution mean,
        sum_j (z_j - mu_j)^2 / sigma_j^2."""
        return self._om.precision_quad(as_target(z, self.d, "z") - self._om.mu)

    def leakage_score(self, z, n: int) -> float:
        """Per-record leakage score, mahalanobis2(z) / n.

        This single number governs the asymptotic power of every attack on
        the exact empirical mean; its expectation over z drawn from the
        distribution itself is d / n.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.mahalanobis2(z) / n


def target_from_spec(obj, dist: ProductDistribution, key: str = "target") -> TargetPoint:
    """Parse a JSON-style target spec against a distribution.

    Accepted forms::

        [0.0, 1.0, ...]                         explicit coordinates
        {"values": [0.0, 1.0, ...]}
        {"extreme": "easy"} / {"extreme": "hard"}   Bernoulli extremes
        {"draw_seed": 11}                       one seeded draw from dist

    The seeded draw gives an in-distribution target whose leakage score
    concentrates around d / n, a natural medium-difficulty choice. ``key``
    is the spec's config key, which error messages name.
    """
    if isinstance(obj, (list, tuple, np.ndarray)):
        return _finite_target(obj, dist.d, key)
    if isinstance(obj, dict):
        if "values" in obj:
            values = config_value(obj, "values", list, where=key)
            return _finite_target(values, dist.d, f"{key}.values")
        if "extreme" in obj:
            easy, hard = make_extreme_targets(dist)
            which = config_value(obj, "extreme", str, where=key)
            if which == "easy":
                return easy
            if which == "hard":
                return hard
            raise ConfigError(f"extreme target must be 'easy' or 'hard', got {which!r}")
        if "draw_seed" in obj:
            rng = np.random.default_rng(config_value(obj, "draw_seed", int, where=key))
            return TargetPoint(dist.sample_dataset(1, rng)[0].astype(np.float64))
    raise ConfigError(
        f"{key} spec must be a coordinate list or an object with "
        "'values', 'extreme', or 'draw_seed'"
    )


def _finite_target(values, d: int, key: str) -> TargetPoint:
    # a null coordinate reads as NaN; as_target's error names the key, and
    # here it is a config error
    try:
        return TargetPoint(as_target(values, d, key))
    except ValueError as e:
        raise ConfigError(str(e)) from e


def make_extreme_targets(dist: ProductDistribution) -> tuple[TargetPoint, TargetPoint]:
    """Return the easiest and hardest binary targets for a Bernoulli product.

    The easy target takes, in each coordinate, the binary value farthest from
    p_j (ties at p_j = 1/2 resolve to 1); the hard target takes the nearest
    one. The easy target maximizes the Mahalanobis distance over {0, 1}^d.

    Raises:
      ValueError: if any column is not Bernoulli.
    """
    if not dist.all_bernoulli:
        raise ValueError("extreme binary targets are defined only for Bernoulli columns")
    p, _ = dist.moments()
    z_easy = (p <= 0.5).astype(np.float64)
    z_hard = (p > 0.5).astype(np.float64)
    return TargetPoint(z_easy), TargetPoint(z_hard)
