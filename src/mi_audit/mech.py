"""Release mechanisms: exact, noisy, and subsampled empirical means.

Each mechanism releases a length-d vector by two routes. ``apply`` consumes
an (n, d) dataset and an RNG stream. ``release`` draws the same law without
the dataset: every mechanism here depends on its rows only through their
column sums, so it asks a :class:`~mi_audit.dist.ProductDistribution` for
the sums of the rows it averages and adds the planted target itself. The
game crafter calls the chunk form of ``release``, of which ``release`` is
the one-round case: each round makes its draws in ``release``'s order on
its own generator, and one pass of array arithmetic then finishes the
whole chunk, element by element as ``release`` finishes one round.
Mechanisms are immutable value objects so one instance can be shared
across concurrent game rounds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._util import ConfigError

__all__ = [
    "EmpiricalMean",
    "NoisyMean",
    "SubsampledMean",
    "subsample_count",
    "mechanism_from_spec",
]


def _check_dataset(D) -> np.ndarray:
    D = np.asarray(D)
    if D.ndim != 2 or D.shape[0] < 1:
        raise ValueError(f"dataset must be a non-empty 2-D matrix, got shape {D.shape}")
    return D


def _planted_means(dist, rows: int, z: np.ndarray, planted, raw: np.ndarray, out: np.ndarray):
    # finish a block of _draw_sums rows into out, as means of `rows` rows
    # with the target among them in row i when planted[i] is 1:
    # (S(rows - planted) + planted z) / rows
    planted = np.asarray(planted, dtype=np.intp)
    dist._finish_sums(raw, rows - planted, out)
    out[planted == 1] += z
    out /= rows
    return out


def _release(mech, dist, n: int, z: np.ndarray, b: int, rng: np.random.Generator):
    # a mechanism's release: the one-round case of its _release_rounds
    return mech._release_rounds(dist, n, z, [(b, rng)], np.empty((1, dist.d)))[0]


def subsample_count(rho: float, n: int) -> int:
    """Number of rows kept at rate rho, round(rho * n) floored at 1."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"subsampling rate must lie in (0, 1], got {rho}")
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(1, int(round(rho * n)))


@dataclasses.dataclass(frozen=True)
class EmpiricalMean:
    """Releases the exact column-wise mean."""

    def apply(self, D, rng: np.random.Generator | None = None) -> np.ndarray:
        D = _check_dataset(D)
        return D.mean(axis=0, dtype=np.float64)

    def release(self, dist, n: int, z: np.ndarray, b: int, rng: np.random.Generator):
        """Mean of n i.i.d. rows of ``dist``, one of them replaced by the
        target ``z`` when b is 1: (S(n - b) + b z) / n, S the column sums."""
        return _release(self, dist, n, z, b, rng)

    def _release_rounds(self, dist, n: int, z: np.ndarray, rounds, out: np.ndarray):
        """release for a chunk of rounds. ``rounds`` yields each round's
        (b, rng) in order, and row i of ``out`` receives round i's release.
        Each round makes release's draws on its own generator; one pass
        then finishes the block."""
        raw = np.empty_like(out)
        planted = []
        for i, (b, rng) in enumerate(rounds):
            dist._draw_sums(n - b, rng, raw[i])
            planted.append(b)
        return _planted_means(dist, n, z, planted, raw, out)


@dataclasses.dataclass(frozen=True, eq=False)
class NoisyMean:
    """Releases the column mean plus centered Gaussian noise with standard
    deviation gamma_j / sqrt(n) in coordinate j.

    ``gamma`` may be a scalar (broadcast to every coordinate) or a length-d
    vector of non-negative noise scales.
    """

    gamma: object

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim > 1:
            raise ValueError(f"gamma must be a scalar or 1-D vector, got shape {g.shape}")
        if np.any(g < 0):
            raise ValueError("gamma must be >= 0 component-wise")
        g = np.atleast_1d(g).copy()
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    def _check_columns(self, d: int) -> None:
        if self.gamma.shape[0] not in (1, d):
            raise ValueError(
                f"gamma has length {self.gamma.shape[0]} but the dataset has {d} columns"
            )

    def apply(self, D, rng: np.random.Generator) -> np.ndarray:
        D = _check_dataset(D)
        n, d = D.shape
        self._check_columns(d)
        noise = rng.standard_normal(d) * (self.gamma / np.sqrt(n))
        return D.mean(axis=0, dtype=np.float64) + noise

    def release(self, dist, n: int, z: np.ndarray, b: int, rng: np.random.Generator):
        """The exact mean of :meth:`EmpiricalMean.release`, then the noise."""
        return _release(self, dist, n, z, b, rng)

    def _release_rounds(self, dist, n: int, z: np.ndarray, rounds, out: np.ndarray):
        """release for a chunk of rounds, as :meth:`EmpiricalMean._release_rounds`;
        each round draws its noise after its sums."""
        self._check_columns(dist.d)
        raw = np.empty_like(out)
        noise = np.empty_like(out)
        planted = []
        for i, (b, rng) in enumerate(rounds):
            dist._draw_sums(n - b, rng, raw[i])
            rng.standard_normal(out=noise[i])
            planted.append(b)
        _planted_means(dist, n, z, planted, raw, out)
        noise *= self.gamma / np.sqrt(n)
        out += noise
        return out


@dataclasses.dataclass(frozen=True)
class SubsampledMean:
    """Releases the exact mean of k = round(rho * n) rows chosen uniformly
    without replacement, independently of the data.

    A given row is kept with probability q = k / n. When it is dropped the
    release carries no trace of it, so the optimal attack's trade-off curve
    is a mixture over that event (see :func:`mi_audit.theory.tradeoff_curve`),
    not the Gaussian curve of the discounted score rho * m.
    """

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"subsampling rate must lie in (0, 1], got {self.rho}")

    def k(self, n: int) -> int:
        return subsample_count(self.rho, n)

    def apply(self, D, rng: np.random.Generator) -> np.ndarray:
        D = _check_dataset(D)
        n = D.shape[0]
        k = self.k(n)
        # Partial Fisher-Yates: after i swaps, idx[:i] is a uniform ordered
        # i-subset. Draws are batched; the swap loop itself is rng-free.
        idx = np.arange(n)
        js = rng.integers(low=np.arange(k), high=n)
        for i, j in enumerate(js):
            idx[i], idx[j] = idx[j], idx[i]
        return D[idx[:k]].mean(axis=0, dtype=np.float64)

    def release(self, dist, n: int, z: np.ndarray, b: int, rng: np.random.Generator):
        """Mean of the k kept rows. A planted target is kept with
        probability k / n, i ~ Bernoulli(k / n), and the release is then
        (S(k - i) + i z) / k."""
        return _release(self, dist, n, z, b, rng)

    def _release_rounds(self, dist, n: int, z: np.ndarray, rounds, out: np.ndarray):
        """release for a chunk of rounds, as :meth:`EmpiricalMean._release_rounds`;
        only a heads round draws whether its target is kept."""
        k = self.k(n)
        raw = np.empty_like(out)
        kept = []
        for i, (b, rng) in enumerate(rounds):
            i_kept = int(b == 1 and rng.random() < k / n)
            dist._draw_sums(k - i_kept, rng, raw[i])
            kept.append(i_kept)
        return _planted_means(dist, k, z, kept, raw, out)


def mechanism_from_spec(obj: dict):
    """Parse a JSON-style mechanism spec.

    Accepted forms::

        {"mechanism": "empirical_mean"}
        {"mechanism": "noisy_mean", "gamma_scalar": 0.5}
        {"mechanism": "noisy_mean", "gamma": [0.5, 1.0, ...]}
        {"mechanism": "subsampled_mean", "rho": 0.5}
    """
    kind = obj.get("mechanism")
    try:
        if kind == "empirical_mean":
            return EmpiricalMean()
        if kind == "noisy_mean":
            if "gamma_scalar" in obj:
                return NoisyMean(float(obj["gamma_scalar"]))
            if "gamma" in obj:
                return NoisyMean(np.asarray(obj["gamma"], dtype=np.float64))
            raise ConfigError("noisy_mean spec needs 'gamma_scalar' or 'gamma'")
        if kind == "subsampled_mean":
            return SubsampledMean(float(obj["rho"]))
    except KeyError as e:
        raise ConfigError(f"mechanism spec missing key {e}") from e
    except (TypeError, ValueError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"bad mechanism spec: {e}") from e
    raise ConfigError(
        f"unknown mechanism {kind!r}; expected one of "
        "'empirical_mean', 'noisy_mean', 'subsampled_mean'"
    )
