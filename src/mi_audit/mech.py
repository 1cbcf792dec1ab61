"""Release mechanisms: exact, noisy, and subsampled empirical means.

Each mechanism releases a length-d vector by two routes. ``apply`` consumes
an (n, d) dataset and an RNG stream. ``release`` draws the same law without
the dataset: every mechanism here depends on its rows only through their
column sums, so it asks a :class:`~mi_audit.dist.ProductDistribution` for
the sums of the rows it averages and adds the planted target itself. The
three means share that release body. The game crafter calls its chunk
form, of which ``release`` is the one-round case: each round makes its
draws in ``release``'s order on its own generator, and one pass of array
arithmetic then finishes the whole chunk, with one target for every round
or one per round, element by element as ``release`` finishes one round.
Mechanisms are immutable value objects so one instance can be shared
across concurrent game rounds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._util import ConfigError, check_rate, config_checked, config_value

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


def subsample_count(rho: float, n: int) -> int:
    """Number of rows kept at rate rho, round(rho * n) floored at 1."""
    check_rate(rho, "subsampling rate")
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(1, int(round(rho * n)))


class _ColumnMean:
    """The release body the three means share. A mechanism supplies the
    rows it averages (``_rows``), whether a heads target is among them
    (``_kept``), and the scale of its noise (``_noise_scale``)."""

    def _rows(self, n: int) -> int:
        return n

    def _kept(self, b: int, rows: int, n: int, rng: np.random.Generator) -> int:
        return b

    def _noise_scale(self, d: int, n: int):
        return None

    def release(self, dist, n: int, z: np.ndarray, b: int, rng: np.random.Generator):
        """Mean of r i.i.d. rows of ``dist``, r the rows the mechanism
        averages, with the target ``z`` in place of one of them when i is 1:
        (S(r - i) + i z) / r, S the column sums, then the mechanism's noise.
        i is b, or for a subsampled mean a Bernoulli(r / n) draw on heads."""
        return self._release_rounds(dist, n, z, [(b, rng)], np.empty((1, dist.d)))[0]

    def _release_rounds(self, dist, n: int, z: np.ndarray, rounds, out: np.ndarray):
        """release for a chunk of rounds. ``rounds`` yields each round's
        (b, rng) in order, row i of ``out`` receives round i's release, and
        ``z`` is the target of every round, (d,), or of round i in row i of
        a (T, d) block. Each round makes release's draws on its own
        generator: whether its target is kept, the sums, then the noise. One
        pass then finishes the block."""
        rows = self._rows(n)
        scale = self._noise_scale(dist.d, n)
        raw = np.empty_like(out)
        noise = None if scale is None else np.empty_like(out)
        kept = np.empty(len(out), dtype=np.intp)
        for i, (b, rng) in enumerate(rounds):
            kept[i] = k = self._kept(b, rows, n, rng)
            dist._draw_sums(rows - k, rng, raw[i])
            if noise is not None:
                rng.standard_normal(out=noise[i])
        dist._finish_sums(raw, rows - kept, out)
        hit = kept == 1
        out[hit] += z[hit] if np.ndim(z) == 2 else z
        out /= rows
        if noise is not None:
            noise *= scale
            out += noise
        return out


def _noise_scales(gamma, d: int | None = None) -> np.ndarray:
    """``gamma`` as a float array of noise scales, a scalar or a vector of
    them, each finite and >= 0. With ``d`` given, a vector has 1 or d
    entries."""
    g = np.asarray(gamma, dtype=np.float64)
    if g.ndim > 1:
        raise ValueError(f"gamma must be a scalar or 1-D vector, got shape {g.shape}")
    if not np.all((g >= 0) & (g < np.inf)):  # written so that NaN fails it
        raise ValueError("gamma must be >= 0 and finite component-wise")
    if d is not None and g.ndim == 1 and g.shape[0] not in (1, d):
        raise ValueError(f"gamma has length {g.shape[0]} but the dataset has {d} columns")
    return g


@dataclasses.dataclass(frozen=True)
class EmpiricalMean(_ColumnMean):
    """Releases the exact column-wise mean."""

    def apply(self, D, rng: np.random.Generator | None = None) -> np.ndarray:
        D = _check_dataset(D)
        return D.mean(axis=0, dtype=np.float64)


@dataclasses.dataclass(frozen=True, eq=False)
class NoisyMean(_ColumnMean):
    """Releases the column mean plus centered Gaussian noise with standard
    deviation gamma_j / sqrt(n) in coordinate j.

    ``gamma`` may be a scalar (broadcast to every coordinate) or a length-d
    vector of finite, non-negative noise scales.
    """

    gamma: object

    def __post_init__(self):
        g = np.atleast_1d(_noise_scales(self.gamma)).copy()
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    def apply(self, D, rng: np.random.Generator) -> np.ndarray:
        D = _check_dataset(D)
        n, d = D.shape
        scale = self._noise_scale(d, n)
        return D.mean(axis=0, dtype=np.float64) + rng.standard_normal(d) * scale

    def _noise_scale(self, d: int, n: int):
        # checked before anything is drawn
        return _noise_scales(self.gamma, d) / np.sqrt(n)


@dataclasses.dataclass(frozen=True)
class SubsampledMean(_ColumnMean):
    """Releases the exact mean of k = round(rho * n) rows chosen uniformly
    without replacement, independently of the data.

    A given row is kept with probability q = k / n. When it is dropped the
    release carries no trace of it, so the optimal attack's trade-off curve
    is a mixture over that event (see :func:`mi_audit.theory.tradeoff_curve`),
    not the Gaussian curve of the discounted score rho * m.
    """

    rho: float

    def __post_init__(self):
        check_rate(self.rho, "subsampling rate")

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

    def _rows(self, n: int) -> int:
        return self.k(n)

    def _kept(self, b: int, rows: int, n: int, rng: np.random.Generator) -> int:
        # only a heads round draws whether its target is among the k rows
        return int(b == 1 and rng.random() < rows / n)


def mechanism_from_spec(obj: dict):
    """Parse a JSON-style mechanism spec.

    Accepted forms::

        {"mechanism": "empirical_mean"}
        {"mechanism": "noisy_mean", "gamma_scalar": 0.5}
        {"mechanism": "noisy_mean", "gamma": [0.5, 1.0, ...]}
        {"mechanism": "subsampled_mean", "rho": 0.5}
    """
    kind = config_value(obj, "mechanism", str, where="mechanism")
    if kind == "empirical_mean":
        return EmpiricalMean()
    if kind == "noisy_mean":
        if "gamma_scalar" in obj:
            return config_checked(NoisyMean, obj, "gamma_scalar", float, where="mechanism")
        if "gamma" in obj:
            return config_checked(NoisyMean, obj, "gamma", list, where="mechanism")
        raise ConfigError("noisy_mean spec needs 'gamma_scalar' or 'gamma'")
    if kind == "subsampled_mean":
        return config_checked(SubsampledMean, obj, "rho", float, where="mechanism")
    raise ConfigError(
        f"unknown mechanism {kind!r}; expected one of "
        "'empirical_mean', 'noisy_mean', 'subsampled_mean'"
    )
