"""Release mechanisms: exact, noisy, and subsampled means."""

import numpy as np
import pytest

from mi_audit import (
    EmpiricalMean,
    NoisyMean,
    SubsampledMean,
    mechanism_from_spec,
    subsample_count,
)


@pytest.fixture
def rows():
    return np.random.default_rng(0).normal(size=(40, 6))


class TestEmpiricalMean:
    def test_column_means_float64(self, rows):
        out = EmpiricalMean().apply(rows, np.random.default_rng(1))
        assert out.dtype == np.float64
        assert np.allclose(out, rows.mean(axis=0), rtol=0, atol=1e-15)

    def test_uint8_input_upcast(self):
        D = np.random.default_rng(2).integers(0, 2, size=(30, 4)).astype(np.uint8)
        out = EmpiricalMean().apply(D, np.random.default_rng(3))
        assert out.dtype == np.float64
        assert np.allclose(out, D.astype(float).mean(axis=0), atol=1e-15)

    def test_row_permutation_equivariant(self, rows):
        rng = np.random.default_rng(4)
        perm = rng.permutation(rows.shape[0])
        a = EmpiricalMean().apply(rows, np.random.default_rng(5))
        b = EmpiricalMean().apply(rows[perm], np.random.default_rng(5))
        assert np.allclose(a, b, rtol=0, atol=1e-12)


class TestNoisyMean:
    def test_gamma_zero_is_exact_mean(self, rows):
        out = NoisyMean(0.0).apply(rows, np.random.default_rng(6))
        assert np.allclose(out, rows.mean(axis=0), rtol=0, atol=1e-15)

    def test_noise_scale_matches_contract(self):
        # output = mean + (1/sqrt(n)) * N(0, diag gamma^2); check the
        # empirical variance of the noise over many draws at 4 sigma
        n, d, reps, gamma = 25, 3, 4000, 1.5
        D = np.zeros((n, d))
        draws = np.array(
            [NoisyMean(gamma).apply(D, np.random.default_rng(100 + i)) for i in range(reps)]
        )
        want = gamma**2 / n
        var = draws.var(axis=0)
        se = want * np.sqrt(2 / reps)
        assert np.all(np.abs(var - want) <= 4 * se)

    def test_vector_gamma_broadcast(self, rows):
        gam = np.array([0.0, 1.0, 0.0, 2.0, 0.0, 3.0])
        out = NoisyMean(gam).apply(rows, np.random.default_rng(7))
        mean = rows.mean(axis=0)
        assert out[0] == mean[0] and out[2] == mean[2] and out[4] == mean[4]
        assert out[1] != mean[1] and out[5] != mean[5]

    def test_same_rng_same_noise(self, rows):
        a = NoisyMean(1.0).apply(rows, np.random.default_rng(8))
        b = NoisyMean(1.0).apply(rows, np.random.default_rng(8))
        assert np.array_equal(a, b)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            NoisyMean(-0.5)
        with pytest.raises(ValueError):
            NoisyMean(np.array([0.5, -0.1]))
        # NaN fails every comparison, so the bound must reject it too
        for gamma in (float("nan"), [np.inf], [0.5, np.nan], -np.inf):
            with pytest.raises(ValueError, match="finite"):
                NoisyMean(gamma)


class TestSubsampledMean:
    def test_rho_one_keeps_every_row(self, rows):
        out = SubsampledMean(1.0).apply(rows, np.random.default_rng(9))
        assert np.allclose(out, rows.mean(axis=0), rtol=0, atol=1e-12)

    def test_rho_validation(self):
        SubsampledMean(0.01)
        with pytest.raises(ValueError):
            SubsampledMean(0.0)
        with pytest.raises(ValueError):
            SubsampledMean(1.2)

    def test_subsample_count_boundaries(self):
        assert subsample_count(1.0, 17) == 17
        assert subsample_count(0.5, 1000) == 500
        assert subsample_count(1e-6, 50) == 1  # floor of one row
        assert subsample_count(0.25, 1000) == 250

    def test_output_is_mean_of_k_distinct_rows(self):
        # mark each row with a distinct power of two so any subset mean
        # identifies exactly which rows were picked
        n, k = 16, 4
        D = (2.0 ** np.arange(n))[:, None] * np.ones((n, 1))
        out = SubsampledMean(k / n).apply(D, np.random.default_rng(10))
        total = int(round(out[0] * k))
        picked = [i for i in range(n) if (total >> i) & 1]
        assert len(picked) == k
        assert bin(total).count("1") == k

    def test_inclusion_is_uniform(self):
        # over many draws every row should be picked with frequency k/n
        n, k, reps = 10, 3, 6000
        D = np.eye(n)
        counts = np.zeros(n)
        for i in range(reps):
            out = SubsampledMean(k / n).apply(D, np.random.default_rng(2000 + i))
            counts += (out * k).round()
        freq = counts / reps
        se = np.sqrt((k / n) * (1 - k / n) / reps)
        assert np.all(np.abs(freq - k / n) <= 4.5 * se)

    def test_unconditional_output_moments(self):
        # with random data the unconditional variance of each released
        # coordinate is sigma^2 / k
        rng = np.random.default_rng(11)
        n, k, reps = 20, 5, 5000
        draws = np.empty(reps)
        for i in range(reps):
            D = rng.normal(size=(n, 1))
            draws[i] = SubsampledMean(k / n).apply(D, rng)[0]
        want = 1.0 / k
        assert abs(draws.var() - want) <= 4 * want * np.sqrt(2 / reps)


class TestSpecParsing:
    def test_known_mechanisms(self):
        assert isinstance(mechanism_from_spec({"mechanism": "empirical_mean"}), EmpiricalMean)
        nm = mechanism_from_spec({"mechanism": "noisy_mean", "gamma_scalar": 0.5})
        assert isinstance(nm, NoisyMean)
        nv = mechanism_from_spec({"mechanism": "noisy_mean", "gamma": [0.1, 0.2]})
        assert isinstance(nv, NoisyMean)
        sm = mechanism_from_spec({"mechanism": "subsampled_mean", "rho": 0.5})
        assert isinstance(sm, SubsampledMean)
        assert sm.rho == 0.5

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(Exception):
            mechanism_from_spec({"mechanism": "winsorized_mean"})
