"""Product distributions, targets, and leakage scores."""

import numpy as np
import pytest

from mi_audit import (
    Bernoulli,
    Gaussian,
    ProductDistribution,
    TargetPoint,
    make_extreme_targets,
    target_from_spec,
)


class TestColumns:
    def test_bernoulli_validates_open_interval(self):
        Bernoulli(0.5)
        with pytest.raises(ValueError):
            Bernoulli(0.0)
        with pytest.raises(ValueError):
            Bernoulli(1.0)

    def test_gaussian_validates_variance(self):
        Gaussian(0.0, 1.0)
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian(0.0, -1.0)


class TestProductDistribution:
    def test_bernoulli_uniform_range_and_reproducibility(self):
        d1 = ProductDistribution.bernoulli_uniform(200, a=0.25, seed=7)
        d2 = ProductDistribution.bernoulli_uniform(200, a=0.25, seed=7)
        p1, _ = d1.moments()
        p2, _ = d2.moments()
        assert np.array_equal(p1, p2)
        assert np.all(p1 >= 0.25) and np.all(p1 <= 0.75)
        p3, _ = ProductDistribution.bernoulli_uniform(200, a=0.25, seed=8).moments()
        assert not np.array_equal(p1, p3)

    def test_moments_formulas(self):
        dist = ProductDistribution.bernoulli_uniform(50, a=0.3, seed=1)
        mu, sig2 = dist.moments()
        assert np.allclose(sig2, mu * (1 - mu), rtol=0, atol=1e-15)
        gdist = ProductDistribution.gaussian(np.array([1.0, -2.0]), np.array([4.0, 0.25]))
        gmu, gsig2 = gdist.moments()
        assert np.array_equal(gmu, [1.0, -2.0])
        assert np.array_equal(gsig2, [4.0, 0.25])

    def test_moments_read_only(self):
        dist = ProductDistribution.bernoulli_uniform(10, a=0.25, seed=2)
        mu, sig2 = dist.moments()
        with pytest.raises(ValueError):
            mu[0] = 0.9
        with pytest.raises(ValueError):
            sig2[0] = 0.9

    def test_sample_dataset_bernoulli_fast_path(self):
        dist = ProductDistribution.bernoulli_uniform(64, a=0.25, seed=3)
        D = dist.sample_dataset(500, np.random.default_rng(0))
        assert D.shape == (500, 64)
        assert D.dtype == np.uint8
        assert set(np.unique(D)) <= {0, 1}
        # column means agree with p within 4 sigma of the binomial noise
        p, _ = dist.moments()
        se = np.sqrt(p * (1 - p) / 500)
        assert np.all(np.abs(D.mean(axis=0) - p) <= 4 * se)

    def test_sample_dataset_mixed_columns(self):
        dist = ProductDistribution((Bernoulli(0.5), Gaussian(3.0, 4.0)))
        D = dist.sample_dataset(4000, np.random.default_rng(1))
        assert D.dtype == np.float64
        assert set(np.unique(D[:, 0])) <= {0.0, 1.0}
        assert abs(D[:, 1].mean() - 3.0) <= 4 * 2.0 / np.sqrt(4000)
        assert abs(D[:, 1].var() - 4.0) <= 4 * 4.0 * np.sqrt(2 / 4000)

    def test_sample_sums_have_the_law_of_row_sums(self):
        dist = ProductDistribution((Bernoulli(0.3), Gaussian(3.0, 4.0), Bernoulli(0.8)))
        rows, T = 7, 4000
        rng = np.random.default_rng(2)
        S = np.array([dist.sample_sums(rows, rng) for _ in range(T)])
        assert S.dtype == np.float64 and S.shape == (T, 3)
        assert np.array_equal(S[:, [0, 2]], np.rint(S[:, [0, 2]]))
        assert S[:, [0, 2]].min() >= 0 and S[:, [0, 2]].max() <= rows
        mu, sigma2 = dist.moments()
        assert np.all(np.abs(S.mean(axis=0) - rows * mu) <= 5 * np.sqrt(rows * sigma2 / T))
        # about five standard errors of a variance ratio at T = 4000
        assert np.all(np.abs(S.var(axis=0) / (rows * sigma2) - 1) <= 0.12)

    def test_sample_sums_edge_cases(self):
        bern = ProductDistribution.bernoulli_uniform(5, a=0.25, seed=6)
        mixed = ProductDistribution((Bernoulli(0.5), Gaussian(-1.0, 2.0)))
        for dist in (bern, mixed):
            assert np.array_equal(dist.sample_sums(0, np.random.default_rng(3)), np.zeros(dist.d))
            a = dist.sample_sums(9, np.random.default_rng(4))
            assert np.array_equal(a, dist.sample_sums(9, np.random.default_rng(4)))
            with pytest.raises(ValueError):
                dist.sample_sums(-1, np.random.default_rng(5))

    def test_sampling_reproducible_for_equal_seeds(self):
        dist = ProductDistribution.bernoulli_uniform(32, a=0.25, seed=4)
        a = dist.sample_dataset(20, np.random.default_rng(9))
        b = dist.sample_dataset(20, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_from_spec_round_trips(self):
        spec = {"law": "bernoulli_uniform", "d": 12, "a": 0.25, "seed": 5}
        dist = ProductDistribution.from_spec(spec)
        assert dist.d == 12
        cols = {
            "columns": [
                {"law": "bernoulli", "p": 0.4},
                {"law": "gaussian", "mean": 1.0, "var": 2.0},
            ]
        }
        dist2 = ProductDistribution.from_spec(cols)
        mu, sig2 = dist2.moments()
        assert mu.tolist() == [0.4, 1.0]
        assert sig2.tolist() == pytest.approx([0.24, 2.0])
        with pytest.raises(Exception):
            ProductDistribution.from_spec({"law": "zipf", "d": 3})


class TestLeakageScore:
    def test_matches_manual_loop(self):
        dist = ProductDistribution.bernoulli_uniform(30, a=0.25, seed=6)
        z = np.random.default_rng(7).binomial(1, dist.moments()[0]).astype(float)
        mu, sig2 = dist.moments()
        manual = sum((z[j] - mu[j]) ** 2 / sig2[j] for j in range(30))
        assert dist.mahalanobis2(z) == pytest.approx(manual, rel=1e-12)
        assert dist.leakage_score(z, 15) == pytest.approx(manual / 15, rel=1e-12)

    def test_dimension_mismatch_raises(self):
        dist = ProductDistribution.bernoulli_uniform(8, a=0.25, seed=1)
        with pytest.raises(ValueError):
            dist.mahalanobis2(np.ones(9))


class TestExtremeTargets:
    def test_easy_maximizes_over_every_single_flip(self):
        dist = ProductDistribution.bernoulli_uniform(40, a=0.25, seed=8)
        easy, hard = make_extreme_targets(dist)
        m_easy = dist.mahalanobis2(easy)
        m_hard = dist.mahalanobis2(hard)
        z = np.array(easy.z)
        # coordinates are independent, so optimality over {0,1}^d reduces
        # to optimality of each coordinate, checked exhaustively by flips
        for j in range(40):
            flipped = z.copy()
            flipped[j] = 1 - flipped[j]
            assert dist.mahalanobis2(flipped) <= m_easy
        w = np.array(hard.z)
        for j in range(40):
            flipped = w.copy()
            flipped[j] = 1 - flipped[j]
            assert dist.mahalanobis2(flipped) >= m_hard

    def test_beats_random_binary_candidates(self):
        dist = ProductDistribution.bernoulli_uniform(25, a=0.25, seed=9)
        easy, hard = make_extreme_targets(dist)
        rng = np.random.default_rng(10)
        m_easy = dist.mahalanobis2(easy)
        m_hard = dist.mahalanobis2(hard)
        for _ in range(200):
            cand = rng.integers(0, 2, size=25).astype(float)
            m = dist.mahalanobis2(cand)
            assert m_hard <= m <= m_easy

    def test_rejects_non_bernoulli(self):
        dist = ProductDistribution((Bernoulli(0.5), Gaussian(0.0, 1.0)))
        with pytest.raises(ValueError):
            make_extreme_targets(dist)


class TestTargetPoint:
    def test_values_read_only(self):
        t = TargetPoint(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            t.z[0] = 5.0

    def test_target_from_spec_variants(self):
        dist = ProductDistribution.bernoulli_uniform(12, a=0.25, seed=11)
        explicit = target_from_spec([1.0] * 12, dist)
        assert np.array_equal(np.asarray(explicit.z), np.ones(12))
        named = target_from_spec({"values": [0.0] * 12}, dist)
        assert np.array_equal(np.asarray(named.z), np.zeros(12))
        easy = target_from_spec({"extreme": "easy"}, dist)
        ref_easy, _ = make_extreme_targets(dist)
        assert np.array_equal(np.asarray(easy.z), np.asarray(ref_easy.z))
        drawn1 = target_from_spec({"draw_seed": 3}, dist)
        drawn2 = target_from_spec({"draw_seed": 3}, dist)
        assert np.array_equal(np.asarray(drawn1.z), np.asarray(drawn2.z))
        with pytest.raises(Exception):
            target_from_spec({"extreme": "medium-rare"}, dist)
