"""Attack scores: exact, asymptotic, estimated-reference, and variants."""

import copy
import math
import pickle

import numpy as np
import pytest
import scipy.linalg

import oracles
from mi_audit import (
    ConfigError,
    CrafterTranscript,
    EmpiricalMean,
    NoisyMean,
    NumericalError,
    OracleMoments,
    ProductDistribution,
    ReferenceEstimates,
    SCORE_NAMES,
    SubsampledMean,
    estimate_reference,
    lr_asymptotic,
    lr_empirical_cov,
    lr_exact_bernoulli,
    lr_misspecified,
    lr_noisy,
    lr_subsampled,
    make_score,
    scalar_product,
    score_transcript,
    subsample_count,
)
from mi_audit import score


@pytest.fixture
def small_dist():
    return ProductDistribution.bernoulli_uniform(12, a=0.25, seed=21)


@pytest.fixture
def om(small_dist):
    return OracleMoments.from_distribution(small_dist)


class TestOracleMoments:
    def test_from_distribution(self, small_dist, om):
        mu, sig2 = small_dist.moments()
        assert np.array_equal(om.mu, mu)
        assert np.array_equal(om.sigma2, sig2)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            OracleMoments(np.zeros(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_variance(self, bad):
        with pytest.raises(ValueError, match="sigma2 must be finite and > 0"):
            OracleMoments(np.zeros(2), np.array([1.0, bad]))

    def test_is_the_ridge_free_diagonal_case_of_reference_estimates(self, small_dist, om):
        assert isinstance(om, ReferenceEstimates)
        assert om.is_diagonal and om.ridge == 0.0 and om.n0 is None
        assert np.array_equal(om.c0, small_dist.moments()[1])
        with pytest.raises(ValueError, match="n0"):
            ReferenceEstimates(om.mu, om.sigma2, n0=0)


class TestReferenceEstimates:
    def test_diagonal_bilinear_matches_inverse(self):
        rng = np.random.default_rng(22)
        var = rng.uniform(0.5, 2.0, size=6)
        refs = ReferenceEstimates(np.zeros(6), var, n0=10)
        u, v = rng.normal(size=6), rng.normal(size=6)
        cross, quad = refs.precision_pair(u, v)
        assert cross == pytest.approx(float(u @ np.diag(1 / var) @ v), rel=1e-12)
        assert quad == pytest.approx(float(u @ np.diag(1 / var) @ u), rel=1e-12)
        assert refs.precision_quad(u) == quad

    def test_full_bilinear_matches_explicit_inverse(self):
        rng = np.random.default_rng(23)
        B = rng.normal(size=(9, 5))
        cov = B.T @ B / 9 + 0.3 * np.eye(5)
        refs = ReferenceEstimates(np.zeros(5), cov, n0=9)
        inv = np.linalg.inv(cov)
        u, v = rng.normal(size=5), rng.normal(size=5)
        cross, quad = refs.precision_pair(u, v)
        assert cross == pytest.approx(float(u @ inv @ v), rel=1e-10)
        assert quad == pytest.approx(float(u @ inv @ u), rel=1e-10)
        assert refs.precision_quad(u) == quad

    def test_ridge_added_before_factorization(self):
        cov = np.zeros((3, 3))
        refs = ReferenceEstimates(np.zeros(3), cov, n0=5, ridge=0.5)
        assert refs.precision_quad(np.ones(3)) == pytest.approx(3 / 0.5, rel=1e-12)

    @pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("c0", [np.ones(3), np.eye(3)], ids=["diagonal", "full"])
    def test_non_finite_or_negative_ridge_is_rejected(self, c0, ridge):
        with pytest.raises(ValueError, match="ridge"):
            ReferenceEstimates(np.zeros(3), c0, n0=5, ridge=ridge)

    def test_cholesky_factor_reconstructs(self):
        rng = np.random.default_rng(24)
        B = rng.normal(size=(12, 7))
        cov = B.T @ B / 12 + 0.1 * np.eye(7)
        refs = ReferenceEstimates(np.zeros(7), cov, n0=12)
        assert np.max(np.abs(refs._chol @ refs._chol.T - cov)) <= 1e-12

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_whitening_equals_scipy_solve_triangular(self, order, monkeypatch):
        # scipy's cholesky returns a Fortran-ordered factor; a C-ordered one
        # takes solve_triangular's transposed branch
        rng = np.random.default_rng(25)
        B = rng.normal(size=(30, 9))
        cov = B.T @ B / 30
        real = scipy.linalg.cholesky
        monkeypatch.setattr(scipy.linalg, "cholesky",
                            lambda *a, **kw: np.asarray(real(*a, **kw), order=order))
        refs = ReferenceEstimates(np.zeros(9), cov, n0=30, ridge=1e-3)
        assert refs._chol.flags[f"{order}_CONTIGUOUS"]
        for u in rng.normal(size=(20, 9)) * 10.0 ** rng.integers(-3, 4, size=(20, 1)):
            want = scipy.linalg.solve_triangular(refs._chol, u, lower=True)
            assert np.array_equal(refs._whiten(u), want)
        for bad in (np.inf, -np.inf, np.nan):
            u = np.ones(9)
            u[4] = bad
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                scipy.linalg.solve_triangular(refs._chol, u, lower=True)
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                refs.precision_quad(u)

    @pytest.mark.parametrize("form", ["diagonal", "full-F", "full-C"])
    def test_pair_kernel_equals_precision_pair_row_by_row(self, form, monkeypatch):
        # each entry is np.dot of the two vectors whitened on their own, as
        # the per-step code in tests/oracles.py computes it
        rng = np.random.default_rng(29)
        d = 9
        B = rng.normal(size=(30, d))
        if form == "diagonal":
            refs = ReferenceEstimates(np.zeros(d), rng.uniform(0.5, 2.0, d), n0=30, ridge=1e-3)
            var = refs.c0 + refs.ridge

            def pair(u, v):
                return float(np.dot(u / var, v)), float(np.dot(u / var, u))
        else:
            real = scipy.linalg.cholesky
            monkeypatch.setattr(scipy.linalg, "cholesky",
                                lambda *a, **kw: np.asarray(real(*a, **kw), order=form[-1]))
            refs = ReferenceEstimates(np.zeros(d), B.T @ B / 30, n0=30, ridge=1e-3)
            assert refs._chol.flags[f"{form[-1]}_CONTIGUOUS"]

            def pair(u, v):
                wu = scipy.linalg.solve_triangular(refs._chol, u, lower=True)
                wv = scipy.linalg.solve_triangular(refs._chol, v, lower=True)
                return float(np.dot(wu, wv)), float(np.dot(wu, wu))
        U, V = rng.normal(size=(2, 17, d)) * 10.0 ** rng.integers(-3, 4, size=(2, 17, 1))
        cross, quad = refs._pairs(U, V)
        assert cross.shape == quad.shape == (17,)
        for u, v, c, q in zip(U, V, cross, quad):
            assert (c, q) == refs.precision_pair(u, v) == pair(u, v)
        for u in (U[3], U[3:4]):  # one row against every row of V
            cross, quad = refs._pairs(u, V)
            assert cross.shape == (17,) and quad.size == 1
            for v, c in zip(V, cross):
                assert (c, float(quad.flat[0])) == refs.precision_pair(U[3], v) == pair(U[3], v)
        assert refs._pairs(U, U)[1].tolist() == [refs.precision_quad(u) for u in U]

    def test_full_covariance_round_trips_through_pickle(self):
        rng = np.random.default_rng(26)
        B = rng.normal(size=(20, 6))
        refs = ReferenceEstimates(rng.normal(size=6), B.T @ B / 20, n0=20, ridge=1e-3)
        u, v = rng.normal(size=(2, 6))
        for copied in (pickle.loads(pickle.dumps(refs)), copy.deepcopy(refs)):
            assert np.array_equal(copied.c0, refs.c0)
            assert copied.precision_pair(u, v) == refs.precision_pair(u, v)

    def test_rank_deficient_without_ridge_raises_with_eigenvalue(self):
        ones = np.ones((4, 1))
        cov = ones @ ones.T  # rank one
        with pytest.raises(NumericalError, match="eigenvalue"):
            ReferenceEstimates(np.zeros(4), cov, n0=8, ridge=0.0)

    def test_nonpositive_diagonal_names_offender(self):
        with pytest.raises(NumericalError, match="-1"):
            ReferenceEstimates(np.zeros(2), np.array([1.0, -1.0]), n0=4, ridge=0.0)

    def test_caller_arrays_stay_writeable(self):
        mu, c = np.zeros(3), np.ones(3)
        refs = ReferenceEstimates(mu, c, n0=2)
        assert mu.flags.writeable and c.flags.writeable
        mu[0] = c[0] = 5.0
        assert refs.mu0[0] == 0.0 and refs.c0[0] == 1.0
        assert not refs.mu0.flags.writeable and not refs.c0.flags.writeable

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            ReferenceEstimates(np.zeros(2), cov, n0=4)


class TestExactBernoulli:
    def test_matches_binomial_oracle_spot_cases(self):
        mu = np.array([0.4, 0.6, 0.3])
        n = 6
        for z in ([1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]):
            counts = np.array([3, 2, 4])
            mu_hat = counts / n
            ours = lr_exact_bernoulli(mu_hat, np.array(z), mu)
            want = oracles.binomial_log_ratio(mu_hat, z, mu, n)
            assert ours == pytest.approx(want, abs=1e-12)

    def test_impossible_release_gives_minus_infinity(self):
        # a planted one cannot coexist with an all-zeros column
        assert lr_exact_bernoulli(np.array([0.0]), np.array([1.0]), np.array([0.5])) == -math.inf
        assert lr_exact_bernoulli(np.array([1.0]), np.array([0.0]), np.array([0.5])) == -math.inf

    def test_certain_release_single_row(self):
        # n=1 with the target planted: release equals the target exactly
        assert lr_exact_bernoulli(np.array([1.0]), np.array([1.0]), np.array([0.25])) == (
            pytest.approx(math.log(1 / 0.25))
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            lr_exact_bernoulli(np.array([0.5]), np.array([0.5]), np.array([0.5]))
        with pytest.raises(ValueError):
            lr_exact_bernoulli(np.array([1.5]), np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            lr_exact_bernoulli(np.array([0.5]), np.array([1.0]), np.array([1.0]))


class TestAsymptoticScore:
    def test_hand_computed_two_coordinates(self):
        om = OracleMoments(np.array([0.5, 0.25]), np.array([0.25, 0.1875]))
        z = np.array([1.0, 0.0])
        mu_hat = np.array([0.6, 0.2])
        n = 10
        u = z - om.mu
        v = mu_hat - om.mu
        want = float(u @ np.diag(1 / om.sigma2) @ v) - float(
            u @ np.diag(1 / om.sigma2) @ u
        ) / (2 * n)
        assert lr_asymptotic(mu_hat, z, om, n) == pytest.approx(want, rel=1e-14)

    def test_centering_at_null_mean(self, small_dist, om):
        # a release equal to the population mean scores exactly -m/2 * n/n:
        # the bilinear term vanishes and only the penalty remains
        mu, _ = small_dist.moments()
        z = np.ones(small_dist.d)
        n = 8
        want = -small_dist.mahalanobis2(z) / (2 * n)
        assert lr_asymptotic(mu, z, om, n) == pytest.approx(want, rel=1e-12)

    def test_bitwise_equal_to_estimated_route_with_exact_moments(self, small_dist, om):
        # the estimated-covariance score with the true moments and no ridge
        # must agree bit for bit, both routes share one kernel
        refs = ReferenceEstimates(om.mu, om.sigma2, n0=1000, ridge=0.0)
        rng = np.random.default_rng(25)
        n = 30
        for _ in range(25):
            mu_hat = rng.uniform(0.2, 0.8, size=small_dist.d)
            z = rng.integers(0, 2, size=small_dist.d).astype(float)
            assert lr_asymptotic(mu_hat, z, om, n) == lr_empirical_cov(mu_hat, z, refs, n)


class TestScalarProduct:
    def test_formula(self):
        z = np.array([1.0, 0.0, 1.0])
        ref = np.array([0.5, 0.5, 0.5])
        mu_hat = np.array([0.7, 0.1, 0.4])
        assert scalar_product(mu_hat, z, ref) == pytest.approx(
            float((z - ref) @ mu_hat), rel=1e-14
        )

    def test_invariant_to_score_irrelevant_reference_shift(self):
        # shifting z and z_ref together leaves the score unchanged
        rng = np.random.default_rng(26)
        z, ref, mu_hat = rng.normal(size=(3, 5))
        shift = rng.normal(size=5)
        a = scalar_product(mu_hat, z, ref)
        b = scalar_product(mu_hat, z + shift, ref + shift)
        assert a == pytest.approx(b, rel=1e-12)


class TestNoisyScore:
    def test_gamma_zero_bitwise_equals_asymptotic(self, small_dist, om):
        rng = np.random.default_rng(27)
        mu_hat = rng.uniform(0.2, 0.8, size=small_dist.d)
        z = rng.integers(0, 2, size=small_dist.d).astype(float)
        assert lr_noisy(mu_hat, z, om, 0.0, 40) == lr_asymptotic(mu_hat, z, om, 40)

    def test_variance_inflation(self, om):
        # the noisy score is the asymptotic score computed against inflated
        # per-coordinate variances
        rng = np.random.default_rng(28)
        d = om.mu.size
        mu_hat = rng.uniform(0.2, 0.8, size=d)
        z = rng.integers(0, 2, size=d).astype(float)
        gamma = 0.7
        fat = OracleMoments(om.mu, om.sigma2 + gamma**2)
        assert lr_noisy(mu_hat, z, om, gamma, 15) == pytest.approx(
            lr_asymptotic(mu_hat, z, fat, 15), rel=1e-12
        )

    def test_vector_gamma(self, om):
        d = om.mu.size
        gam = np.linspace(0.1, 1.0, d)
        fat = OracleMoments(om.mu, om.sigma2 + gam**2)
        mu_hat = np.full(d, 0.5)
        z = np.zeros(d)
        assert lr_noisy(mu_hat, z, om, gam, 15) == pytest.approx(
            lr_asymptotic(mu_hat, z, fat, 15), rel=1e-12
        )

    def test_negative_gamma_rejected_when_called_and_when_bound(self, small_dist, om):
        half = np.full(small_dist.d, 0.5)
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            lr_noisy(half, half, om, -0.1, 15)
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            make_score("lr_noisy", dist=small_dist, n=15, gamma=-0.1)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), [float("nan")]])
    def test_non_finite_gamma_rejected_when_called_and_when_bound(self, small_dist, om, gamma):
        half = np.full(small_dist.d, 0.5)
        with pytest.raises(ValueError, match="gamma must be >= 0 and finite"):
            lr_noisy(half, half, om, gamma, 15)
        with pytest.raises(ValueError, match="gamma must be >= 0 and finite"):
            make_score("lr_noisy", dist=small_dist, n=15, gamma=gamma)


class TestSubsampledScore:
    @staticmethod
    def _loop_reference(mu_hat, z, mu, sigma2, rho, n):
        # plain-python reimplementation of the published quadratic
        # expansion, summed with math.fsum
        k = subsample_count(rho, n)
        terms = []
        for j in range(len(mu_hat)):
            s = math.sqrt(sigma2[j])
            d_out = math.sqrt(k) * (mu_hat[j] - mu[j]) / s
            d_in = (k * (mu_hat[j] - mu[j]) + (mu[j] - z[j])) / (math.sqrt(k - 1) * s)
            q = d_out**2 - d_in**2
            terms.append(rho / 2 * q + rho * (1 - rho) / 8 * q * q + rho / (2 * k))
        return math.fsum(terms)

    def test_matches_loop_reference(self, small_dist, om):
        rng = np.random.default_rng(29)
        n = 40
        for rho in (0.2, 0.5, 1.0):
            mu_hat = rng.uniform(0.3, 0.7, size=small_dist.d)
            z = rng.integers(0, 2, size=small_dist.d).astype(float)
            want = self._loop_reference(mu_hat, z, om.mu, om.sigma2, rho, n)
            assert lr_subsampled(mu_hat, z, om, rho, n) == pytest.approx(want, rel=1e-12)

    def test_rho_one_quartic_term_vanishes(self, om):
        # at rho=1 the score is exactly the half-difference of the two
        # quadratic forms plus the 1/(2k) drift, with no quartic part
        d = om.mu.size
        mu_hat = np.full(d, 0.55)
        z = np.ones(d)
        n = 30
        want = self._loop_reference(mu_hat, z, om.mu, om.sigma2, 1.0, n)
        quartic_free = sum(
            0.5
            * (
                (math.sqrt(n) * (mu_hat[j] - om.mu[j]) / math.sqrt(om.sigma2[j])) ** 2
                - (
                    (n * (mu_hat[j] - om.mu[j]) + (om.mu[j] - z[j]))
                    / (math.sqrt(n - 1) * math.sqrt(om.sigma2[j]))
                )
                ** 2
            )
            + 1 / (2 * n)
            for j in range(d)
        )
        assert want == pytest.approx(quartic_free, rel=1e-12)
        assert lr_subsampled(mu_hat, z, om, 1.0, n) == pytest.approx(quartic_free, rel=1e-12)

    def test_degenerate_target_is_finite_drift(self, om):
        # a release equal to the population mean with a target equal to it
        # too carries no signal; only the deterministic drift term survives
        d = om.mu.size
        n = 50
        k = subsample_count(0.5, n)
        score = lr_subsampled(om.mu.copy(), om.mu.copy(), om, 0.5, n)
        assert score == pytest.approx(d * 0.5 / (2 * k), rel=1e-12)

    def test_requires_two_subsampled_rows(self, om):
        with pytest.raises(ValueError):
            lr_subsampled(om.mu, np.zeros(om.mu.size), om, 0.05, 10)


class TestMisspecifiedScore:
    def test_equals_asymptotic_at_guess(self, small_dist, om):
        rng = np.random.default_rng(30)
        z_guess = rng.integers(0, 2, size=small_dist.d).astype(float)
        mu_hat = rng.uniform(0.3, 0.7, size=small_dist.d)
        assert lr_misspecified(mu_hat, z_guess, om, 20) == lr_asymptotic(
            mu_hat, z_guess, om, 20
        )


class TestScoreFactory:
    def test_names_cover_factory(self, small_dist):
        n = 25
        mech = EmpiricalMean()
        refs0 = ReferenceEstimates(*small_dist.moments(), n0=100)
        z = np.ones(small_dist.d)
        kwargs = {
            "lr_exact_bernoulli": {},
            "lr_asymptotic": {},
            "lr_empirical_cov": {"refs": refs0},
            "scalar_product": {},
            "lr_noisy": {"gamma": 0.5},
            "lr_subsampled": {"rho": 0.5},
            "lr_misspecified": {"z_targ": z},
        }
        assert set(SCORE_NAMES) == set(kwargs)
        mu_hat = np.full(small_dist.d, 0.5)
        for name, kw in kwargs.items():
            fn = make_score(name, dist=small_dist, n=n, mech=mech, **kw)
            val = fn(mu_hat, z)
            assert isinstance(val, float) and np.isfinite(val)

    def test_mechanism_side_information_flows_from_mech(self, small_dist):
        n = 25
        z = np.ones(small_dist.d)
        mu_hat = np.full(small_dist.d, 0.5)
        om = OracleMoments.from_distribution(small_dist)
        via_mech = make_score("lr_noisy", dist=small_dist, n=n, mech=NoisyMean(0.8))
        assert via_mech(mu_hat, z) == lr_noisy(mu_hat, z, om, 0.8, n)
        via_mech = make_score("lr_subsampled", dist=small_dist, n=n, mech=SubsampledMean(0.4))
        assert via_mech(mu_hat, z) == lr_subsampled(mu_hat, z, om, 0.4, n)

    def test_misspecified_ignores_round_target(self, small_dist):
        z_guess = np.zeros(small_dist.d)
        fn = make_score("lr_misspecified", dist=small_dist, n=10, z_targ=z_guess)
        mu_hat = np.full(small_dist.d, 0.5)
        a = fn(mu_hat, np.ones(small_dist.d))
        b = fn(mu_hat, np.zeros(small_dist.d))
        assert a == b

    def test_unknown_name_lists_valid_ones(self, small_dist):
        with pytest.raises(ConfigError) as err:
            make_score("lr_quadratic", dist=small_dist, n=5)
        for name in SCORE_NAMES:
            assert name in str(err.value)

    def test_exact_bernoulli_needs_bernoulli_columns(self):
        from mi_audit.dist import Bernoulli, Gaussian

        mixed = ProductDistribution([Bernoulli(0.3), Gaussian(0.5, 1.0)])
        with pytest.raises(ConfigError, match="Bernoulli"):
            make_score("lr_exact_bernoulli", dist=mixed, n=5)

    def test_subsample_size_is_checked_once_when_bound(self, small_dist, monkeypatch):
        for kw in ({"rho": 0.01}, {"mech": SubsampledMean(0.01)}, {"rho": 0.12}):
            with pytest.raises(ConfigError, match="^lr_subsampled needs a subsample of >= 2 rows"):
                make_score("lr_subsampled", dist=small_dist, n=10, **kw)
        sizes = []
        real = score._subsample_size

        def counting(rho, n):
            sizes.append((rho, n))
            return real(rho, n)

        monkeypatch.setattr(score, "_subsample_size", counting)
        fn = make_score("lr_subsampled", dist=small_dist, n=10, rho=0.2)
        O = np.full((5, small_dist.d), 0.5)
        fn.block(O, np.ones(small_dist.d))
        fn(O[0], np.ones(small_dist.d))
        assert sizes == [(0.2, 10)]

    def test_missing_side_information_rejected(self, small_dist):
        with pytest.raises(ConfigError):
            make_score("lr_empirical_cov", dist=small_dist, n=5)
        with pytest.raises(ConfigError):
            make_score("lr_noisy", dist=small_dist, n=5)
        with pytest.raises(ConfigError):
            make_score("lr_subsampled", dist=small_dist, n=5)
        with pytest.raises(ConfigError):
            make_score("lr_misspecified", dist=small_dist, n=5)


def _bound_scores(dist, n, rng):
    # every SCORE_NAMES entry bound on dist, lr_empirical_cov twice: on
    # diagonal and on full reference estimates
    ref_rows = dist.sample_dataset(60, rng)
    kwargs = {"mech": SubsampledMean(0.5), "gamma": 0.7, "z_targ": np.full(dist.d, 0.4)}
    scores = {}
    for name in SCORE_NAMES:
        if name == "lr_exact_bernoulli" and not dist.all_bernoulli:
            continue
        if name == "lr_empirical_cov":
            for mode in ("diagonal", "full"):
                refs = estimate_reference(ref_rows, cov_mode=mode, ridge=0.05)
                scores[f"{name}/{mode}"] = make_score(name, dist=dist, n=n, refs=refs)
            continue
        scores[name] = make_score(name, dist=dist, n=n, **kwargs)
    return scores


class TestBlockForms:
    """Each bound score's block form equals one call per row, bit for bit."""

    @pytest.mark.parametrize("d", [5, 50, 700])
    def test_every_block_form_equals_its_per_round_score(self, d):
        rng = np.random.default_rng(27 + d)
        n = 200  # no count of 0 or n but the planted one
        bern = ProductDistribution.bernoulli(rng.uniform(0.2, 0.8, d))
        z = rng.integers(0, 2, size=d).astype(np.float64)
        counts = rng.binomial(n, bern.moments()[0], size=(40, d)).astype(np.float64)
        counts[7, np.argmax(z)] = 0.0  # impossible with the target planted
        O = counts / n
        mixed = ProductDistribution.gaussian(rng.normal(size=d), rng.uniform(0.5, 2.0, d))
        zg = rng.normal(size=d)
        Og = rng.normal(size=(40, d)) * 0.3
        # one target per release: binary rows that keep every count possible
        Z = (O > 0.5).astype(np.float64)
        Zg = rng.normal(size=(40, d))
        for dist, zz, ZZ, block in ((bern, z, Z, O), (mixed, zg, Zg, Og)):
            for name, fn in _bound_scores(dist, n, rng).items():
                want = [fn(o, zz) for o in block]
                got = fn.block(block, zz)
                assert got.shape == (40,), name
                assert got.tolist() == want, name
                assert fn.block(block, ZZ).tolist() == [fn(o, zi) for o, zi in zip(block, ZZ)], name
                if name == "lr_misspecified":
                    continue  # scores every release against its fixed guess
                for rows in (1, 39):
                    with pytest.raises(ValueError):
                        fn.block(block, ZZ[:rows])
        sentinel = make_score("lr_exact_bernoulli", dist=bern, n=n).block(O, z)
        assert sentinel[7] == -np.inf and np.isfinite(np.delete(sentinel, 7)).all()

    def test_full_reference_block_whitens_each_release_once(self, monkeypatch):
        rng = np.random.default_rng(30)
        d, T = 7, 12
        dist = ProductDistribution.gaussian(rng.normal(size=d), rng.uniform(0.5, 2.0, d))
        refs = estimate_reference(dist.sample_dataset(60, rng), cov_mode="full")
        fn = make_score("lr_empirical_cov", dist=dist, n=10, refs=refs)
        z, O = rng.normal(size=d), rng.normal(size=(T, d))
        want = [fn(o, z) for o in O]
        solves = []
        real = score._TRTRS

        def counting(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(score, "_TRTRS", counting)
        got = fn.block(O, z)
        assert len(solves) == T + 1  # the target once, then each release
        assert got.tolist() == want

    def test_block_failures_name_the_first_bad_round(self, small_dist):
        rng = np.random.default_rng(28)
        d = small_dist.d
        z = np.ones(d)
        O = np.full((12, d), 0.5)
        refs = estimate_reference(small_dist.sample_dataset(40, rng), cov_mode="full", ridge=0.1)
        cases = [
            ("lr_asymptotic", {}, 5, np.nan, NumericalError, "score is NaN"),
            ("lr_empirical_cov", {"refs": refs}, 4, np.inf, ValueError,
             "array must not contain infs or NaNs"),
            ("lr_exact_bernoulli", {}, 2, 1.5, ValueError,
             r"mu_hat must lie in \[0, 1\] component-wise"),
            ("scalar_product", {}, 9, np.nan, NumericalError, "score is NaN"),
        ]
        for name, kw, t, bad, err, text in cases:
            outputs = O.copy()
            outputs[t, 3] = bad
            outputs[t + 1, 0] = bad
            tr = CrafterTranscript(outputs=outputs, bits=np.zeros(12, dtype=np.uint8))
            fn = make_score(name, dist=small_dist, n=10, **kw)
            with pytest.raises(err, match=rf"^round {t}: {text}$"):
                score_transcript(tr, fn, z)
