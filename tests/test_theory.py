"""Closed-form leakage, trade-off, and curve-distance checks."""

import copy
import dataclasses
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from mi_audit import (
    EmpiricalMean,
    NoisyMean,
    ProductDistribution,
    ScoredRound,
    SubsampledMean,
    TradeoffCurve,
    cross_leakage,
    effective_leakage,
    gdp_delta,
    make_extreme_targets,
    make_score,
    misspec_advantage,
    noisy_leakage_score,
    optimal_threshold,
    phi,
    phi_inv,
    polyline_gap,
    roc,
    run_crafter,
    score_transcript,
    subsampled_leakage_score,
    subsampled_power,
    subsample_count,
    sup_norm_gap,
    theoretical_leakage,
    theoretical_power,
    tradeoff_curve,
    tv_gaussians,
    vertical_gap,
)
from mi_audit.theory import _densify, _theory_polyline

# the acceptance tolerance for an empirical ROC against its closed form
SUP_TOL = 0.05


NAN = float("nan")
PTS = np.array([[0.0, 0.0], [0.3, 0.6], [1.0, 1.0]])


class TestNanScores:
    """Every closed form that takes a leakage score rejects a NaN one, and
    every epsilon bound rejects a NaN epsilon, rather than return NaN."""

    @pytest.mark.parametrize("call", [
        lambda: theoretical_leakage(NAN),
        lambda: theoretical_power(NAN, 0.5),
        lambda: theoretical_power(NAN, np.linspace(0, 1, 5)),
        lambda: optimal_threshold(NAN, 0.05),
        lambda: subsampled_leakage_score(NAN, 0.5),
        lambda: misspec_advantage(NAN, 1.0),
        lambda: misspec_advantage(0.5, NAN),
        lambda: gdp_delta(NAN, 1.0),
        lambda: subsampled_power(NAN, 0.5, 0.2),
        lambda: TradeoffCurve.from_leakage(NAN),
        lambda: TradeoffCurve.from_leakage(NAN, num=5, q=0.5),
        lambda: TradeoffCurve(m_eff=NAN, alphas=np.array([0.0, 1.0]),
                              powers=np.array([0.0, 1.0])),
        lambda: sup_norm_gap(PTS, NAN),
        lambda: vertical_gap(PTS, NAN),
    ], ids=["leakage", "power", "power-grid", "threshold", "subsampled-score",
            "misspec-m_scal", "misspec-m_targ", "gdp", "subsampled-power", "curve",
            "curve-mixture", "curve-fields", "sup_norm_gap", "vertical_gap"])
    def test_nan_score_is_rejected(self, call):
        with pytest.raises(ValueError, match=r"must be >= 0, got nan"):
            call()

    @pytest.mark.parametrize("epsilon", [NAN, float("inf"), -0.5])
    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_bad_epsilon_is_rejected(self, epsilon, q):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            gdp_delta(1.0, epsilon)
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            TradeoffCurve.from_leakage(1.0, num=5, q=q).delta(epsilon)

    def test_nan_sigma_is_rejected(self):
        with pytest.raises(ValueError, match="sigma must be > 0"):
            tv_gaussians(0.0, 1.0, NAN)

    @pytest.mark.parametrize("rate", [NAN, 0.0, -0.5, 1.5])
    @pytest.mark.parametrize("call, name", [
        (lambda r: subsample_count(r, 10), "subsampling rate"),
        (lambda r: SubsampledMean(r), "subsampling rate"),
        (lambda r: subsampled_leakage_score(1.0, r), "subsampling rate"),
        (lambda r: subsampled_power(1.0, r, 0.2), "inclusion probability"),
        (lambda r: TradeoffCurve.from_leakage(1.0, num=5, q=r), "inclusion probability"),
    ], ids=["subsample_count", "SubsampledMean", "subsampled-score", "subsampled-power",
            "curve-mixture"])
    def test_rate_outside_the_unit_interval_is_rejected(self, call, name, rate):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\], got {rate}$"):
            call(rate)

    @pytest.mark.parametrize("bad", [NAN, float("inf"), -float("inf")])
    @pytest.mark.parametrize("call", [
        lambda dist, z: dist.leakage_score(z, 10),
        lambda dist, z: effective_leakage(dist, z, 10, NoisyMean(0.5)),
        lambda dist, z: noisy_leakage_score(dist, z, 0.5, 10),
        lambda dist, z: cross_leakage(dist, z, [1.0, 0.0], 10),
        lambda dist, z: cross_leakage(dist, [1.0, 0.0], z, 10),
        lambda dist, z: make_score("lr_asymptotic", dist=dist, n=10)([0.3, 0.6], z),
        lambda dist, z: make_score("lr_asymptotic", dist=dist, n=10).block(np.full((4, 2), 0.5), z),
    ], ids=["leakage_score", "effective_leakage", "noisy_leakage_score", "cross_leakage-targ",
            "cross_leakage-star", "lr_asymptotic", "lr_asymptotic-block"])
    def test_non_finite_target_is_rejected(self, call, bad):
        dist = ProductDistribution.bernoulli([0.3, 0.6])
        with pytest.raises(ValueError, match=rf"coordinates must be finite, got {bad} at 0$"):
            call(dist, [bad, 1.0])


class TestNormalKernels:
    def test_phi_matches_high_precision_reference(self):
        for x in np.linspace(-8, 8, 33):
            assert abs(phi(x) - oracles.normal_cdf_ref(x)) <= 1e-12

    def test_phi_frozen_point(self):
        assert abs(phi(1.0) - float(oracles.PHI_AT_1)) <= 1e-15

    def test_phi_inv_matches_reference(self):
        for p in (1e-9, 1e-4, 0.025, 0.5, 0.975, 1 - 1e-4):
            assert abs(phi_inv(p) - oracles.normal_quantile_ref(p)) <= 1e-9 * max(
                1, abs(oracles.normal_quantile_ref(p))
            )

    def test_phi_inv_frozen_point(self):
        assert abs(phi_inv(0.975) - float(oracles.PHI_INV_P975)) <= 1e-12

    def test_phi_inv_endpoints_and_validation(self):
        assert phi_inv(0.0) == -np.inf
        assert phi_inv(1.0) == np.inf
        with pytest.raises(ValueError):
            phi_inv(-0.01)
        with pytest.raises(ValueError):
            phi_inv(1.01)

    def test_round_trip(self):
        for p in (1e-6, 0.3, 0.5, 0.99):
            assert abs(phi(phi_inv(p)) - p) <= 1e-12


class TestLeakageFormulas:
    def test_leakage_frozen_values(self):
        assert abs(theoretical_leakage(4.0) - float(oracles.LEAKAGE_M4)) <= 1e-13
        assert abs(theoretical_leakage(8.86) - float(oracles.LEAKAGE_M886)) <= 1e-13

    def test_leakage_zero_and_monotone(self):
        assert theoretical_leakage(0.0) == 0.0
        grid = np.linspace(0, 30, 200)
        vals = np.array([theoretical_leakage(m) for m in grid])
        assert np.all(np.diff(vals) >= 0)
        assert vals[-1] < 1.0

    def test_power_frozen_values(self):
        assert abs(theoretical_power(4.0, 0.05) - float(oracles.POWER_M4_A05)) <= 1e-13
        assert (
            abs(theoretical_power(3.11, 0.01) - float(oracles.POWER_M311_A01)) <= 1e-13
        )

    def test_power_corners(self):
        assert theoretical_power(5.0, 0.0) == 0.0
        assert theoretical_power(5.0, 1.0) == 1.0
        assert theoretical_power(0.0, 0.37) == pytest.approx(0.37, abs=1e-12)

    def test_power_vectorized_matches_scalar(self):
        alphas = np.linspace(0, 1, 11)
        vec = theoretical_power(2.5, alphas)
        assert vec.shape == alphas.shape
        for a, v in zip(alphas, vec):
            assert v == theoretical_power(2.5, float(a))

    def test_threshold_frozen_value(self):
        assert abs(optimal_threshold(4.0, 0.05) - float(oracles.THRESH_M4_A05)) <= 1e-12

    def test_threshold_achieves_nominal_rates(self):
        # under the null the score is N(-m/2, m); rejecting above the
        # threshold must produce false-positive rate alpha and power
        # matching the closed form
        for m, alpha in ((4.0, 0.05), (1.3, 0.2), (9.0, 0.01)):
            tau = optimal_threshold(m, alpha)
            fpr = 1 - oracles.normal_cdf_ref((tau + m / 2) / np.sqrt(m))
            tpr = 1 - oracles.normal_cdf_ref((tau - m / 2) / np.sqrt(m))
            assert abs(fpr - alpha) <= 1e-12
            assert abs(tpr - theoretical_power(m, alpha)) <= 1e-12


class TestMechanismAdjustedScores:
    def test_noisy_score_formula(self):
        dist = ProductDistribution.bernoulli_uniform(40, a=0.25, seed=3)
        z = np.random.default_rng(4).binomial(1, dist.moments()[0]).astype(float)
        mu, sig2 = dist.moments()
        direct = float(np.sum((z - mu) ** 2 / (sig2 + 0.49))) / 25
        assert noisy_leakage_score(dist, z, 0.7, 25) == pytest.approx(direct, rel=1e-14)

    def test_noisy_score_gamma_zero_is_plain_leakage(self):
        dist = ProductDistribution.bernoulli_uniform(30, a=0.3, seed=5)
        z = np.ones(30)
        assert noisy_leakage_score(dist, z, 0.0, 50) == dist.leakage_score(z, 50)

    def test_noisy_score_decreases_in_gamma(self):
        dist = ProductDistribution.bernoulli_uniform(30, a=0.3, seed=6)
        z = np.zeros(30)
        vals = [noisy_leakage_score(dist, z, g, 50) for g in (0.0, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals, reverse=True)

    def test_subsampled_score_and_composition_identity(self):
        assert subsampled_leakage_score(8.0, 0.25) == 2.0
        for m, rho, alpha in ((8.0, 0.25, 0.05), (3.0, 0.5, 0.3)):
            assert theoretical_power(
                subsampled_leakage_score(m, rho), alpha
            ) == theoretical_power(rho * m, alpha)

    def test_effective_leakage_dispatch(self):
        dist = ProductDistribution.bernoulli_uniform(40, a=0.25, seed=7)
        z = np.ones(40)
        n = 20
        m = dist.leakage_score(z, n)
        assert effective_leakage(dist, z, n, EmpiricalMean()) == m
        assert effective_leakage(dist, z, n, NoisyMean(0.5)) == noisy_leakage_score(
            dist, z, 0.5, n
        )
        assert effective_leakage(dist, z, n, SubsampledMean(0.5)) == pytest.approx(
            0.5 * m, rel=1e-14
        )


class TestMisspecification:
    def test_blind_guess_convention(self):
        assert misspec_advantage(0.0, 0.0) == 0.0

    def test_matches_direct_formula(self):
        for m_scal, m_targ in ((2.0, 5.0), (-2.0, 5.0), (0.3, 0.3)):
            r = abs(m_scal) / (2 * np.sqrt(m_targ))
            want = oracles.normal_cdf_ref(r) - oracles.normal_cdf_ref(-r)
            assert misspec_advantage(m_scal, m_targ) == pytest.approx(want, abs=1e-13)

    def test_well_specified_case_recovers_leakage(self):
        # when the guess equals the true target, m_scal = m_targ = m and the
        # advantage reduces to the plain leakage formula
        for m in (0.5, 3.0, 9.0):
            assert misspec_advantage(m, m) == pytest.approx(
                theoretical_leakage(m), abs=1e-13
            )

    def test_cross_leakage_is_symmetric_bilinear(self):
        dist = ProductDistribution.bernoulli_uniform(25, a=0.25, seed=8)
        rng = np.random.default_rng(9)
        mu, sig2 = dist.moments()
        a = rng.binomial(1, mu).astype(float)
        b = rng.binomial(1, mu).astype(float)
        n = 17
        direct = float(np.dot((a - mu) / sig2, b - mu)) / n
        assert cross_leakage(dist, a, b, n) == pytest.approx(direct, rel=1e-14)
        assert cross_leakage(dist, b, a, n) == pytest.approx(
            cross_leakage(dist, a, b, n), rel=1e-14
        )
        assert cross_leakage(dist, a, a, n) == pytest.approx(
            dist.leakage_score(a, n), rel=1e-14
        )

    @given(
        st.floats(0.01, 20),
        st.floats(0.01, 20),
        st.floats(-1, 1),
    )
    def test_cauchy_schwarz_bound_on_advantage_inputs(self, m_a, m_b, corr):
        # any admissible (m_scal, m_targ, m_star) triple satisfies
        # m_scal^2 <= m_targ * m_star; the advantage at the extreme equals
        # the well-specified advantage of the smaller score
        m_scal = corr * np.sqrt(m_a * m_b)
        adv = misspec_advantage(m_scal, m_a)
        assert 0.0 <= adv <= theoretical_leakage(m_b) + 1e-12


class TestPrivacyProfiles:
    def test_gdp_frozen_values(self):
        assert abs(gdp_delta(4.0, 1.0) - float(oracles.GDP_M4_E1)) <= 1e-13
        assert abs(gdp_delta(2.0, 0.0) - float(oracles.GDP_M2_E0)) <= 1e-13

    def test_gdp_matches_reference_on_grid(self):
        for m in (0.3, 2.0, 9.0, 40.0):
            for eps in (0.0, 0.5, 2.0, 6.0):
                assert gdp_delta(m, eps) == pytest.approx(
                    oracles.gdp_delta_ref(m, eps), abs=1e-12
                )

    def test_gdp_eps_zero_equals_leakage(self):
        for m in (0.1, 1.0, 4.0, 25.0):
            assert abs(gdp_delta(m, 0.0) - theoretical_leakage(m)) <= 1e-12

    def test_gdp_clamped_and_monotone_in_eps(self):
        epsilons = np.linspace(0, 10, 41)
        deltas = [gdp_delta(3.0, e) for e in epsilons]
        assert all(0.0 <= d <= 1.0 for d in deltas)
        assert all(a >= b - 1e-15 for a, b in zip(deltas, deltas[1:]))

    def test_gdp_validation(self):
        with pytest.raises(ValueError):
            gdp_delta(0.0, 1.0)
        with pytest.raises(ValueError):
            gdp_delta(1.0, -0.5)

    def test_tv_matches_reference(self):
        for mu1, mu2, sigma in ((-1.0, 1.0, 1.0), (0.0, 3.0, 2.0), (5.0, 5.0, 0.7)):
            assert tv_gaussians(mu1, mu2, sigma) == pytest.approx(
                oracles.gaussian_tv_ref(mu1, mu2, sigma), abs=1e-13
            )

    def test_tv_equals_leakage_on_score_gaussians(self):
        # the same two-sided kernel computes both, so the match is exact
        for m in (0.5, 4.0, 8.86):
            assert tv_gaussians(-m / 2, m / 2, np.sqrt(m)) == theoretical_leakage(m)


class TestTradeoffCurve:
    def test_from_leakage_boundaries_and_monotone(self):
        curve = TradeoffCurve.from_leakage(4.0, num=257)
        assert curve.alphas[0] == 0.0 and curve.alphas[-1] == 1.0
        assert curve.powers[0] == 0.0 and curve.powers[-1] == 1.0
        assert np.all(np.diff(curve.powers) >= 0)
        assert np.all(curve.powers >= curve.alphas - 1e-12)

    def test_matches_pointwise_formula(self):
        curve = TradeoffCurve.from_leakage(2.7, num=65)
        for a, p in zip(curve.alphas, curve.powers):
            assert p == theoretical_power(2.7, float(a))

    def test_power_interpolation(self):
        curve = TradeoffCurve.from_leakage(3.0, num=2049)
        for a in (0.013, 0.2, 0.77):
            assert curve.power(a) == pytest.approx(
                theoretical_power(3.0, a), abs=5e-6
            )

    def test_rejects_invalid_curves(self):
        alphas = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            TradeoffCurve(m_eff=1.0, alphas=alphas, powers=np.array([0, 0.5, 0.4, 0.9, 1.0]))
        with pytest.raises(ValueError):
            TradeoffCurve(m_eff=1.0, alphas=alphas, powers=np.array([0.1, 0.5, 0.6, 0.9, 1.0]))


class TestCurveDistances:
    def test_gap_of_theory_against_itself_is_resolution_limited(self):
        pts = np.asarray(TradeoffCurve.from_leakage(4.0, num=2048).samples)
        assert sup_norm_gap(pts, 4.0) <= 2e-3

    def test_gap_detects_uniform_vertical_offset(self):
        pts = np.asarray(TradeoffCurve.from_leakage(4.0, num=4096).samples)
        pts[1:-1, 1] = np.clip(pts[1:-1, 1] + 0.08, 0, 1)
        # a +0.08 vertical shift reads as less under the Chebyshev set
        # distance because the nearest theory point sits diagonally, and
        # the pinned corners pull the ends back onto the curve
        g = sup_norm_gap(pts, 4.0)
        assert 0.04 <= g <= 0.08

    def test_curve_keeps_its_dense_polyline_without_changing(self):
        # the gap against a curve or a score reads its densified closed form
        # from a cache after the first call, with the bits of densifying
        # afresh, and caching leaves the curve itself unchanged
        rng = np.random.default_rng(29)
        scores = np.concatenate([rng.normal(size=300), rng.normal(size=300) + 1.1])
        bits = np.repeat([0, 1], 300)
        pts = roc([ScoredRound(float(a), int(b)) for a, b in zip(scores, bits)]).points
        for q in (1.0, 0.6):
            curve = TradeoffCurve.from_leakage(1.3, 256, q=q)
            before = pickle.dumps(curve)
            for step in (5e-4, 2e-3, 5e-4):
                want = polyline_gap(pts, _theory_polyline(1.3, q), step)
                assert sup_norm_gap(pts, curve, step) == want
                if q == 1.0:
                    assert sup_norm_gap(pts, 1.3, step) == want
            assert pickle.dumps(curve) == before
            assert copy.copy(curve) == curve
            assert "_dense" not in vars(copy.deepcopy(curve))

    def test_curves_compare_by_value_whatever_their_cache(self):
        for q in (1.0, 0.6):
            curve = TradeoffCurve.from_leakage(1.3, 64, q=q)
            copies = [pickle.loads(pickle.dumps(curve)), copy.deepcopy(curve)]
            for other in copies:
                assert curve == other and hash(curve) == hash(other)
            for other in copies:
                assert curve == other and other == curve
                assert hash(curve) == hash(other)
            assert curve != TradeoffCurve.from_leakage(1.4, 64, q=q)
            assert curve != dataclasses.replace(curve, m_eff=1.4)
            assert curve != dataclasses.replace(curve, q=q / 2)
            assert curve != TradeoffCurve.from_leakage(1.3, 65, q=q)
            assert curve != (curve.m_eff, curve.alphas, curve.powers, curve.q)

    def test_polyline_gap_symmetric_and_zero_on_identical(self):
        a = np.array([[0, 0], [0.5, 0.7], [1, 1]], dtype=float)
        b = np.array([[0, 0], [0.5, 0.2], [1, 1]], dtype=float)
        assert polyline_gap(a, a) <= 1e-12
        assert polyline_gap(a, b) == pytest.approx(polyline_gap(b, a), abs=1e-12)
        # nearest approach of (0.5, 0.2) to the first segment (x, 1.4x)
        # solves t = 0.5 - 1.4t in Chebyshev geometry, giving 5/24
        assert polyline_gap(a, b) == pytest.approx(5 / 24, abs=0.005)

    def test_vertical_gap_reads_staircase_envelope(self):
        pts = np.array([[0, 0], [0, 0.4], [0.2, 0.4], [0.2, 0.9], [1, 1]], dtype=float)
        # against m_eff=0 theory (power = alpha) the worst vertical gap on
        # alpha >= 0.05 is at alpha just above 0.2
        g = vertical_gap(pts, 0.0, alpha_min=0.05)
        assert g == pytest.approx(0.7, abs=1e-9)


class TestSubsampledTradeoff:
    """The inclusion mixture (1 - q) alpha + q Phi(Phi^-1(alpha) + sqrt(m_in))
    of fixed-size row subsampling."""

    def test_q_one_reduces_to_theoretical_power(self):
        alphas = np.linspace(0, 1, 33)
        for m in (0.0, 0.7, 4.0):
            assert np.array_equal(subsampled_power(m, 1.0, alphas), theoretical_power(m, alphas))
            curve = TradeoffCurve.from_leakage(m, num=33, q=1.0)
            assert np.array_equal(curve.powers, theoretical_power(m, alphas))
            assert curve.leakage() == theoretical_leakage(m)
            if m > 0:
                assert curve.delta(1.0) == gdp_delta(m, 1.0)
        pts = np.array([[0, 0], [0.1, 0.6], [0.4, 0.9], [1, 1]], dtype=float)
        unit = TradeoffCurve.from_leakage(4.0, num=8)
        assert sup_norm_gap(pts, unit) == sup_norm_gap(pts, 4.0)
        assert vertical_gap(pts, unit, 0.05) == vertical_gap(pts, 4.0, 0.05)

    def test_dispatch_matches_mechanism(self):
        dist = ProductDistribution.bernoulli_uniform(40, a=0.25, seed=7)
        z = np.ones(40)
        n = 20
        for mech in (None, EmpiricalMean(), NoisyMean(0.5), SubsampledMean(1.0)):
            got = tradeoff_curve(dist, z, n, mech, num=65)
            want = TradeoffCurve.from_leakage(effective_leakage(dist, z, n, mech), 65)
            assert got.q == 1.0 and got.m_eff == want.m_eff
            assert np.array_equal(got.powers, want.powers)
        # k = 5 of 20 rows: the target is kept with probability 1/4, and the
        # kept release is an exact 5-row mean
        got = tradeoff_curve(dist, z, n, SubsampledMean(0.25), num=65)
        assert got.q == 0.25
        assert got.m_eff == dist.leakage_score(z, 5)
        assert got.leakage() == pytest.approx(0.25 * theoretical_leakage(got.m_eff), rel=1e-15)

    def test_never_exceeds_inclusion_cap(self):
        alphas = np.linspace(0, 1, 1001)
        for rho in (0.1, 0.25, 0.5, 0.9):
            for m_in in (0.5, 8.0, 200.0):
                p = subsampled_power(m_in, rho, alphas)
                assert np.all(p <= rho + (1 - rho) * alphas + 1e-15)
                assert np.all(p >= alphas - 1e-15)
        # the rho * m Gaussian curve breaks that cap; the mixture is needed
        m = 8.0
        scaled = theoretical_power(subsampled_leakage_score(m, 0.25), alphas)
        assert np.any(scaled > 0.25 + 0.75 * alphas + 0.05)

    def test_delta_at_zero_equals_leakage_and_matches_grid(self):
        u = np.linspace(-12, 12, 400001)
        alphas = phi(u)
        for m_in, q in ((4.0, 0.25), (9.0, 0.5), (0.5, 0.1)):
            curve = TradeoffCurve.from_leakage(m_in, num=16, q=q)
            assert abs(curve.delta(0.0) - curve.leakage()) <= 1e-12
            for eps in (0.0, 0.5, 2.0):
                grid = float(np.max(curve.power(alphas) - np.exp(eps) * alphas))
                assert curve.delta(eps) == pytest.approx(grid, abs=1e-8)

    def test_rejects_bad_inclusion_probability(self):
        for q in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                subsampled_power(1.0, q, 0.5)
            with pytest.raises(ValueError):
                TradeoffCurve.from_leakage(1.0, num=5, q=q)

    def test_subsampled_game_tracks_mixture(self):
        # a small game in the spirit of acceptance criterion 3. The mixture
        # and the Gaussian curve of the discounted score rho * m are two
        # closed forms more than SUP_TOL apart; the measured ROC sits within
        # SUP_TOL of the mixture and nearer to it than to the rho * m curve.
        # (At rho = 0.5 the closed forms are only 0.098 apart, so no honest
        # game can be asked to lie 2 * SUP_TOL from the rho * m curve.)
        dist = ProductDistribution.bernoulli_uniform(400, a=0.3, seed=61)
        z, _ = make_extreme_targets(dist)
        n = 200
        for rho, seed in ((0.25, 62), (0.5, 63)):
            mech = SubsampledMean(rho)
            mixture = tradeoff_curve(dist, z, n, mech)
            scaled = effective_leakage(dist, z, n, mech)
            closed_forms = polyline_gap(
                _theory_polyline(mixture.m_eff, mixture.q), _theory_polyline(scaled)
            )
            assert closed_forms > SUP_TOL
            transcript = run_crafter(dist, mech, n, z, 1000, master_seed=seed, threads=1)
            fn = make_score("lr_subsampled", dist=dist, n=n, mech=mech)
            points = roc(score_transcript(transcript, fn, z)).points
            to_mixture = sup_norm_gap(points, mixture)
            assert to_mixture <= SUP_TOL
            assert to_mixture < sup_norm_gap(points, scaled)

    def test_asymptotic_score_at_k_rows_matches_lr_subsampled(self):
        # The mixture's likelihood ratio is increasing in that of the
        # included branch, a k-row exact mean, so lr_asymptotic at n = k is
        # already optimal; the quartic correction of lr_subsampled changes
        # the ROC by no more than noise.
        dist = ProductDistribution.bernoulli_uniform(400, a=0.3, seed=61)
        z, _ = make_extreme_targets(dist)
        n = 200
        for rho, seed in ((0.25, 62), (0.5, 63)):
            mech = SubsampledMean(rho)
            mixture = tradeoff_curve(dist, z, n, mech)
            transcript = run_crafter(dist, mech, n, z, 1000, master_seed=seed, threads=1)
            curves = [
                roc(score_transcript(transcript, fn, z))
                for fn in (
                    make_score("lr_subsampled", dist=dist, n=n, mech=mech),
                    make_score("lr_asymptotic", dist=dist, n=mech.k(n)),
                )
            ]
            gaps = [sup_norm_gap(c.points, mixture) for c in curves]
            assert abs(gaps[0] - gaps[1]) <= 0.02
            assert abs(curves[0].auc - curves[1].auc) <= 0.01


class TestDensify:
    def test_matches_one_linspace_per_segment(self):
        # bit for bit, so every sup_norm_gap reading is unchanged
        rng = np.random.default_rng(64)
        for i in range(150):
            inner = np.sort(rng.random((int(rng.integers(0, 60)), 2)), axis=0)
            poly = np.vstack([[0.0, 0.0], inner, [1.0, 1.0]])
            if i % 5 == 0 and len(poly) > 3:
                poly[2] = poly[1]  # a zero-length segment
            step = (5e-4, 1e-2, 0.3)[i % 3]
            assert np.array_equal(_densify(poly, step), oracles.densify_loop(poly, step))
        for m, q in ((0.0, 1.0), (4.0, 1.0), (2.5, 0.5)):
            poly = _theory_polyline(m, q)
            assert np.array_equal(_densify(poly, 5e-4), oracles.densify_loop(poly, 5e-4))

    def test_points_are_within_one_step(self):
        poly = np.array([[0.0, 0.0], [0.1, 0.7], [0.1, 0.7], [1.0, 1.0]])
        dense = _densify(poly, 0.01)
        assert np.array_equal(dense[0], poly[0]) and np.array_equal(dense[-1], poly[-1])
        assert np.max(np.abs(np.diff(dense, axis=0))) <= 0.01 + 1e-15


def _random_monotone_polyline(rng, i):
    """A monotone chain from (0, 0) to (1, 1): free points, a staircase, or
    points on a coarse grid (with ties), some with a repeated vertex."""
    n = int(rng.integers(0, 40))
    kind = i % 3
    if kind == 0:
        inner = np.sort(rng.random((n, 2)), axis=0)
    elif kind == 1:
        x = np.repeat(np.sort(rng.random(n)), 2)
        y = np.repeat(np.sort(rng.random(n)), 2)
        inner = np.column_stack([x[1:], y[:-1]])
    else:
        grid = int(rng.integers(1, 50))
        inner = np.sort(rng.integers(0, grid + 1, (n, 2)), axis=0) / grid
    poly = np.vstack([[0.0, 0.0], inner, [1.0, 1.0]])
    if i % 4 == 0:
        j = int(rng.integers(0, len(poly)))
        poly = np.insert(poly, j, poly[j], axis=0)  # a zero-length segment
    return poly


class TestPolylineGapExact:
    """polyline_gap against the KD-tree Hausdorff it replaced, compared with
    == because every gate reading must stay what it was."""

    def test_matches_kdtree_on_random_monotone_polylines(self):
        rng = np.random.default_rng(65)
        for i in range(120):
            a = _random_monotone_polyline(rng, i)
            b = _random_monotone_polyline(rng, i // 3)
            step = (5e-4, 1e-2, 0.3)[i % 3]
            assert polyline_gap(a, b, step) == oracles.polyline_gap_kdtree(a, b, step)

    def test_matches_kdtree_on_theory_pairs(self):
        pairs = [((0.0, 1.0), (4.0, 1.0)), ((4.0, 1.0), (4.5, 1.0)), ((2.5, 0.5), (2.5, 1.0)),
                 ((9.0, 0.25), (1.0, 0.75)), ((30.0, 0.1), (0.0, 1.0))]
        for (m1, q1), (m2, q2) in pairs:
            a, b = _theory_polyline(m1, q1), _theory_polyline(m2, q2)
            assert polyline_gap(a, b) == oracles.polyline_gap_kdtree(a, b)

    def test_matches_kdtree_on_game_rocs(self):
        dist = ProductDistribution.bernoulli_uniform(30, a=0.3, seed=66)
        z, _ = make_extreme_targets(dist)
        n = 60
        fn = make_score("lr_asymptotic", dist=dist, n=n)
        own = _theory_polyline(dist.leakage_score(z, n))
        far = _theory_polyline(0.0)
        for rounds, seed in ((8, 67), (64, 68), (1000, 69), (20000, 70)):
            transcript = run_crafter(dist, EmpiricalMean(), n, z, rounds, master_seed=seed, threads=1)
            points = roc(score_transcript(transcript, fn, z)).points
            for curve in (own, far):
                assert polyline_gap(points, curve) == oracles.polyline_gap_kdtree(points, curve)

    def test_exact_where_densifying_steps_back(self):
        # a + (b - a) can round one ulp past b: this polyline densifies into
        # a chain whose x falls by one ulp after the third vertex, and the
        # perturbed copies probe the gap right at that step
        ulp = 2.0**-53
        poly = np.array([[0, 0], [1.5 * ulp, 0.1], [0.75 + ulp, 0.5], [0.75 + ulp, 0.5], [1, 1]])
        assert np.any(np.diff(_densify(poly, 0.3), axis=0) < 0)
        rng = np.random.default_rng(71)
        for _ in range(200):
            near = poly.copy()
            near[1:4] += rng.integers(-6, 7, (3, 2)) * ulp
            near = np.maximum.accumulate(near, axis=0)
            assert polyline_gap(poly, near, 0.3) == oracles.polyline_gap_kdtree(poly, near, 0.3)

    def test_rejects_decreasing_polylines(self):
        good = np.array([[0, 0], [0.3, 0.6], [1, 1]], dtype=float)
        for bad in (
            np.array([[0, 0], [0.5, 0.6], [0.4, 0.7], [1, 1]]),
            np.array([[0, 0], [0.3, 0.6], [0.5, 0.5], [1, 1]]),
            np.array([[0, 0], [np.nan, 0.6], [1, 1]]),
        ):
            with pytest.raises(ValueError, match="non-decreasing"):
                polyline_gap(good, bad)
            with pytest.raises(ValueError, match="non-decreasing"):
                polyline_gap(bad, good)
            with pytest.raises(ValueError, match="non-decreasing"):
                sup_norm_gap(bad, 1.0)
            with pytest.raises(ValueError, match="non-decreasing"):
                vertical_gap(bad, 1.0)

    def test_import_leaves_scipy_spatial_unloaded(self):
        code = "import sys, mi_audit; print('scipy.spatial' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
