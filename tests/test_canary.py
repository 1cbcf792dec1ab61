"""Reference-moment estimation and Mahalanobis canary selection."""

import numpy as np
import pytest

import oracles
from mi_audit import (
    ConfigError,
    NumericalError,
    estimate_reference,
    mahalanobis_score_est,
    select_canary,
)
from mi_audit import canary


@pytest.fixture
def ref_rows():
    rng = np.random.default_rng(61)
    return rng.normal(loc=0.3, scale=1.2, size=(40, 7))


class TestEstimateReference:
    def test_uncentered_diagonal_moments(self, ref_rows):
        refs = estimate_reference(ref_rows, cov_mode="diagonal", ridge=0.0)
        assert np.allclose(refs.mu0, ref_rows.mean(axis=0), atol=1e-15)
        assert np.allclose(refs.c0, np.mean(ref_rows**2, axis=0), atol=1e-15)
        assert refs.n0 == 40
        assert refs.is_diagonal

    def test_centered_full_moments(self, ref_rows):
        refs = estimate_reference(ref_rows, cov_mode="full", centered=True, ridge=0.0)
        B = ref_rows - ref_rows.mean(axis=0)
        assert np.allclose(refs.c0, B.T @ B / 40, atol=1e-14)
        assert not refs.is_diagonal

    def test_default_ridge_scales_with_trace(self, ref_rows):
        refs = estimate_reference(ref_rows, cov_mode="full")
        trace = float(np.trace(ref_rows.T @ ref_rows / 40))
        assert refs.ridge == pytest.approx(1e-6 * trace / 7, rel=1e-12)
        diag = estimate_reference(ref_rows, cov_mode="diagonal")
        tr_diag = float(np.sum(np.mean(ref_rows**2, axis=0)))
        assert diag.ridge == pytest.approx(1e-6 * tr_diag / 7, rel=1e-12)

    def test_default_ridge_rescues_rank_deficiency(self):
        rng = np.random.default_rng(62)
        thin = rng.normal(size=(3, 8))  # rank 3 < d
        refs = estimate_reference(thin, cov_mode="full")
        assert np.isfinite(refs.precision_quad(np.ones(8)))
        with pytest.raises(NumericalError):
            estimate_reference(thin, cov_mode="full", ridge=0.0)

    def test_validation(self, ref_rows):
        with pytest.raises(ValueError):
            estimate_reference(ref_rows[:1])
        with pytest.raises(ValueError):
            estimate_reference(ref_rows.ravel())
        with pytest.raises(ConfigError):
            estimate_reference(ref_rows, cov_mode="sparse")


class TestMahalanobisScore:
    def test_matches_explicit_inverse(self, ref_rows):
        rng = np.random.default_rng(63)
        x = rng.normal(size=7)
        for cov_mode in ("diagonal", "full"):
            refs = estimate_reference(ref_rows, cov_mode=cov_mode, ridge=0.0)
            _, want = oracles.mahalanobis_rank_bruteforce([x], ref_rows, cov_mode)
            assert mahalanobis_score_est(x, refs) == pytest.approx(want, rel=1e-10)

    def test_zero_at_reference_mean(self, ref_rows):
        refs = estimate_reference(ref_rows, ridge=0.0)
        assert mahalanobis_score_est(ref_rows.mean(axis=0), refs) == pytest.approx(
            0.0, abs=1e-18
        )

    def test_nonnegative(self, ref_rows):
        rng = np.random.default_rng(64)
        refs = estimate_reference(ref_rows, cov_mode="full")
        for _ in range(20):
            assert mahalanobis_score_est(rng.normal(size=7), refs) >= 0.0


class TestSelectCanary:
    def test_matches_bruteforce_ranking(self, ref_rows):
        rng = np.random.default_rng(65)
        cands = rng.normal(scale=2.0, size=(25, 7))
        for cov_mode in ("diagonal", "full"):
            for centered in (False, True):
                refs = estimate_reference(
                    ref_rows, cov_mode=cov_mode, centered=centered, ridge=0.0
                )
                idx, score = select_canary(cands, refs)
                want_idx, want_score = oracles.mahalanobis_rank_bruteforce(
                    cands, ref_rows, cov_mode, centered=centered
                )
                assert idx == want_idx
                assert score == pytest.approx(want_score, rel=1e-10)
                # the whole pool in one pair-kernel call, bit for bit each row's score
                rows = canary._mahalanobis_rows(cands, refs)
                assert rows.tolist() == [mahalanobis_score_est(x, refs) for x in cands]
            for bad in (cands[0], cands[:, :6]):
                with pytest.raises(ValueError):
                    canary._mahalanobis_rows(bad, refs)

    def test_far_candidate_wins(self, ref_rows):
        refs = estimate_reference(ref_rows)
        cands = np.vstack([ref_rows.mean(axis=0), np.full(7, 40.0), ref_rows[0]])
        idx, score = select_canary(cands, refs)
        assert idx == 1
        assert score == mahalanobis_score_est(cands[1], refs)
        assert select_canary((x for x in cands), refs) == (idx, score)

    def test_ties_resolve_to_lowest_index(self, ref_rows):
        refs = estimate_reference(ref_rows)
        x = np.full(7, 3.0)
        idx, _ = select_canary([x, x.copy(), x.copy()], refs)
        assert idx == 0

    def test_empty_candidates_rejected(self, ref_rows):
        refs = estimate_reference(ref_rows)
        with pytest.raises(ValueError):
            select_canary([], refs)
