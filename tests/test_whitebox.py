"""White-box training audit: toy models, SGD traces, per-step attacks."""

import numpy as np
import pytest
from scipy.special import logsumexp

import oracles
from mi_audit import (
    ConfigError,
    ToyModel,
    estimate_reference,
    make_blobs,
    reference_gradients,
    roc,
    run_whitebox_attack,
    run_whitebox_game,
    train_sgd,
)
from mi_audit import score, whitebox
from mi_audit.whitebox import _logsumexp_rows


# non-finite SGD settings, each with the parameter its error must name;
# tests/test_cli.py plays the same cases through mi-audit whitebox
NONFINITE_SGD = {
    "clip-nan": ({"clip": np.nan}, "clip"),
    "eta-nan": ({"eta": np.nan}, "eta"),
    "eta-inf": ({"eta": np.inf}, "eta"),
    "noise-nan": ({"clip": 1.0, "noise": np.nan}, "noise"),
    "noise-inf": ({"clip": 1.0, "noise": np.inf}, "noise"),
    "noise-with-infinite-clip": ({"clip": np.inf, "noise": 0.5}, "clip"),
}


@pytest.fixture
def linear_model():
    rng = np.random.default_rng(71)
    return ToyModel("linear", f=4, theta=rng.normal(size=5))


@pytest.fixture
def logistic_model():
    rng = np.random.default_rng(72)
    return ToyModel("logistic", f=3, c=4, theta=rng.normal(size=16))


class TestToyModel:
    def test_parameter_counts(self):
        assert ToyModel("linear", f=7).d_p == 8
        assert ToyModel("logistic", f=3, c=5).d_p == 20

    def test_linear_loss_matches_reference(self, linear_model):
        rng = np.random.default_rng(73)
        x = rng.normal(size=4)
        y = 1.7
        want = oracles.half_mse_ref(linear_model.theta, x, y, f=4)
        assert linear_model.loss(x, y) == pytest.approx(want, rel=1e-12)

    def test_logistic_loss_matches_reference(self, logistic_model):
        rng = np.random.default_rng(74)
        x = rng.normal(size=3)
        want = oracles.softmax_xent_ref(logistic_model.theta, x, 2, f=3, c=4)
        assert logistic_model.loss(x, 2) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("arch", ["linear", "logistic"])
    def test_gradient_matches_finite_differences(self, arch, linear_model, logistic_model):
        model = linear_model if arch == "linear" else logistic_model
        rng = np.random.default_rng(75)
        x = rng.normal(size=model.f)
        y = 0.9 if arch == "linear" else 1
        want = oracles.finite_diff_grad(lambda th: model.loss(x, y, th), model.theta)
        got = model.grad(x, y)
        assert np.max(np.abs(got - want)) <= 1e-5

    def test_batch_gradient_rows_are_per_example(self, logistic_model):
        rng = np.random.default_rng(76)
        X = rng.normal(size=(6, 3))
        y = rng.integers(0, 4, size=6)
        G = logistic_model.grad_batch(X, y)
        assert G.shape == (6, 16)
        for i in range(6):
            assert np.allclose(G[i], logistic_model.grad(X[i], y[i]), atol=1e-14)

    def test_batch_gradient_mean_differentiates_batch_loss(self, linear_model):
        rng = np.random.default_rng(77)
        X = rng.normal(size=(5, 4))
        y = rng.normal(size=5)
        want = oracles.finite_diff_grad(lambda th: linear_model.loss(X, y, th), linear_model.theta)
        got = linear_model.grad_batch(X, y).mean(axis=0)
        assert np.max(np.abs(got - want)) <= 1e-5

    def test_label_validation(self, logistic_model):
        x = np.zeros(3)
        with pytest.raises(ValueError):
            logistic_model.loss(x, 4)
        with pytest.raises(ValueError):
            logistic_model.loss(x, -1)
        with pytest.raises(ValueError):
            logistic_model.loss(x, 1.5)

    @pytest.mark.parametrize("c", [2, 3, 4, 5, 7, 8, 9, 13])
    def test_row_logsumexp_equals_scipy_bit_for_bit(self, c):
        rng = np.random.default_rng(90 + c)
        blocks = [
            rng.normal(size=(200, c)) * scale for scale in (1e-3, 1.0, 30.0, 400.0)
        ]
        blocks.append(np.round(rng.normal(size=(200, c))))  # tied maxima
        blocks.append(np.repeat(rng.normal(size=(50, 1)) * 10, c, axis=1))  # all-equal rows
        blocks.append(rng.choice([-700.0, 700.0, 699.25, 0.0], size=(200, c)))
        logits = np.vstack(blocks)
        want = logsumexp(logits, axis=1, keepdims=True)
        assert np.array_equal(_logsumexp_rows(logits), want)
        # a leading batch axis reduces each row as before
        stacked = _logsumexp_rows(logits.reshape(5, 250, c))
        assert np.array_equal(stacked.reshape(-1, 1), want)

    @pytest.mark.parametrize("c", [2, 3, 4, 5])
    def test_logistic_loss_equals_scipy_form_bit_for_bit(self, c):
        rng = np.random.default_rng(95 + c)
        model = ToyModel("logistic", f=3, c=c, theta=rng.normal(size=4 * c) * 3.0)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, c, size=40)
        W, bias = model.theta[: 3 * c].reshape(c, 3), model.theta[3 * c :]
        logits = X @ W.T + bias
        want = float(np.mean(logsumexp(logits, axis=1) - logits[np.arange(40), y]))
        assert model.loss(X, y) == want

    @pytest.mark.parametrize("arch", ["linear", "logistic"])
    def test_gradient_path_rows_equal_single_gradients(self, arch, linear_model, logistic_model):
        model = linear_model if arch == "linear" else logistic_model
        rng = np.random.default_rng(99)
        thetas = rng.normal(size=(9, model.d_p)) * 2.0
        x = rng.normal(size=model.f)
        y = 0.4 if arch == "linear" else 3
        path = model._grad_path(x, y, thetas)
        assert path.shape == (9, model.d_p)
        for t in range(9):
            assert np.array_equal(path[t], model.grad(x, y, thetas[t]))
        with pytest.raises(ValueError, match="x has length"):
            model._grad_path(np.zeros(model.f + 1), y, thetas)
        with pytest.raises(ValueError, match="thetas"):
            model._grad_path(x, y, thetas[:, 1:])

    def test_feature_width_is_checked_at_every_entry_point(self, logistic_model):
        X = np.zeros((8, 4))
        y = np.zeros(8, dtype=np.int64)
        with pytest.raises(ValueError, match=r"^X must have model.f=3 .*\(8, 4\)"):
            logistic_model.loss(X, y)
        with pytest.raises(ValueError, match=r"^X must have model.f=3 .*\(8, 4\)"):
            logistic_model.grad_batch(X, y)
        with pytest.raises(ValueError, match=r"^x must have model.f=3 .*\(1, 4\)"):
            logistic_model.grad(X[0], 0)
        with pytest.raises(ValueError, match=r"^X must have model.f=3 .*\(8, 4\)"):
            train_sgd(logistic_model, (X, y), eta=0.1, batch_size=4, epochs=1)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            ToyModel("tree", f=3)
        with pytest.raises(ValueError):
            ToyModel("logistic", f=3, c=1)
        with pytest.raises(ValueError):
            ToyModel("linear", f=3, theta=np.zeros(7))
        assert ToyModel("linear", f=3, c=9).c == 1  # class count is meaningless here

    def test_default_theta_is_zero(self):
        assert np.array_equal(ToyModel("linear", f=2).theta, np.zeros(3))


@pytest.fixture
def small_regression():
    rng = np.random.default_rng(78)
    X = rng.normal(size=(24, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 * rng.normal(size=24)
    return X, y


class TestTrainSgd:
    def test_iterate_differences_reconstruct_batch_gradients(self, linear_model, small_regression):
        X, y = small_regression
        trace = train_sgd(linear_model, (X, y), eta=0.1, batch_size=6, epochs=2, seed=5)
        assert trace.steps == 8
        for t in range(trace.steps):
            batch = trace.batch_schedule[t]
            g = linear_model.grad_batch(X[batch], y[batch], trace.thetas[t]).mean(axis=0)
            recon = (trace.thetas[t] - trace.thetas[t + 1]) / trace.eta
            assert np.max(np.abs(recon - g)) <= 1e-12

    def test_each_epoch_partitions_the_rows(self, linear_model, small_regression):
        X, y = small_regression
        trace = train_sgd(linear_model, (X, y), eta=0.05, batch_size=6, epochs=3, seed=6)
        per_epoch = trace.batch_schedule.reshape(3, -1)
        for rows in per_epoch:
            assert np.array_equal(np.sort(rows.ravel()), np.arange(24))

    def test_short_remainder_batch_is_dropped(self, linear_model, small_regression):
        X, y = small_regression
        trace = train_sgd(linear_model, (X, y), eta=0.05, batch_size=9, epochs=1, seed=7)
        assert trace.steps == 2
        assert len(np.unique(trace.batch_schedule)) == 18

    def test_clipping_rescales_long_gradients(self, linear_model, small_regression):
        X, y = small_regression
        clip = 0.75
        trace = train_sgd(linear_model, (X, y), eta=0.1, batch_size=6, epochs=1, clip=clip, seed=8)
        for t in range(trace.steps):
            batch = trace.batch_schedule[t]
            G = linear_model.grad_batch(X[batch], y[batch], trace.thetas[t])
            norms = np.linalg.norm(G, axis=1)
            G = G * np.minimum(1.0, clip / norms)[:, None]
            assert np.all(np.linalg.norm(G, axis=1) <= clip + 1e-12)
            recon = (trace.thetas[t] - trace.thetas[t + 1]) / trace.eta
            assert np.max(np.abs(recon - G.mean(axis=0))) <= 1e-12

    def test_noise_needs_clip_and_zero_noise_is_noiseless(self, linear_model, small_regression):
        X, y = small_regression
        with pytest.raises(ValueError):
            train_sgd(linear_model, (X, y), eta=0.1, batch_size=6, epochs=1, noise=0.5)
        a = train_sgd(linear_model, (X, y), eta=0.1, batch_size=6, epochs=1, clip=1.0, seed=9)
        b = train_sgd(
            linear_model, (X, y), eta=0.1, batch_size=6, epochs=1, clip=1.0, noise=0.0, seed=9
        )
        assert np.array_equal(a.thetas, b.thetas)

    @pytest.mark.parametrize("kw, param", NONFINITE_SGD.values(), ids=list(NONFINITE_SGD))
    def test_non_finite_settings_are_rejected(self, linear_model, small_regression, kw,
                                              param):
        X, y = small_regression
        sgd = {"eta": 0.1, "batch_size": 6, "epochs": 1, **kw}
        with pytest.raises(ValueError, match=rf"\b{param}\b"):
            train_sgd(linear_model, (X, y), **sgd)

    def test_infinite_clip_without_noise_does_not_clip(self, linear_model, small_regression):
        X, y = small_regression
        kw = dict(eta=0.1, batch_size=6, epochs=1, seed=9)
        a = train_sgd(linear_model, (X, y), **kw)
        b = train_sgd(linear_model, (X, y), clip=np.inf, **kw)
        assert np.array_equal(a.thetas, b.thetas)

    def test_noisy_runs_reproduce_under_a_seed(self, linear_model, small_regression):
        X, y = small_regression
        kw = dict(eta=0.1, batch_size=6, epochs=2, clip=1.0, noise=0.3)
        a = train_sgd(linear_model, (X, y), seed=10, **kw)
        b = train_sgd(linear_model, (X, y), seed=10, **kw)
        c = train_sgd(linear_model, (X, y), seed=11, **kw)
        assert np.array_equal(a.thetas, b.thetas)
        assert not np.array_equal(a.thetas, c.thetas)

    def test_model_instance_is_not_mutated(self, linear_model, small_regression):
        X, y = small_regression
        before = linear_model.theta.copy()
        trace = train_sgd(linear_model, (X, y), eta=0.2, batch_size=6, epochs=1, seed=12)
        assert np.array_equal(linear_model.theta, before)
        assert np.array_equal(trace.model.theta, before)
        assert not np.array_equal(trace.thetas[-1], before)

    def test_zero_learning_rate_freezes_the_iterates(self, linear_model, small_regression):
        X, y = small_regression
        trace = train_sgd(linear_model, (X, y), eta=0.0, batch_size=6, epochs=1, seed=13)
        assert np.all(trace.thetas == linear_model.theta)

    def test_labels_are_checked_once_per_run(self, logistic_model, monkeypatch):
        rng = np.random.default_rng(79)
        X = rng.normal(size=(24, 3))
        y = rng.integers(0, 4, size=24)
        calls = []
        real = ToyModel._check_labels

        def counting(self, labels):
            calls.append(1)
            return real(self, labels)

        monkeypatch.setattr(ToyModel, "_check_labels", counting)
        trace = train_sgd(logistic_model, (X, y), eta=0.1, batch_size=6, epochs=2, seed=5)
        assert trace.steps == 8
        assert len(calls) == 1
        y[-1] = 4
        with pytest.raises(ValueError, match="labels must be integers"):
            train_sgd(logistic_model, (X, y), eta=0.1, batch_size=6, epochs=1)

    def test_validation(self, linear_model, small_regression):
        X, y = small_regression
        with pytest.raises(ValueError):
            train_sgd(linear_model, (X, y), eta=0.1, batch_size=0, epochs=1)
        with pytest.raises(ValueError):
            train_sgd(linear_model, (X, y), eta=0.1, batch_size=25, epochs=1)
        with pytest.raises(ValueError):
            train_sgd(linear_model, (X, y), eta=0.1, batch_size=6, epochs=0)
        with pytest.raises(ValueError):
            train_sgd(linear_model, (X, y), eta=-0.1, batch_size=6, epochs=1)
        with pytest.raises(ValueError):
            train_sgd(linear_model, (X, y), eta=0.1, batch_size=6, epochs=1, clip=0.0)


class TestWhiteboxAttack:
    @pytest.fixture
    def trace_and_refs(self, linear_model, small_regression):
        X, y = small_regression
        trace = train_sgd(linear_model, (X, y), eta=0.1, batch_size=6, epochs=1, seed=14)
        refs = estimate_reference(reference_gradients(linear_model, X, y), ridge=0.0)
        return X, y, trace, refs

    def test_scalar_attack_matches_manual_sum(self, trace_and_refs):
        X, y, trace, refs = trace_and_refs
        target = (np.full(4, 2.0), 5.0)
        total = run_whitebox_attack(trace, target, refs, "scalar")
        want = 0.0
        for t in range(trace.steps):
            g_star = trace.model.grad(target[0], target[1], theta=trace.thetas[t])
            g_batch = (trace.thetas[t] - trace.thetas[t + 1]) / trace.eta
            want += float(g_star @ g_batch)
        assert total == pytest.approx(want, rel=1e-10)

    def test_covariance_attack_matches_explicit_inverse(self, trace_and_refs):
        X, y, trace, refs = trace_and_refs
        target = (np.full(4, 2.0), 5.0)
        total = run_whitebox_attack(trace, target, refs, "covariance")
        prec = np.diag(1.0 / (refs.c0 + refs.ridge))
        want = 0.0
        for t in range(trace.steps):
            g_star = trace.model.grad(target[0], target[1], theta=trace.thetas[t])
            g_batch = (trace.thetas[t] - trace.thetas[t + 1]) / trace.eta
            u = g_star - refs.mu0
            v = g_batch - refs.mu0
            want += float(u @ prec @ v) - float(u @ prec @ u) / (2 * trace.batch_size)
        assert total == pytest.approx(want, rel=1e-10)

    def test_parameter_slice_restricts_both_gradients(self, trace_and_refs):
        X, y, trace, refs = trace_and_refs
        target = (np.full(4, 2.0), 5.0)
        sliced_refs = estimate_reference(
            reference_gradients(trace.model, X, y)[:, 2:5], ridge=0.0
        )
        total = run_whitebox_attack(trace, target, sliced_refs, "scalar", param_slice=(2, 5))
        want = 0.0
        for t in range(trace.steps):
            g_star = trace.model.grad(target[0], target[1], theta=trace.thetas[t])[2:5]
            g_batch = ((trace.thetas[t] - trace.thetas[t + 1]) / trace.eta)[2:5]
            want += float(g_star @ g_batch)
        assert total == pytest.approx(want, rel=1e-10)

    def test_dimension_mismatch_and_bad_slices(self, trace_and_refs):
        X, y, trace, refs = trace_and_refs
        target = (np.full(4, 2.0), 5.0)
        with pytest.raises(ValueError, match="dimension"):
            run_whitebox_attack(trace, target, refs, "scalar", param_slice=(0, 3))
        with pytest.raises(ValueError):
            run_whitebox_attack(trace, target, refs, "scalar", param_slice=(3, 3))
        with pytest.raises(ValueError):
            run_whitebox_attack(trace, target, refs, "scalar", param_slice=(4, 1))

    def test_unknown_attack_rejected(self, trace_and_refs):
        X, y, trace, refs = trace_and_refs
        with pytest.raises(ConfigError):
            run_whitebox_attack(trace, (np.zeros(4), 0.0), refs, "shadow")

    def test_covariance_attack_whitens_each_gradient_once(
        self, linear_model, small_regression, monkeypatch
    ):
        X, y = small_regression
        trace = train_sgd(linear_model, (X, y), eta=0.1, batch_size=6, epochs=2, seed=16)
        refs = estimate_reference(reference_gradients(linear_model, X, y), cov_mode="full")
        target = (np.full(4, 2.0), 5.0)
        # the score sums u^T P v - u^T P u / (2 B) over the steps, with P
        # the inverse of the ridged reference covariance
        inv = np.linalg.inv(refs.c0 + refs.ridge * np.eye(refs.d))
        want = explicit = 0.0
        for t in range(trace.steps):
            u = trace.model.grad(target[0], target[1], theta=trace.thetas[t]) - refs.mu0
            v = (trace.thetas[t] - trace.thetas[t + 1]) / trace.eta - refs.mu0
            cross, quad = refs.precision_pair(u, v)
            want += cross - quad / (2.0 * 6)
            explicit += float(u @ inv @ v) - float(u @ inv @ u) / (2.0 * 6)
        solves = []
        real = score._TRTRS

        def counting(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(score, "_TRTRS", counting)
        total = run_whitebox_attack(trace, target, refs, "covariance")
        assert trace.steps == 8
        assert len(solves) == 2 * trace.steps  # the target's gradient and the batch's
        assert total == want
        assert total == pytest.approx(explicit, rel=1e-9)

    def test_covariance_trace_checks_finiteness_once(
        self, linear_model, small_regression, monkeypatch
    ):
        X, y = small_regression
        trace = train_sgd(linear_model, (X, y), eta=0.1, batch_size=6, epochs=2, seed=17)
        refs = estimate_reference(reference_gradients(linear_model, X, y), cov_mode="full")
        target = (np.full(4, 2.0), 5.0)
        checks = []
        real = score.ReferenceEstimates._check_finite

        def counting(self, *arrays):
            checks.append(len(arrays))
            return real(self, *arrays)

        monkeypatch.setattr(score.ReferenceEstimates, "_check_finite", counting)
        run_whitebox_attack(trace, target, refs, "covariance")
        assert checks == [2]  # the centered target and batch gradients, once each
        bad = (np.array([2.0, np.inf, 2.0, 2.0]), 5.0)
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            run_whitebox_attack(trace, bad, refs, "covariance")

    def test_frozen_trace_scores_zero_under_scalar_attack(self, linear_model, small_regression):
        X, y = small_regression
        trace = train_sgd(linear_model, (X, y), eta=0.0, batch_size=6, epochs=1, seed=15)
        refs = estimate_reference(reference_gradients(linear_model, X, y), ridge=0.0)
        assert run_whitebox_attack(trace, (np.ones(4), 1.0), refs, "scalar") == 0.0


EXACT_CASES = {
    # id: (arch, c, train_sgd keywords, param_slice)
    "linear": ("linear", 1, {}, None),
    "logistic-c2": ("logistic", 2, {}, None),
    "logistic-c3": ("logistic", 3, {}, None),
    "logistic-c3-slice": ("logistic", 3, {}, (6, 15)),
    "logistic-c2-clip-noise": ("logistic", 2, {"clip": 1.5, "noise": 0.7}, None),
    "linear-clip": ("linear", 1, {"clip": 0.5}, (1, 5)),
    "logistic-c3-eta0": ("logistic", 3, {"eta": 0.0}, None),
    "linear-two-epochs": ("linear", 1, {"epochs": 2}, None),
    "logistic-c3-two-epochs": ("logistic", 3, {"epochs": 2}, None),
    "logistic-c3-two-epochs-clip-noise": ("logistic", 3, {"epochs": 2, "clip": 1.0, "noise": 0.5},
                                          None),
    # from 8 classes on, the exponentials of the log-sum-exp are summed
    # pairwise from a contiguous copy; below 8 they are folded class by class
    "logistic-c7-two-epochs": ("logistic", 7, {"epochs": 2}, None),
    "logistic-c9-clip": ("logistic", 9, {"clip": 1.0}, None),
}


def exact_case(case):
    """Model, rows, target, SGD keywords, parameter slice and full-covariance
    references of one EXACT_CASES entry."""
    arch, c, kw, param_slice = EXACT_CASES[case]
    rng = np.random.default_rng(sorted(EXACT_CASES).index(case) + 200)
    f = 4
    if arch == "linear":
        X = rng.normal(size=(31, f))
        y = X @ rng.normal(size=f) + 0.3 * rng.normal(size=31)
        target = (np.full(f, 1.5), 4.0)
    else:
        X, y = make_blobs(31, f, c, seed=int(rng.integers(1 << 30)))
        target = (np.full(f, 3.0), c - 1)
    model = ToyModel(arch, f=f, c=c, theta=rng.normal(size=f * c + c) * 0.5)
    sgd = {"eta": 0.05, "epochs": 1, **kw}
    sl = slice(None) if param_slice is None else slice(*param_slice)
    refs = estimate_reference(reference_gradients(model, X, y)[:, sl], cov_mode="full")
    return model, X, y, target, sgd, param_slice, refs


class TestExactAgainstPerStepCode:
    """train_sgd and run_whitebox_attack against the per-step code in
    tests/oracles.py: one scipy logsumexp and one gradient call per step.
    Iterates and scores must agree exactly, with no tolerance."""

    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_iterates_and_scores_match(self, case):
        model, X, y, target, sgd, param_slice, refs = exact_case(case)
        trace = train_sgd(model, (X, y), batch_size=7, seed=11, **sgd)
        want = oracles.train_sgd_steps(model, (X, y), batch_size=7, seed=11, **sgd)
        assert np.array_equal(trace.thetas, want)

        for attack in ("covariance", "scalar"):
            got = run_whitebox_attack(trace, target, refs, attack, param_slice)
            ref = oracles.whitebox_attack_steps(
                model, want, sgd["eta"], 7, target, refs, attack, param_slice
            )
            assert got == ref


@pytest.fixture
def sgd_runs(monkeypatch):
    """The run count of each whitebox._sgd call, in call order."""
    runs = []
    real = whitebox._sgd

    def recording(model, X, labels, schedules, *args):
        runs.append(len(schedules))
        return real(model, X, labels, schedules, *args)

    monkeypatch.setattr(whitebox, "_sgd", recording)
    return runs


class TestStackedGameAgainstPerRepCode:
    """run_whitebox_game trains a chunk of reps as one SGD run. Its scores
    must equal, exactly, those of oracles.whitebox_game_reps, which trains
    and scores one rep at a time, whatever the chunk size and thread count."""

    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_scores_match_at_every_chunk_size(self, case, monkeypatch, sgd_runs):
        model, X, y, target, sgd, param_slice, refs = exact_case(case)
        reps, batch = 7, 7
        want = {
            attack: oracles.whitebox_game_reps(model, X, y, target, refs, attack, reps, 19,
                                               batch, param_slice, **sgd)
            for attack in ("covariance", "scalar")
        }
        assert {b for _, b in want["covariance"]} == {0, 1}
        for per_chunk in (1, 3, reps):
            monkeypatch.setattr("mi_audit.game._CHUNK_FLOATS",
                                per_chunk * (model.c * batch + model.d_p))
            for threads in (1, 3):
                # the chunk size is no argument of the game, so the slot
                # must not hold this game from the last chunk size
                monkeypatch.setattr(whitebox, "_last_game", None)
                # the covariance game trains every rep; the scalar game
                # right after it reads the same runs and trains none
                for attack, trained in (("covariance", reps), ("scalar", 0)):
                    sgd_runs.clear()
                    game = run_whitebox_game(
                        model, X, y, target, batch_size=batch, refs=refs, attack=attack,
                        reps=reps, master_seed=19, param_slice=param_slice, threads=threads,
                        **sgd,
                    )
                    assert [(r.score, r.b) for r in game] == want[attack]
                    assert sum(sgd_runs) == trained
                    if trained and threads == 1:
                        assert max(sgd_runs) == per_chunk

    def test_every_step_writes_one_gradient_block(self, monkeypatch):
        # a chunk's steps reuse one (batch, reps, d_p) block; the traces'
        # target gradients, taken after training, get a block of their own
        model, X, y, target, sgd, param_slice, refs = exact_case(
            "logistic-c3-two-epochs-clip-noise")
        blocks = []
        real = ToyModel._grads

        def recording(self, X, labels, theta, out=None):
            blocks.append(out)
            return real(self, X, labels, theta, out)

        monkeypatch.setattr(ToyModel, "_grads", recording)
        monkeypatch.setattr(whitebox, "_last_game", None)
        run_whitebox_game(model, X, y, target, batch_size=7, refs=refs, attack="covariance",
                          reps=5, master_seed=19, param_slice=param_slice, threads=1, **sgd)
        steps = 2 * (len(X) // 7)
        assert len(blocks) == steps + 1 and blocks[steps] is None
        assert blocks[0].shape == (7, 5, model.d_p)
        assert all(block is blocks[0] for block in blocks[:steps])

    def test_benchmark_shape_trains_fifty_reps_as_one_chunk(self, sgd_runs):
        # f=10, c=2 and batches of 64: a rep's fresh per-step floats are its
        # class-major logits and its update, 2 * 64 + 22
        X, y = make_blobs(513, 10, 2, seed=31)
        model = ToyModel("logistic", f=10, c=2)
        refs = estimate_reference(reference_gradients(model, X[1:], y[1:]), cov_mode="full")
        run_whitebox_game(model, X[1:], y[1:], (X[0], y[0]), eta=0.01, batch_size=64,
                          refs=refs, attack="scalar", reps=50, master_seed=32, threads=1)
        assert sgd_runs == [50]


class TestLastGame:
    """run_whitebox_game keeps the last game's scores of both attacks in one
    module slot. A call that differs from the last one only in ``attack``
    trains nothing; a change of any other argument, in place or not,
    trains afresh. Every game equals oracles.whitebox_game_reps exactly."""

    # clip and noise set, and a parameter slice whose references a second
    # slice of the same width can use
    CASE = "logistic-c3-two-epochs-clip-noise"
    OTHER = {"eta": 0.06, "batch_size": 6, "reps": 8, "master_seed": 20, "epochs": 1,
             "clip": 2.0, "noise": 0.25, "param_slice": (3, 15), "threads": 2}

    @staticmethod
    def game():
        model, X, y, target, sgd, _, _ = exact_case(TestLastGame.CASE)
        refs = estimate_reference(reference_gradients(model, X, y)[:, :12], cov_mode="full")
        kw = dict(batch_size=7, refs=refs, reps=7, master_seed=19, param_slice=(0, 12),
                  threads=1, **sgd)
        return model, X, y, target, kw

    @staticmethod
    def want(model, X, y, target, attack, kw):
        sgd = {key: kw[key] for key in ("eta", "epochs", "clip", "noise")}
        return oracles.whitebox_game_reps(model, X, y, target, kw["refs"], attack, kw["reps"],
                                          kw["master_seed"], kw["batch_size"],
                                          kw["param_slice"], **sgd)

    def play(self, sgd_runs, model, X, y, target, attack, kw, trained):
        sgd_runs.clear()
        game = run_whitebox_game(model, X, y, target, attack=attack, **kw)
        assert sum(sgd_runs) == trained
        assert [(r.score, r.b) for r in game] == self.want(model, X, y, target, attack, kw)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("first, second", [("covariance", "scalar"),
                                               ("scalar", "covariance")])
    def test_either_order_trains_once(self, sgd_runs, first, second, threads):
        model, X, y, target, kw = self.game()
        kw["threads"] = threads
        self.play(sgd_runs, model, X, y, target, first, kw, kw["reps"])
        self.play(sgd_runs, model, X, y, target, second, kw, 0)
        self.play(sgd_runs, model, X, y, target, first, kw, 0)

    @pytest.mark.parametrize("change", ["X-in-place", "y-in-place", "theta-in-place",
                                        "refs-ridge", "refs-rows", "target", *OTHER])
    def test_any_other_change_trains_afresh(self, sgd_runs, change):
        model, X, y, target, kw = self.game()
        self.play(sgd_runs, model, X, y, target, "covariance", kw, kw["reps"])
        if change == "X-in-place":
            X[0] += 0.5
        elif change == "y-in-place":
            y[0] = (y[0] + 1) % model.c
        elif change == "theta-in-place":
            model.theta[0] += 0.1
        elif change == "refs-ridge":
            kw["refs"] = estimate_reference(reference_gradients(model, X, y)[:, :12],
                                            cov_mode="full", ridge=1e-3)
        elif change == "refs-rows":
            kw["refs"] = estimate_reference(reference_gradients(model, X[1:], y[1:])[:, :12],
                                            cov_mode="full")
        elif change == "target":
            target = (target[0] + 0.5, target[1])
        else:
            kw[change] = self.OTHER[change]
        self.play(sgd_runs, model, X, y, target, "scalar", kw, kw["reps"])
        self.play(sgd_runs, model, X, y, target, "covariance", kw, 0)

    @pytest.mark.parametrize("bad", [
        lambda X, y: {"attack": "bogus"},
        lambda X, y: {"eta": np.nan},
        lambda X, y: {"reps": 0},
        lambda X, y: {"param_slice": (4, 17)},
        lambda X, y: {"threads": 0},
        # equal to threads=1 as a value, but still no integer thread count
        lambda X, y: {"threads": True},
        lambda X, y: {"target_example": (X[3], y[3])},
    ], ids=["attack", "eta-nan", "reps-0", "slice", "threads-0", "threads-true",
            "target-in-base-rows"])
    def test_a_call_that_raises_leaves_the_slot(self, sgd_runs, bad):
        model, X, y, target, kw = self.game()
        self.play(sgd_runs, model, X, y, target, "covariance", kw, kw["reps"])
        slot = whitebox._last_game
        with pytest.raises(ValueError):
            run_whitebox_game(model, X, y, **{"target_example": target, "attack": "scalar",
                                              **kw, **bad(X, y)})
        assert whitebox._last_game is slot
        self.play(sgd_runs, model, X, y, target, "scalar", kw, 0)


class TestWhiteboxGame:
    def test_membership_of_an_outlier_is_detectable(self, small_regression):
        X, y = small_regression
        model = ToyModel("linear", f=4)
        target = (np.full(4, 3.0), 12.0)
        refs = estimate_reference(reference_gradients(model, X, y), ridge=0.0)
        rounds = run_whitebox_game(
            model, X, y, target,
            eta=0.05, batch_size=6, refs=refs, attack="covariance",
            reps=60, master_seed=81,
        )
        bits = np.array([r.b for r in rounds])
        assert 15 <= bits.sum() <= 45
        assert roc(rounds).auc >= 0.75

    def test_thread_count_does_not_change_scores(self, small_regression):
        X, y = small_regression
        model = ToyModel("linear", f=4)
        target = (np.full(4, 3.0), 12.0)
        refs = estimate_reference(reference_gradients(model, X, y), ridge=0.0)
        kw = dict(eta=0.05, batch_size=6, refs=refs, attack="scalar", reps=10, master_seed=82)
        serial = run_whitebox_game(model, X, y, target, threads=1, **kw)
        threaded = run_whitebox_game(model, X, y, target, threads=3, **kw)
        assert serial == threaded

    def test_threads_below_one_are_rejected(self, small_regression):
        # the rule of run_crafter: None runs serially, anything but an
        # integer >= 1 is an error
        X, y = small_regression
        model = ToyModel("linear", f=4)
        target = (np.full(4, 3.0), 12.0)
        refs = estimate_reference(reference_gradients(model, X, y), ridge=0.0)
        kw = dict(eta=0.05, batch_size=6, refs=refs, attack="scalar", reps=4, master_seed=84)
        for threads in (0, -1, "2", 1.5, True):
            with pytest.raises(ConfigError, match="threads"):
                run_whitebox_game(model, X, y, target, threads=threads, **kw)
        serial = run_whitebox_game(model, X, y, target, threads=1, **kw)
        assert run_whitebox_game(model, X, y, target, threads=None, **kw) == serial

    def test_base_rows_containing_the_target_are_rejected(self, small_regression):
        X, y = small_regression
        model = ToyModel("linear", f=4)
        refs = estimate_reference(reference_gradients(model, X, y), ridge=0.0)
        with pytest.raises(ValueError, match="row 3"):
            run_whitebox_game(
                model, X, y, (X[3], y[3]),
                eta=0.05, batch_size=6, refs=refs, attack="scalar",
                reps=4, master_seed=83,
            )


    def test_target_label_must_keep_its_value_in_the_base_dtype(self, small_regression):
        # a linear model on integer labels would train on 4 and score at 4.5
        X, y = small_regression
        y_int = np.rint(y).astype(np.int64)
        model = ToyModel("linear", f=4)
        refs = estimate_reference(reference_gradients(model, X, y_int), ridge=0.0)
        x_t = np.full(4, 3.0)
        kw = dict(eta=0.05, batch_size=6, refs=refs, reps=6, master_seed=87)
        for attack in ("covariance", "scalar"):
            with pytest.raises(ValueError, match="target label 4.5"):
                run_whitebox_game(model, X, y_int, (x_t, 4.5), attack=attack, **kw)
            want = run_whitebox_game(model, X, y_int, (x_t, 4), attack=attack, **kw)
            assert run_whitebox_game(model, X, y_int, (x_t, 4.0), attack=attack, **kw) == want

    def test_logistic_target_label_given_as_a_float(self):
        X, y = make_blobs(97, 3, 2, seed=88)
        model = ToyModel("logistic", f=3, c=2)
        refs = estimate_reference(reference_gradients(model, X, y), cov_mode="full", ridge=1e-3)
        kw = dict(eta=0.1, batch_size=8, refs=refs, reps=6, master_seed=89)
        for attack in ("covariance", "scalar"):
            want = run_whitebox_game(model, X[1:], y[1:], (X[0], int(y[0])), attack=attack, **kw)
            got = run_whitebox_game(model, X[1:], y[1:], (X[0], float(y[0])), attack=attack, **kw)
            assert got == want


class TestMakeBlobs:
    def test_shapes_labels_and_reproducibility(self):
        X, y = make_blobs(50, 3, 4, seed=91)
        assert X.shape == (50, 3) and y.shape == (50,)
        assert y.min() >= 0 and y.max() < 4
        X2, y2 = make_blobs(50, 3, 4, seed=91)
        assert np.array_equal(X, X2) and np.array_equal(y, y2)

    def test_points_cluster_around_their_centers(self):
        X, y = make_blobs(200, 2, 3, center_scale=8.0, spread=0.2, seed=92)
        for k in range(3):
            own = X[y == k].mean(axis=0)
            for other in range(3):
                if other != k:
                    strangers = X[y == other].mean(axis=0)
                    spread_k = X[y == k] - own
                    assert np.linalg.norm(spread_k, axis=1).max() < np.linalg.norm(
                        own - strangers
                    )

    def test_validation(self):
        with pytest.raises(ValueError):
            make_blobs(0, 2, 2)
