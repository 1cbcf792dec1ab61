"""Game loop: crafting, transcripts, scoring, ROC estimation, configs."""

import math

import numpy as np
import pytest
from scipy import stats

import oracles
from mi_audit import game, theory
from mi_audit import (
    Bernoulli,
    ConfigError,
    CrafterTranscript,
    EmpiricalMean,
    Gaussian,
    GameConfig,
    NoisyMean,
    NumericalError,
    ProductDistribution,
    RocCurve,
    ScoredRound,
    SubsampledMean,
    ToyModel,
    craft,
    empirical_advantage,
    estimate_reference,
    make_score,
    reference_gradients,
    roc,
    round_stream,
    run_average_game,
    run_crafter,
    run_fixed_game,
    run_whitebox_game,
    score_transcript,
)


@pytest.fixture
def tiny_dist():
    return ProductDistribution.bernoulli_uniform(6, a=0.25, seed=31)


class TestRoundStream:
    def test_same_key_same_draws(self):
        a = round_stream(5, 7).uniform(size=8)
        b = round_stream(5, 7).uniform(size=8)
        assert np.array_equal(a, b)

    def test_key_components_matter(self):
        base = round_stream(5, 7).uniform(size=8)
        assert not np.array_equal(base, round_stream(5, 8).uniform(size=8))
        assert not np.array_equal(base, round_stream(6, 7).uniform(size=8))
        assert not np.array_equal(base, round_stream(7, 5).uniform(size=8))

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            round_stream(-1, 0)
        with pytest.raises(ValueError):
            round_stream(0, -1)
        with pytest.raises(ValueError):
            game._round_streams(-1)(0)

    def test_rekeyed_stream_draws_what_a_new_stream_draws(self):
        # each round leaves the reused generator in another state: a spare
        # 32-bit half, a partly used 64-bit buffer, or both
        leftovers = [
            lambda g: g.integers(0, 2**32, dtype=np.uint32),
            lambda g: g.random(3),
            lambda g: (g.random(2), g.integers(0, 2**32, size=3, dtype=np.uint32)),
            lambda g: g.binomial(40, 0.3, size=5),
        ]
        stream = game._round_streams(5)
        left = []
        for t, leave in enumerate(leftovers * 2):
            got, want = stream(t), round_stream(5, t)
            assert np.array_equal(got.integers(0, 2**32, size=3, dtype=np.uint32),
                                  want.integers(0, 2**32, size=3, dtype=np.uint32))
            assert np.array_equal(got.random(5), want.random(5))
            assert np.array_equal(got.standard_normal(4), want.standard_normal(4))
            assert np.array_equal(got.binomial(1000, 0.3, size=3), want.binomial(1000, 0.3, size=3))
            leave(got)
            state = got.bit_generator.state
            left.append((state["has_uint32"], state["buffer_pos"]))
        assert any(half == 1 for half, _ in left)
        assert any(pos < 4 for _, pos in left)


class TestCraft:
    def test_single_row_member_release_equals_target(self, tiny_dist):
        z = np.ones(tiny_dist.d)
        hits = 0
        for t in range(24):
            o, b = craft(tiny_dist, EmpiricalMean(), 1, z, round_stream(77, t))
            if b == 1:
                hits += 1
                assert np.array_equal(o, z)
        assert hits >= 5

    def test_nonrepresentable_target_upcasts_instead_of_truncating(self, tiny_dist):
        z = np.full(tiny_dist.d, 0.5)
        seen_half = False
        for t in range(24):
            o, b = craft(tiny_dist, EmpiricalMean(), 1, z, round_stream(78, t))
            if b == 1:
                assert np.array_equal(o, z)
                seen_half = True
        assert seen_half

    def test_rejects_nonpositive_n(self, tiny_dist):
        with pytest.raises(ValueError):
            craft(tiny_dist, EmpiricalMean(), 0, np.ones(tiny_dist.d), round_stream(1, 1))


def _oracle_rounds(dist, mech, n, z, rounds, seed):
    outputs = np.empty((rounds, dist.d))
    bits = np.empty(rounds, dtype=np.int64)
    for t in range(rounds):
        rng = np.random.default_rng([seed, t])
        outputs[t], bits[t] = oracles.craft_rows(dist, mech, n, z, rng)
    return outputs, bits


def _release_moments(dist, mech, n, z, b):
    """Exact mean and variance of each released coordinate given the bit.

    The release averages r rows (r = n, or k for a subsampled mean); a
    planted target is among them with probability q (1, or k / n).
    """
    mu, sigma2 = dist.moments()
    r, q, noise = n, 1.0, 0.0
    if isinstance(mech, SubsampledMean):
        r = mech.k(n)
        q = r / n
    if isinstance(mech, NoisyMean):
        noise = np.square(mech.gamma) / n
    u = np.asarray(z, dtype=np.float64) - mu
    mean = mu + b * q * u / r
    var = ((r - b * q) * sigma2 + b * q * (1 - q) * u**2) / r**2 + noise
    return mean, var


def _check_moments(x, mean, var, label):
    # five standard errors, the variance's from the sample fourth moment
    T = x.shape[0]
    m = x.mean(axis=0)
    c = x - m
    s2 = np.mean(c**2, axis=0)
    m4 = np.mean(c**4, axis=0)
    assert np.all(np.abs(m - mean) <= 5 * np.sqrt(var / T)), label
    assert np.all(np.abs(s2 - var) <= 5 * np.sqrt((m4 - s2**2) / T)), label


MIXED = ProductDistribution(
    [Bernoulli(0.3), Gaussian(1.5, 2.0), Bernoulli(0.65), Gaussian(-1.0, 0.5)]
)
BERN = ProductDistribution.bernoulli([0.2, 0.5, 0.7])
MECHS = {
    "exact": EmpiricalMean(),
    "noisy": NoisyMean(np.array([0.7, 0.2, 1.1, 0.4])),
    "subsampled": SubsampledMean(0.4),
}


class TestCraftMatchesRowOracle:
    """The column-sum crafter against the row-level one of tests/oracles.py:
    both must give every coordinate of the release the same law."""

    ROUNDS = 3000

    @pytest.mark.parametrize("mech_name", sorted(MECHS))
    @pytest.mark.parametrize("dist_name", ["bernoulli", "mixed"])
    def test_release_law(self, dist_name, mech_name):
        if dist_name == "mixed":
            dist, z = MIXED, np.array([1.0, 3.0, 0.0, -1.0])
        else:
            dist, z = BERN, np.array([1.0, 0.0, 0.0])
        mech = MECHS[mech_name]
        if mech_name == "noisy":
            mech = NoisyMean(mech.gamma[: dist.d])
        n, seed = 10, 300 + 10 * len(dist_name) + len(mech_name)
        tr = run_crafter(dist, mech, n, z, self.ROUNDS, seed, threads=1)
        ref, ref_bits = _oracle_rounds(dist, mech, n, z, self.ROUNDS, seed)
        for b in (0, 1):
            got = tr.outputs[tr.bits == b]
            want = ref[ref_bits == b]
            mean, var = _release_moments(dist, mech, n, z, b)
            label = f"{dist_name}/{mech_name} b={b}"
            _check_moments(got, mean, var, label + " crafter")
            _check_moments(want, mean, var, label + " oracle")
            for j in range(dist.d):
                p = stats.ks_2samp(got[:, j], want[:, j]).pvalue
                assert p > 1e-3, f"{label} column {j}: KS p-value {p:.2g}"

    @pytest.mark.parametrize("mech_name", ["exact", "subsampled"])
    def test_bernoulli_counts_are_binomial(self, mech_name):
        # rows * release is Binomial(rows - i, p) + i z exactly: an integer
        # count in [0, rows] whose frequencies match the binomial pmf
        mech = MECHS[mech_name]
        n = 10
        rows = mech.k(n) if mech_name == "subsampled" else n
        z = np.zeros(BERN.d)
        tr = run_crafter(BERN, mech, n, z, self.ROUNDS, 71, threads=1)
        counts = tr.outputs[tr.bits == 0] * rows
        assert np.array_equal(counts, np.rint(counts))
        p, _ = BERN.moments()
        for j in range(BERN.d):
            observed = np.bincount(counts[:, j].astype(np.intp), minlength=rows + 1)
            expected = stats.binom.pmf(np.arange(rows + 1), rows, p[j]) * counts.shape[0]
            # pool the sparse tail cells into one
            keep = expected >= 5
            if not keep.all():
                observed = np.append(observed[keep], observed[~keep].sum())
                expected = np.append(expected[keep], expected[~keep].sum())
            pval = stats.chisquare(observed, expected).pvalue
            assert pval > 1e-3, f"column {j}: chi-square p-value {pval:.2g}"

    def test_non_binary_target_on_bernoulli_columns(self):
        # the planted row is a real vector, not a value of the columns:
        # n * release - z is still a Binomial(n - 1, p) count
        dist = ProductDistribution.bernoulli([0.3, 0.6])
        z = np.array([0.5, 2.25])
        n = 6
        tr = run_crafter(dist, EmpiricalMean(), n, z, self.ROUNDS, 72, threads=1)
        ref, ref_bits = _oracle_rounds(dist, EmpiricalMean(), n, z, self.ROUNDS, 72)
        for outputs, bits in ((tr.outputs, tr.bits), (ref, ref_bits)):
            counts = outputs[bits == 1] * n - z
            assert np.allclose(counts, np.rint(counts), atol=1e-12)
            assert counts.min() >= -1e-12 and counts.max() <= n - 1 + 1e-12
        mean, var = _release_moments(dist, EmpiricalMean(), n, z, 1)
        _check_moments(tr.outputs[tr.bits == 1], mean, var, "non-binary target")
        for j in range(dist.d):
            p = stats.ks_2samp(tr.outputs[tr.bits == 1, j], ref[ref_bits == 1, j]).pvalue
            assert p > 1e-3, f"column {j}: KS p-value {p:.2g}"

    def test_subsampled_inclusion_rate(self):
        # with a half-integer target, k * release has fractional part 1/2
        # exactly when the planted row was kept; that happens at rate k / n
        dist = ProductDistribution.bernoulli([0.4, 0.55])
        z = np.full(2, 0.5)
        n, mech = 10, SubsampledMean(0.3)
        k = mech.k(n)
        tr = run_crafter(dist, mech, n, z, self.ROUNDS, 73, threads=1)
        ref, ref_bits = _oracle_rounds(dist, mech, n, z, self.ROUNDS, 73)
        for outputs, bits in ((tr.outputs, tr.bits), (ref, ref_bits)):
            frac = np.mod(outputs[:, 0] * k, 1.0)
            kept = np.isclose(frac, 0.5)
            assert not np.any(kept[bits == 0])
            rate = float(np.mean(kept[bits == 1]))
            trials = int(np.sum(bits == 1))
            assert abs(rate - k / n) <= 4 * math.sqrt(k / n * (1 - k / n) / trials)

    @pytest.mark.parametrize("mech_name", sorted(MECHS))
    def test_craft_reproduces_any_round(self, mech_name):
        # round t of run_crafter is craft on stream (seed, t), at any thread count
        mech = MECHS[mech_name]
        z = np.array([1.0, 3.0, 0.0, -1.0])
        for threads in (1, 2):
            tr = run_crafter(MIXED, mech, 9, z, 24, 74, threads=threads)
            for t in (0, 7, 23):
                o, b = craft(MIXED, mech, 9, z, round_stream(74, t))
                assert np.array_equal(o, tr.outputs[t]) and b == tr.bits[t]

    def test_noisy_gamma_length_is_checked(self):
        with pytest.raises(ValueError, match="gamma has length 3"):
            craft(MIXED, NoisyMean(np.ones(3)), 5, np.zeros(4), round_stream(1, 0))


MIXED50 = ProductDistribution(
    [Bernoulli(0.2 + 0.012 * j) if j % 2 else Gaussian(0.1 * j - 2.0, 0.5 + 0.03 * j)
     for j in range(50)]
)


class TestChunkedRounds:
    """Chunks group the arithmetic of a game, never its draws: every round
    equals the one-round path on its own (seed, t) stream, bit for bit."""

    @pytest.mark.parametrize("mech_name", sorted(MECHS))
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_run_crafter_equals_per_round_craft(self, mech_name, threads, offset, monkeypatch):
        monkeypatch.setattr(game, "_CHUNK_FLOATS", 5 * MIXED.d)
        z = np.array([1.0, 3.0, 0.0, -1.0])
        T = 5 + offset
        tr = run_crafter(MIXED, MECHS[mech_name], 9, z, T, 75, threads=threads)
        for t in range(T):
            o, b = craft(MIXED, MECHS[mech_name], 9, z, round_stream(75, t))
            assert np.array_equal(o, tr.outputs[t]) and b == tr.bits[t]

    @pytest.mark.parametrize("mech_name", sorted(MECHS))
    def test_default_chunks_at_d50(self, mech_name):
        mech = NoisyMean(0.6) if mech_name == "noisy" else MECHS[mech_name]
        z = np.linspace(-1.0, 1.0, MIXED50.d)
        chunk = game._chunk_len(10**6, MIXED50.d, 1, game._CHUNK_FLOATS)
        assert chunk == game._CHUNK_FLOATS // MIXED50.d
        tr = run_crafter(MIXED50, mech, 20, z, chunk + 1, 76)
        for t in range(chunk + 1):
            o, b = craft(MIXED50, mech, 20, z, round_stream(76, t))
            assert np.array_equal(o, tr.outputs[t]) and b == tr.bits[t]

    def test_chunk_rule(self):
        # within the budget, at least one chunk per worker, one item at least
        assert game._chunk_len(20, 5, 1, 30) == 5
        assert game._chunk_len(20, 5, 8, 30) == 3
        assert game._chunk_len(4, 5, 8, 30) == 1
        assert game._chunk_len(3, 100, 1, 30) == 1
        assert game._chunk_len(12, 5, 1, 30) == 6

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("failure", ["nan", "raise"])
    def test_fixed_game_names_the_first_bad_round(self, threads, failure, monkeypatch):
        monkeypatch.setattr(game, "_CHUNK_FLOATS", 4 * MIXED.d)
        cfg = GameConfig(dist=MIXED, mech=MECHS["exact"], n=6, z=np.ones(4),
                         score_name="lr_asymptotic", rounds=40, master_seed=77, threads=threads)
        tr = run_crafter(MIXED, cfg.mech, 6, cfg.z, 40, 77)
        # every score past a cut of the first coordinate is bad; the first
        # such round lies past the first chunk
        cut = np.sort(tr.outputs[:, 0])[-3]
        first = int(np.argmax(tr.outputs[:, 0] >= cut))
        assert first >= 4

        def one(o, z):
            if o[0] < cut:
                return 0.0
            if failure == "nan":
                return float("nan")
            raise ValueError("bad release")

        def block(O, z):
            if failure == "raise" and np.any(O[:, 0] >= cut):
                raise ValueError("bad block")
            return np.where(O[:, 0] < cut, 0.0, np.nan)

        one.block = block
        monkeypatch.setattr(game, "make_score", lambda name, **kw: one)
        err, text = (NumericalError, "score is NaN") if failure == "nan" else (ValueError,
                                                                            "bad release")
        with pytest.raises(err, match=rf"^round {first}: {text}$"):
            run_fixed_game(cfg)
        with pytest.raises(err, match=rf"^round {first}: {text}$"):
            score_transcript(tr, one, cfg.z)


class TestRunCrafter:
    def test_coin_is_fair_and_conditional_means_shift(self):
        dist = ProductDistribution.bernoulli_uniform(2, a=0.25, seed=32)
        mu, sigma2 = dist.moments()
        z = np.ones(2)
        n, T = 10, 100_000
        tr = run_crafter(dist, EmpiricalMean(), n, z, T, master_seed=91, threads=1)
        frac = float(np.mean(tr.bits))
        assert abs(frac - 0.5) <= 4 * 0.5 / math.sqrt(T)

        out_mean = tr.outputs[tr.bits == 0].mean(axis=0)
        in_mean = tr.outputs[tr.bits == 1].mean(axis=0)
        t0 = int(np.sum(tr.bits == 0))
        t1 = int(np.sum(tr.bits == 1))
        # planting the target moves the expected release by (z - mu) / n
        tol_out = 4 * np.sqrt(sigma2 / n / t0)
        tol_in = 4 * np.sqrt((n - 1) * sigma2 / n**2 / t1)
        assert np.all(np.abs(out_mean - mu) <= tol_out)
        assert np.all(np.abs(in_mean - (mu + (z - mu) / n)) <= tol_in)

    def test_thread_count_does_not_change_the_transcript(self, tiny_dist):
        z = np.ones(tiny_dist.d)
        serial = run_crafter(tiny_dist, EmpiricalMean(), 16, z, 64, 44, threads=1)
        threaded = run_crafter(tiny_dist, EmpiricalMean(), 16, z, 64, 44, threads=3)
        assert np.array_equal(serial.outputs, threaded.outputs)
        assert np.array_equal(serial.bits, threaded.bits)
        fn = make_score("lr_asymptotic", dist=tiny_dist, n=16)
        serial = run_average_game(tiny_dist, EmpiricalMean(), 16, fn, T=64, seed=44, threads=1)
        threaded = run_average_game(tiny_dist, EmpiricalMean(), 16, fn, T=64, seed=44, threads=2)
        assert serial == threaded

    def test_threads_none_never_starts_a_pool(self, tiny_dist, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread pool was started")

        monkeypatch.setattr(game, "ThreadPoolExecutor", NoPool)
        z = np.ones(tiny_dist.d)
        fn = make_score("lr_asymptotic", dist=tiny_dist, n=8)
        rng = np.random.default_rng(85)
        X = rng.normal(size=(24, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0])
        model = ToyModel("linear", f=4)
        refs = estimate_reference(reference_gradients(model, X, y), ridge=0.0)
        target = (np.full(4, 3.0), 12.0)
        kw = dict(eta=0.05, batch_size=6, refs=refs, attack="scalar", reps=4, master_seed=86)
        assert run_crafter(tiny_dist, EmpiricalMean(), 8, z, 4, 86, threads=None).rounds == 4
        assert len(run_average_game(tiny_dist, EmpiricalMean(), 8, fn, 4, 86, threads=None)) == 4
        assert len(run_whitebox_game(model, X, y, target, threads=None, **kw)) == 4
        # the stub is the pool the games would start
        with pytest.raises(AssertionError, match="thread pool"):
            run_crafter(tiny_dist, EmpiricalMean(), 8, z, 4, 86, threads=2)

    def test_transcript_is_read_only(self, tiny_dist):
        tr = run_crafter(tiny_dist, EmpiricalMean(), 4, np.ones(tiny_dist.d), 3, 1)
        with pytest.raises(ValueError):
            tr.outputs[0, 0] = 9.0
        with pytest.raises(ValueError):
            tr.bits[0] = 1

    def test_validation(self, tiny_dist):
        z = np.ones(tiny_dist.d)
        with pytest.raises(ValueError):
            run_crafter(tiny_dist, EmpiricalMean(), 4, z, 0, 1)
        for threads in (0, -1, "2", 1.5, True):
            with pytest.raises(ConfigError, match="threads"):
                run_crafter(tiny_dist, EmpiricalMean(), 4, z, 2, 1, threads=threads)
        with pytest.raises(ValueError):
            CrafterTranscript(outputs=np.zeros((3, 2)), bits=np.zeros(4, dtype=np.uint8))


class TestScoreTranscript:
    def test_matches_direct_evaluation(self, tiny_dist):
        z = np.ones(tiny_dist.d)
        tr = run_crafter(tiny_dist, EmpiricalMean(), 12, z, 20, 45)
        fn = make_score("lr_asymptotic", dist=tiny_dist, n=12)
        rounds = score_transcript(tr, fn, z)
        assert len(rounds) == 20
        for t, r in enumerate(rounds):
            assert r.score == fn(tr.outputs[t], z)
            assert r.b == int(tr.bits[t])

    def test_score_error_names_the_round(self, tiny_dist):
        z = np.ones(tiny_dist.d)
        tr = run_crafter(tiny_dist, EmpiricalMean(), 4, z, 6, 46)
        calls = {"t": 0}

        def flaky(o, zz):
            if calls["t"] == 3:
                raise ValueError("bad moment")
            calls["t"] += 1
            return 0.0

        with pytest.raises(ValueError, match=r"round 3: bad moment") as err:
            score_transcript(tr, flaky, z)
        assert type(err.value) is ConfigError
        assert type(err.value.__cause__) is ValueError
        assert str(err.value.__cause__) == "bad moment"

    def test_other_score_error_is_numerical_and_names_the_round(self, tiny_dist):
        z = np.ones(tiny_dist.d)
        tr = run_crafter(tiny_dist, EmpiricalMean(), 4, z, 6, 46)

        def broken(o, zz):
            return 1.0 / 0.0

        with pytest.raises(NumericalError, match=r"^round 0: float division by zero$") as err:
            score_transcript(tr, broken, z)
        assert type(err.value.__cause__) is ZeroDivisionError

    def test_nan_score_is_rejected(self, tiny_dist):
        z = np.ones(tiny_dist.d)
        tr = run_crafter(tiny_dist, EmpiricalMean(), 4, z, 2, 47)
        with pytest.raises(NumericalError, match=r"round 0.*NaN"):
            score_transcript(tr, lambda o, zz: float("nan"), z)


class TestRoc:
    def test_hand_case_with_ties_and_sentinels(self):
        rounds = [
            ScoredRound(math.inf, 1),
            ScoredRound(2.0, 1),
            ScoredRound(2.0, 0),
            ScoredRound(1.0, 0),
            ScoredRound(-math.inf, 1),
            ScoredRound(-math.inf, 0),
        ]
        curve = roc(rounds)
        want = np.array(
            [[0, 0], [0, 1 / 3], [1 / 3, 2 / 3], [2 / 3, 2 / 3], [1, 1]], dtype=float
        )
        assert np.allclose(curve.points, want, atol=1e-15)
        assert curve.auc == pytest.approx(2 / 3, abs=1e-15)
        assert curve.auc == pytest.approx(
            oracles.pairwise_auc([r.score for r in rounds], [r.b for r in rounds]),
            abs=1e-15,
        )

    def test_auc_matches_pairwise_probability(self):
        rng = np.random.default_rng(48)
        scores = rng.integers(0, 12, size=300) / 4.0  # heavy ties
        bits = rng.integers(0, 2, size=300)
        bits[0], bits[1] = 0, 1
        rounds = [ScoredRound(float(s), int(b)) for s, b in zip(scores, bits)]
        assert roc(rounds).auc == pytest.approx(
            oracles.pairwise_auc(scores, bits), abs=1e-12
        )

    def test_best_advantage_matches_threshold_sweep(self):
        rng = np.random.default_rng(49)
        scores = np.round(rng.normal(size=400), 1)
        bits = (rng.uniform(size=400) < 0.5).astype(int)
        bits[:2] = [0, 1]
        rounds = [ScoredRound(float(s), int(b)) for s, b in zip(scores, bits)]
        assert roc(rounds).best_advantage() == pytest.approx(
            oracles.best_advantage_bruteforce(scores, bits), abs=1e-12
        )

    def test_needs_both_classes(self):
        with pytest.raises(ValueError):
            roc([ScoredRound(1.0, 1), ScoredRound(0.0, 1)])

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RocCurve(points=np.array([[0.0, 0.1], [1.0, 1.0]]), auc=0.5)
        with pytest.raises(ValueError):
            RocCurve(points=np.array([[0.0, 0.0], [0.5, 0.8], [0.4, 1.0], [1.0, 1.0]]), auc=0.5)
        with pytest.raises(ValueError):
            RocCurve(points=np.array([[0.0, 0.0], [1.0, 1.0]]), auc=1.5)


class TestEmpiricalAdvantage:
    def test_hand_cases(self):
        rounds = [ScoredRound(3.0, 1), ScoredRound(1.0, 0), ScoredRound(0.0, 0), ScoredRound(2.0, 1)]
        assert empirical_advantage(rounds, 1.5) == pytest.approx(1.0)
        assert empirical_advantage(rounds, 2.5) == pytest.approx(0.5)
        assert empirical_advantage(rounds, -1.0) == pytest.approx(0.0)

    def test_matches_rate_oracle(self):
        rng = np.random.default_rng(50)
        scores = rng.normal(size=200)
        bits = rng.integers(0, 2, size=200)
        rounds = [ScoredRound(float(s), int(b)) for s, b in zip(scores, bits)]
        tau = 0.3
        fpr, tpr = oracles.rates_at_threshold(scores, bits, tau)
        n1 = int(bits.sum())
        n0 = len(bits) - n1
        acc = (n1 * tpr + n0 * (1 - fpr)) / len(bits)
        assert empirical_advantage(rounds, tau) == pytest.approx(2 * acc - 1, abs=1e-12)


class TestBlockedAnalysis:
    """The ROC, the gaps and the advantages read per-round arrays a block of
    theory._BLOCK_ROWS rows at a time. Across block boundaries they must
    equal the one-array oracles, compared with ==, and not depend on the
    block size."""

    @staticmethod
    def _game(count, seed):
        # continuous scores, tie groups from rounding, and +-inf sentinels
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=count).astype(np.uint8)
        bits[:2] = [0, 1]
        scores = rng.normal(size=count) + 0.8 * bits
        tied = rng.random(count) < 0.15
        scores[tied] = np.round(scores[tied], 1)
        scores[rng.choice(count, 40, replace=False)] = np.inf
        scores[rng.choice(count, 40, replace=False)] = -np.inf
        # a tie group of 1 % of the rounds where the sweep crosses from its
        # first block to its second
        scores[rng.choice(count, count // 100, replace=False)] = np.sort(scores)[-1 - min(
            theory._BLOCK_ROWS, count - 1)]
        return scores, bits

    @staticmethod
    def _readings(scores, bits, other):
        curve = game._roc(scores, bits)
        return (curve.points, curve.auc, curve.best_advantage(),
                theory.sup_norm_gap(curve, 0.64), theory.polyline_gap(curve, game._roc(*other)),
                theory.vertical_gap(curve, 0.64, alpha_min=0.01),
                game._advantage(scores, bits, 0.4))

    def test_roc_spans_blocks_and_matches_brute_force(self):
        block = theory._BLOCK_ROWS
        scores, bits = self._game(3 * block + 321, 2)
        curve = game._roc(scores, bits)
        want = oracles.roc_points_ref(scores, bits)
        assert len(want) > 2 * block + 1
        # a tie group straddles a block boundary of the sweep
        swept = np.sort(scores)[::-1]
        assert any(swept[lo - 1] == swept[lo] for lo in range(block, len(swept), block))
        assert np.array_equal(curve.points, want)
        assert curve.auc == float(np.trapezoid(want[:, 1], want[:, 0]))
        assert curve.best_advantage() == float(np.max(np.abs(want[:, 1] - want[:, 0])))
        assert not curve.points.flags.writeable
        rounds = [ScoredRound(s, b) for s, b in zip(scores.tolist(), bits.tolist())]
        assert np.array_equal(roc(rounds).points, want)

    def test_gaps_and_advantage_match_one_array_oracles(self):
        scores, bits = self._game(3 * theory._BLOCK_ROWS + 321, 3)
        points = game._roc(scores, bits).points
        other = game._roc(*self._game(5000, 4)).points
        for m in (0.0, 0.64, 4.0):
            want = oracles.polyline_gap_kdtree(points, theory._theory_polyline(m))
            assert theory.sup_norm_gap(points, m) == want
        assert theory.polyline_gap(points, other) == oracles.polyline_gap_kdtree(points, other)
        for m, q in ((0.64, 1.0), (2.5, 0.5)):
            curve = theory.TradeoffCurve.from_leakage(m, q=q)
            for alpha_min in (0.0, 1e-3, 0.2):
                assert (theory.vertical_gap(points, curve, alpha_min)
                        == oracles.vertical_gap_ref(points, m, q, alpha_min))
        for tau in (-np.inf, 0.0, 0.4, np.inf):
            guesses = (scores > tau).astype(np.float64)
            want = float(2.0 * np.mean(guesses == bits.astype(np.float64)) - 1.0)
            assert game._advantage(scores, bits, tau) == want

    def test_readings_do_not_depend_on_the_block_size(self, monkeypatch):
        scores, bits = self._game(700, 5)
        other = self._game(300, 6)
        want = self._readings(scores, bits, other)
        for rows in (2, 7, 10**9):
            monkeypatch.setattr(game, "_BLOCK_ROWS", rows)
            monkeypatch.setattr(theory, "_BLOCK_ROWS", rows)
            got = self._readings(scores, bits, other)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]


class TestGameConfig:
    CFG = {
        "dist": {"law": "bernoulli_uniform", "d": 6, "a": 0.25, "seed": 31},
        "mechanism": {"mechanism": "empirical_mean"},
        "n": 12,
        "target": {"extreme": "easy"},
        "score": "lr_asymptotic",
        "rounds": 40,
        "master_seed": 52,
        "threads": 1,
    }

    def test_from_dict_matches_manual_pipeline(self, tiny_dist):
        cfg = GameConfig.from_dict(self.CFG)
        got = run_fixed_game(cfg)

        from mi_audit import make_extreme_targets

        z_easy, _ = make_extreme_targets(tiny_dist)
        tr = run_crafter(tiny_dist, EmpiricalMean(), 12, z_easy, 40, 52, threads=1)
        fn = make_score("lr_asymptotic", dist=tiny_dist, n=12)
        want = score_transcript(tr, fn, z_easy)
        assert got == want

    def test_refs_spec_builds_reference_estimates(self, tiny_dist):
        cfg = dict(self.CFG, score="lr_empirical_cov")
        cfg["score_info"] = {"refs": {"n0": 50, "seed": 9, "cov_mode": "diagonal"}}
        parsed = GameConfig.from_dict(cfg)

        from mi_audit import estimate_reference

        sample = tiny_dist.sample_dataset(50, np.random.default_rng(9))
        want = estimate_reference(sample, cov_mode="diagonal")
        refs = parsed.score_kwargs["refs"]
        assert np.array_equal(refs.mu0, want.mu0)
        assert np.array_equal(refs.c0, want.c0)
        assert refs.ridge == want.ridge
        assert len(run_fixed_game(parsed)) == 40

    def test_missing_key_is_config_error(self):
        bad = {k: v for k, v in self.CFG.items() if k != "n"}
        with pytest.raises(ConfigError, match="missing key"):
            GameConfig.from_dict(bad)

    def test_null_value_is_config_error(self):
        with pytest.raises(ConfigError, match=r"\bn must be an integer"):
            GameConfig.from_dict(dict(self.CFG, n=None))

    def test_unknown_score_info_key_is_config_error(self):
        cfg = dict(self.CFG)
        cfg["score_info"] = {"gama": 0.5}
        with pytest.raises(ConfigError, match="gama"):
            GameConfig.from_dict(cfg)

    @pytest.mark.parametrize("key", ["z_targ", "z_ref"])
    def test_score_info_target_specs(self, tiny_dist, key):
        from mi_audit import make_extreme_targets

        parsed = GameConfig.from_dict(dict(self.CFG, score_info={key: {"extreme": "hard"}}))
        assert list(parsed.score_kwargs) == [key]
        _, z_hard = make_extreme_targets(tiny_dist)
        assert np.array_equal(parsed.score_kwargs[key].z, z_hard.z)

    @pytest.mark.parametrize("key, value, want", [("gamma", 0.5, 0.5), ("rho", "0.25", 0.25)])
    def test_score_info_scalars(self, key, value, want):
        parsed = GameConfig.from_dict(dict(self.CFG, score_info={key: value}))
        assert parsed.score_kwargs == {key: want}

    @pytest.mark.parametrize("extra", ["bogus", "seed_n0"])
    def test_unknown_refs_key_is_config_error(self, extra):
        cfg = dict(self.CFG, score="lr_empirical_cov")
        cfg["score_info"] = {"refs": {"n0": 50, "seed": 9, extra: 1}}
        with pytest.raises(ConfigError, match=extra):
            GameConfig.from_dict(cfg)

    def test_unknown_score_name_is_config_error(self, tiny_dist):
        with pytest.raises(ConfigError, match="lr_made_up"):
            GameConfig(
                dist=tiny_dist,
                mech=EmpiricalMean(),
                n=5,
                z=np.ones(6),
                score_name="lr_made_up",
            )

    def test_exact_bernoulli_rejects_a_noisy_release(self, tiny_dist):
        # a noisy release leaves [0, 1], so the game fails before any round
        for gamma in (0.6, [0.0] * 5 + [0.3]):
            with pytest.raises(ConfigError, match="lr_exact_bernoulli.*NoisyMean"):
                GameConfig(dist=tiny_dist, mech=NoisyMean(gamma), n=10, z=np.ones(6),
                           score_name="lr_exact_bernoulli")
        for mech in (NoisyMean(0.0), EmpiricalMean(), SubsampledMean(0.5)):
            GameConfig(dist=tiny_dist, mech=mech, n=10, z=np.ones(6),
                       score_name="lr_exact_bernoulli")
        # make_score only takes defaults from mech, so it binds the pair
        fn = make_score("lr_exact_bernoulli", dist=tiny_dist, n=10, mech=NoisyMean(0.6))
        assert np.isfinite(fn(np.full(6, 0.5), np.ones(6)))


class TestAverageGame:
    ROUNDS = 6000

    @pytest.mark.parametrize("mech_name", sorted(MECHS))
    @pytest.mark.parametrize("dist_name", ["bernoulli", "mixed"])
    def test_law_matches_row_level_game(self, dist_name, mech_name):
        # the crafted game against oracles.average_round_rows, both on seed
        # 400: per class, the scores share one law, and heads come up alike
        dist = MIXED if dist_name == "mixed" else BERN
        mech = MECHS[mech_name]
        if mech_name == "noisy":
            mech = NoisyMean(mech.gamma[: dist.d])
        n, seed = 10, 400
        fn = make_score("lr_asymptotic", dist=dist, n=n)
        got = run_average_game(dist, mech, n, fn, T=self.ROUNDS, seed=seed, threads=1)
        scores = np.array([r.score for r in got])
        bits = np.array([r.b for r in got])
        ref = [
            oracles.average_round_rows(dist, mech, n, fn, np.random.default_rng([seed, t]))
            for t in range(self.ROUNDS)
        ]
        ref_scores = np.array([s for s, _ in ref])
        ref_bits = np.array([b for _, b in ref])
        label = f"{dist_name}/{mech_name}"
        for b in (0, 1):
            p = stats.ks_2samp(scores[bits == b], ref_scores[ref_bits == b]).pvalue
            assert p > 1e-3, f"{label} b={b}: KS p-value {p:.2g}"
        gap = abs(float(bits.mean()) - float(ref_bits.mean()))
        assert gap <= 4 * math.sqrt(0.5 / self.ROUNDS), f"{label}: heads rates differ by {gap}"

    @pytest.mark.parametrize("threads", [None, 2])
    @pytest.mark.parametrize("mech_name", sorted(MECHS))
    @pytest.mark.parametrize("dist_name", ["bernoulli", "mixed"])
    def test_equals_per_round_reference(self, dist_name, mech_name, threads, monkeypatch):
        # the chunked game against oracles.average_round_ref, bit for bit;
        # chunks of 3 rounds, so 40 rounds span 14 chunks
        dist = MIXED if dist_name == "mixed" else BERN
        mech = MECHS[mech_name]
        if mech_name == "noisy":
            mech = NoisyMean(mech.gamma[: dist.d])
        monkeypatch.setattr(game, "_CHUNK_FLOATS", 6 * dist.d)
        n, T, seed = 10, 40, 410
        names = ["lr_asymptotic", "scalar_product"] + ["lr_exact_bernoulli"] * dist.all_bernoulli
        fns = {name: make_score(name, dist=dist, n=n) for name in names}
        fns["no block"] = lambda o, z: fns["lr_asymptotic"](o, z)

        def outcome(play):
            # the rounds, or the error: the exact Bernoulli score rejects the
            # noisy mean's releases outside [0, 1], naming the first such round
            try:
                return play()
            except ValueError as e:
                return type(e), str(e)

        for name, fn in fns.items():
            got = outcome(lambda: [(r.score, r.b) for r in run_average_game(
                dist, mech, n, fn, T=T, seed=seed, threads=threads)])
            want = outcome(lambda: [oracles.average_round_ref(dist, mech, n, fn, seed, t)
                                    for t in range(T)])
            assert got == want, name
            assert isinstance(got, list) or mech_name == "noisy", name

    @pytest.mark.parametrize("threads", [None, 2])
    def test_block_less_score_failure_names_its_round(self, threads, monkeypatch):
        monkeypatch.setattr(game, "_CHUNK_FLOATS", 6 * MIXED.d)
        seed, bad = 411, 7
        z_bad = MIXED.sample_dataset(1, round_stream(seed, bad))[0]

        def flaky(o, z):
            if np.array_equal(z, z_bad):
                raise ValueError("flaky")
            return float(o.sum())

        with pytest.raises(ValueError, match=rf"^round {bad}: flaky$"):
            run_average_game(MIXED, EmpiricalMean(), 10, flaky, T=20, seed=seed, threads=threads)
        with pytest.raises(ValueError, match=rf"^round {bad}: flaky$"):
            oracles.average_round_ref(MIXED, EmpiricalMean(), 10, flaky, seed, bad)

    def test_detects_membership_of_random_targets(self):
        dist = ProductDistribution.bernoulli_uniform(200, a=0.25, seed=33)
        n = 10
        fn = make_score("lr_asymptotic", dist=dist, n=n)
        rounds = run_average_game(dist, EmpiricalMean(), n, fn, T=400, seed=53, threads=1)
        assert len(rounds) == 400
        assert 0.3 <= float(np.mean([r.b for r in rounds])) <= 0.7
        assert roc(rounds).auc > 0.9

    def test_nan_score_is_rejected(self, tiny_dist):
        with pytest.raises(NumericalError, match="NaN"):
            run_average_game(
                tiny_dist, EmpiricalMean(), 4, lambda o, z: float("nan"), T=3, seed=1
            )
