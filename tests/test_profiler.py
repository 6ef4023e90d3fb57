import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import stdtrit
from scipy.stats import chisquare

from oracles import (
    MaskPrefixCache,
    ReplayTrie,
    draw_cases,
    mc_sample_mean_variance,
    per_look_profile_plan,
    sample_cases,
    strata_members,
    strata_profile_plan_fixed_n,
    two_sided_p_value,
    variance_random,
    variance_stratified,
)
from tierplan.landscape import N_CASES, generate_landscape
from tierplan.model import PlanPoint, Verdict
from tierplan.presets import code_generation_pipeline, speech_recognition_pipeline, visual_tracking_pipeline
from tierplan.profiler import (
    CONFIDENCE,
    DEFAULT_N_MAX,
    T_CRIT,
    NullCache,
    PrefixCache,
    _kmeans,
    allocation,
    look_decides,
    look_schedule,
    profile_plan,
    profile_plan_fixed_n,
    stratify,
)

#: three tiers, each toward the device 3x slower
TIER_SPEEDS = (9.0, 3.0, 1.0)


class TestVarianceFormulas:
    def test_plug_in_two_strata(self):
        p, mu, s2 = (0.5, 0.5), (0.0, 1.0), (0.0, 0.0)
        assert variance_random(p, mu, s2, 100) == pytest.approx(0.0025)
        assert variance_stratified(p, s2, 100) == 0.0

    def test_equal_means_collapse_to_within_term(self):
        p, mu, s2 = (0.25, 0.25, 0.5), (0.6, 0.6, 0.6), (0.01, 0.04, 0.02)
        assert variance_random(p, mu, s2, 50) == pytest.approx(variance_stratified(p, s2, 50))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            variance_random((0.5, 0.4), (0, 1), (0, 0), 10)
        with pytest.raises(ValueError, match="sum to 1"):
            variance_stratified((0.7, 0.7), (0, 0), 10)

    @given(
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_stratified_never_exceeds_random(self, raw_w, data):
        p = np.array(raw_w) / sum(raw_w)
        k = len(p)
        mu = data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
        s2 = data.draw(st.lists(st.floats(0.0, 0.25), min_size=k, max_size=k))
        assert variance_stratified(p, s2, 100) <= variance_random(p, mu, s2, 100) + 1e-15

    def test_monte_carlo_matches_both_formulas(self):
        rng = np.random.default_rng(0)
        n, trials = 100, 100_000
        p = np.array([0.3, 0.2, 0.5])
        mu = np.array([0.4, 0.7, 0.9])
        sigma = np.array([0.05, 0.1, 0.02])
        v_rand = mc_sample_mean_variance(p, mu, sigma, n, trials, rng, stratified=False)
        v_strat = mc_sample_mean_variance(p, mu, sigma, n, trials, rng, stratified=True)
        assert v_rand == pytest.approx(variance_random(p, mu, sigma**2, n), rel=0.05)
        assert v_strat == pytest.approx(variance_stratified(p, sigma**2, n), rel=0.05)


def strata_labels(s):
    """Each case's stratum under the stratification ``s``."""
    out = np.empty(len(s.members), dtype=int)
    for j, members in enumerate(strata_members(s)):
        out[members] = j
    return out


def cached_cases(cache):
    """A cache's entries as the sorted cases each (operator, prefix) holds."""
    if isinstance(cache, MaskPrefixCache):
        return {key: np.flatnonzero(mask).tolist() for key, mask in cache.entries.items()}
    return {key: [c for c in range(N_CASES) if bits >> c & 1] for key, bits in cache.entries.items()}


class TestStratify:
    def test_single_stratum(self):
        s = stratify([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], k=1)
        assert s.weights == (1.0,)
        assert strata_labels(s).tolist() == [0, 0, 0]

    def test_two_blobs_high_purity(self):
        rng = np.random.default_rng(8)
        a = rng.normal((0, 0), 0.3, size=(60, 2))
        b = rng.normal((6, 6), 0.3, size=(40, 2))
        feats = np.vstack([a, b])
        labels = np.array([0] * 60 + [1] * 40)
        s = stratify(feats.tolist(), k=2, seed=1)
        got = strata_labels(s)
        purity = max(np.mean(got == labels), np.mean(got == 1 - labels))
        assert purity >= 0.95

    def test_uniform_features_balanced_weights(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            feats = rng.uniform(0, 1, size=(200, 2)).tolist()
            s = stratify(feats, k=4, seed=seed)
            if all(abs(w - 0.25) <= 0.1 for w in s.weights):
                hits += 1
        assert hits >= 16  # balanced in the typical case

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            stratify([[0.0, 0.0]], k=0)
        with pytest.raises(ValueError):
            stratify([[0.0, 0.0]], k=2)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(80, 2)).tolist()
        first, second = stratify(feats, 3, seed=9), stratify(feats, 3, seed=9)
        assert strata_labels(first).tolist() == strata_labels(second).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_draws_read_the_clusters_of_kmeans(self, data):
        # few distinct points, so a k up to n leaves clusters empty and the
        # repair runs
        point = st.tuples(st.sampled_from([0.0, 1.0, 5.0]), st.sampled_from([0.0, 2.0]))
        feats = np.array(data.draw(st.lists(point, min_size=1, max_size=30)))
        n = len(feats)
        k, seed = data.draw(st.integers(1, n)), data.draw(st.integers(0, 1000))
        s = stratify(feats, k, seed=seed)
        labels = _kmeans(feats, k, np.random.default_rng(seed))
        clusters = [np.flatnonzero(labels == j).tolist() for j in range(k)]
        assert sorted(s.members.tolist()) == list(range(n))
        assert s.weights == tuple(len(cluster) / n for cluster in clusters)
        order = allocation(s.weights, DEFAULT_N_MAX)
        assert len(s.starts) == len(s.sizes) == DEFAULT_N_MAX
        # draw j reads the slice of cluster order[j]; each distinct triple once
        for stratum, start, size in set(zip(order.tolist(), s.starts.tolist(), s.sizes.tolist())):
            assert sorted(s.members[start : start + size].tolist()) == clusters[stratum]


class TestAllocation:
    def _flat_strat(self, k, per=50):
        feats = []
        for j in range(k):
            feats.extend([[float(j * 10), 0.0]] * per)
        return stratify(feats, k=k, seed=0)

    def test_round_robin_sequence(self):
        # equal strata: the largest-deficit rule visits them in turn
        assert allocation((0.5, 0.5), 4).tolist() == [0, 1, 0, 1]
        s = self._flat_strat(2)
        cases = draw_cases(s, 0, 4, np.random.default_rng(0))
        assert strata_labels(s)[cases].tolist() == [0, 1, 0, 1]

    def test_each_stratum_drawn_equally(self):
        s = self._flat_strat(3)
        cases = draw_cases(s, 0, 300, np.random.default_rng(1))
        assert np.bincount(strata_labels(s)[cases], minlength=3).tolist() == [100, 100, 100]

    @given(st.lists(st.integers(1, 120), min_size=2, max_size=6))
    @example([80, 48, 80, 32])
    @settings(max_examples=50, deadline=None)
    def test_exact_counts_when_integral(self, sizes):
        # the picked stratum had a positive deficit, so after its draw it
        # is less than one draw ahead of its quota; with integer quotas
        # summing to n, that leaves every stratum exactly on its quota
        sizes = np.array(sizes)
        order = allocation(tuple(sizes / sizes.sum()), 1000)
        counts = np.zeros(len(sizes), dtype=int)
        for n, k in enumerate(order, start=1):
            counts[k] += 1
            assert np.all(counts - n * sizes / sizes.sum() < 1)
            if np.all(n * sizes % sizes.sum() == 0):
                assert counts.tolist() == (n * sizes // sizes.sum()).tolist()

    def test_uniform_within_stratum(self):
        s = self._flat_strat(2, per=25)
        rng = np.random.default_rng(2)
        cases = np.concatenate([draw_cases(s, 0, DEFAULT_N_MAX, rng) for _ in range(10_000 // DEFAULT_N_MAX)])
        observed = np.bincount(cases, minlength=50)[strata_members(s)[0]]
        assert observed.sum() == 5_000
        assert chisquare(observed).pvalue > 0.01


def make_land_with_mean(pipeline, target, seed=0, noise=0.03):
    """Find a config whose true mean is close to a target on a seeded
    landscape, for controlled profiling tests."""
    from itertools import product

    land = generate_landscape(seed=seed, pipeline=pipeline, tier_speed_factors=TIER_SPEEDS, noise_scale=noise)
    configs = list(product(*[range(len(op.knob_domain)) for op in pipeline.operators]))
    cfg = min(configs, key=lambda c: abs(land.accuracy_mean(c) - target))
    return land, cfg


class TestProfilePlan:
    def test_clear_pass_stops_at_minimum(self, vt_pipeline):
        land, cfg = make_land_with_mean(vt_pipeline, 0.85, seed=14)
        a_slo = land.accuracy_mean(cfg) - 0.15
        plan = PlanPoint(cfg, (0, 0, 0), (1.0, 1.0, 1.0))
        strat = stratify(land.case_features, 4, seed=0)
        out = profile_plan(plan, land, strat, PrefixCache(), a_slo, np.random.default_rng(0))
        assert out.verdict == Verdict.PASS_ACCURACY
        assert out.samples_used == 50

    def test_clear_fail(self, vt_pipeline):
        land, cfg = make_land_with_mean(vt_pipeline, 0.4, seed=14)
        a_slo = land.accuracy_mean(cfg) + 0.15
        plan = PlanPoint(cfg, (0, 0, 0), (1.0, 1.0, 1.0))
        strat = stratify(land.case_features, 4, seed=0)
        out = profile_plan(plan, land, strat, PrefixCache(), a_slo, np.random.default_rng(0))
        assert out.verdict == Verdict.FAIL_ACCURACY
        assert out.samples_used >= 50

    def test_at_threshold_inconclusive_with_high_probability(self, vt_pipeline):
        land, cfg = make_land_with_mean(vt_pipeline, 0.7, seed=14)
        a_slo = land.accuracy_mean(cfg)  # exactly at the population mean
        plan = PlanPoint(cfg, (0, 0, 0), (1.0, 1.0, 1.0))
        inconclusive = 0
        runs = 60
        for s in range(runs):
            strat = stratify(land.case_features, 4, seed=s)
            out = profile_plan(plan, land, strat, NullCache(), a_slo, np.random.default_rng(s))
            inconclusive += out.verdict == Verdict.INCONCLUSIVE
        assert inconclusive / runs >= 0.98

    def test_zero_variance_at_threshold_is_documented_degenerate(self, vt_pipeline):
        # single stratum, zero noise: every draw equals the SLO exactly, so
        # the standard error is zero and no look's critical |t| is ever
        # crossed; the session runs to its cap
        land = generate_landscape(
            seed=14, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, k_true=1, noise_scale=0.0
        )
        cfg = (0, 0, 0)
        a_slo = land.accuracy_mean(cfg)
        plan = PlanPoint(cfg, (0, 0, 0), (1.0, 1.0, 1.0))
        strat = stratify(land.case_features, 1, seed=0)
        out = profile_plan(plan, land, strat, NullCache(), a_slo, np.random.default_rng(0))
        assert out.verdict == Verdict.INCONCLUSIVE
        assert out.samples_used == DEFAULT_N_MAX
        assert out.accuracy_estimate == a_slo
        assert not any(look_decides(a_slo, 0.0, n, t_crit, a_slo) for n, t_crit in zip(look_schedule(), T_CRIT))

    def test_early_stop_beats_fixed_n_on_clear_plans(self, vt_pipeline):
        from itertools import product

        land = generate_landscape(seed=17, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, noise_scale=0.04)
        configs = list(product(*[range(len(op.knob_domain)) for op in vt_pipeline.operators]))
        a_slo = float(np.median([land.accuracy_mean(c) for c in configs]))
        clear = [c for c in configs if abs(land.accuracy_mean(c) - a_slo) >= 0.05]
        assert len(clear) >= 20
        fewer = 0
        for i, cfg in enumerate(clear):
            plan = PlanPoint(cfg, (0, 0, 0), (1.0, 1.0, 1.0))
            strat = stratify(land.case_features, 4, seed=i)
            out = profile_plan(plan, land, strat, NullCache(), a_slo, np.random.default_rng(i))
            fewer += out.samples_used < 356
        assert fewer / len(clear) >= 0.90

    def test_verdict_matches_sign_of_gap(self, vt_pipeline):
        from itertools import product

        land = generate_landscape(seed=17, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, noise_scale=0.04)
        configs = list(product(*[range(len(op.knob_domain)) for op in vt_pipeline.operators]))
        a_slo = float(np.median([land.accuracy_mean(c) for c in configs]))
        clear = [c for c in configs if abs(land.accuracy_mean(c) - a_slo) >= 0.05]
        agree = 0
        for i, cfg in enumerate(clear):
            plan = PlanPoint(cfg, (0, 0, 0), (1.0, 1.0, 1.0))
            strat = stratify(land.case_features, 4, seed=1000 + i)
            out = profile_plan(plan, land, strat, NullCache(), a_slo, np.random.default_rng(i))
            want = Verdict.PASS_ACCURACY if land.accuracy_mean(cfg) > a_slo else Verdict.FAIL_ACCURACY
            agree += out.verdict == want
        assert agree / len(clear) >= 0.99

    def test_estimator_unbiased_under_round_robin(self, vt_pipeline):
        # equal-size strata are visited in turn: the plain sample mean
        # estimates the weighted mixture mean
        land = generate_landscape(seed=21, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, noise_scale=0.08)
        cfg = (1, 2, 3)
        plan = PlanPoint(cfg, (0, 0, 0), (1.0, 1.0, 1.0))
        truth = land.accuracy_mean(cfg)
        estimates = []
        for s in range(40):
            strat = stratify(land.case_features, 4, seed=s)
            out = profile_plan(plan, land, strat, NullCache(), 0.5, np.random.default_rng(s))
            estimates.append(out.accuracy_estimate)
        spread = 0.08 / np.sqrt(np.mean([200]) * len(estimates))
        assert abs(np.mean(estimates) - truth) <= 4 * spread + 0.01

    def test_zero_bias_on_unequal_strata(self, vt_pipeline):
        # planner strata of 80/48/80/32 cases: at every look where each
        # n p_k is an integer, the expected sample mean over the case draws
        # is the population mean, for every configuration
        from itertools import product

        land = generate_landscape(seed=26, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, k_true=3)
        strat = stratify(land.case_features, 4, seed=1)
        sizes = [len(s) for s in strata_members(strat)]
        assert sizes == [80, 48, 80, 32]
        order = allocation(strat.weights, DEFAULT_N_MAX)
        looks = [n for n in look_schedule() if all(n * size % N_CASES == 0 for size in sizes)]
        assert looks == [960]
        round_robin_error = 0.0
        for cfg in product(*[range(len(op.knob_domain)) for op in vt_pipeline.operators]):
            case_mu = land.case_rows(cfg)[0]
            stratum_mu = np.array([case_mu[s].mean() for s in strata_members(strat)])
            truth = land.accuracy_mean(cfg)
            for n in looks:
                expected = np.bincount(order[:n], minlength=len(strat.weights)) @ stratum_mu / n
                assert expected == pytest.approx(truth, abs=1e-12)
            round_robin_error = max(round_robin_error, abs(stratum_mu.mean() - truth))
        # the strata are unequal enough that n/K draws per stratum is biased
        assert round_robin_error > 0.01

    def test_decided_rate_at_threshold_within_size(self, vt_pipeline):
        # one true stratum, so the sample variance is not inflated by a
        # between-strata term that stratified draws remove from the mean
        from itertools import product

        land = generate_landscape(
            seed=14, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, k_true=1, noise_scale=0.05
        )
        configs = product(*[range(len(op.knob_domain)) for op in vt_pipeline.operators])
        cfg = min(configs, key=lambda c: abs(land.accuracy_mean(c) - 0.7))
        a_slo = land.accuracy_mean(cfg)
        plan = PlanPoint(cfg, (0, 0, 0), (1.0, 1.0, 1.0))
        strat = stratify(land.case_features, 4, seed=0)
        runs = 1000
        decided = sum(
            profile_plan(plan, land, strat, NullCache(), a_slo, np.random.default_rng(s)).verdict
            != Verdict.INCONCLUSIVE
            for s in range(runs)
        )
        assert decided / runs <= 0.01


class TestProfilerMatchesItsOracle:
    """The draw tables and per-case rows against the per-look profiler and
    the per-stratum draws: the same outcome, the same generator state after
    it and the same cache contents, plan after plan."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_profiles_equal_the_per_look_oracle(self, data):
        presets = (visual_tracking_pipeline, speech_recognition_pipeline, code_generation_pipeline)
        pipe = data.draw(st.sampled_from(presets))()
        land = generate_landscape(
            seed=data.draw(st.integers(0, 10_000)),
            pipeline=pipe,
            tier_speed_factors=TIER_SPEEDS,
            difficulty=data.draw(st.sampled_from(("rugged", "mixed", "monotone"))),
            k_true=data.draw(st.integers(1, 5)),
            noise_scale=data.draw(st.sampled_from((0.0, 0.01, 0.05, 0.12))),
        )
        strat = stratify(land.case_features, data.draw(st.integers(1, 6)), seed=data.draw(st.integers(0, 100)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        fixed_n = data.draw(st.none() | st.integers(1, 400))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        caches = [(NullCache(), NullCache()), (PrefixCache(), MaskPrefixCache())]
        for _ in range(data.draw(st.integers(1, 3))):
            cfg = tuple(data.draw(st.integers(0, len(op.knob_domain) - 1)) for op in pipe.operators)
            plan = PlanPoint(cfg, (0,) * len(pipe), (1.0,) * len(pipe))
            shift = data.draw(st.sampled_from((-0.1, -0.01, 0.0, 0.005, 0.1)))  # 0.0: often inconclusive
            a_slo = min(max(land.accuracy_mean(cfg) + shift, 0.01), 1.0)
            for got_cache, want_cache in caches:
                if fixed_n is None:
                    got = profile_plan(plan, land, strat, got_cache, a_slo, got_rng)
                    want = per_look_profile_plan(plan, land, strat, want_cache, a_slo, want_rng)
                else:
                    got = profile_plan_fixed_n(plan, land, fixed_n, got_cache, a_slo, got_rng)
                    want = strata_profile_plan_fixed_n(plan, land, fixed_n, want_cache, a_slo, want_rng)
                assert got == want
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert cached_cases(caches[1][0]) == cached_cases(caches[1][1])


class TestSessionMath:
    def test_look_schedule_pinned(self):
        looks = look_schedule()
        assert (len(looks), looks[0], looks[-1]) == (33, 50, 1000)
        assert all(b > a for a, b in zip(looks, looks[1:]))

    def test_look_statistics_match_numpy(self, vt_pipeline):
        # replay the session's blocks: it stops at the first look whose
        # scipy t-test is significant at the Bonferroni-spent level, and
        # reports the mean of every value drawn
        from scipy.stats import ttest_1samp

        land, cfg = make_land_with_mean(vt_pipeline, 0.7, seed=14, noise=0.05)
        a_slo = land.accuracy_mean(cfg) - 0.02
        plan = PlanPoint(cfg, (0, 0, 0), (1.0, 1.0, 1.0))
        strat = stratify(land.case_features, 4, seed=3)
        out = profile_plan(plan, land, strat, NullCache(), a_slo, np.random.default_rng(7))

        rng = np.random.default_rng(7)
        looks = look_schedule()
        xs = np.empty(0)
        for start, stop in zip((0,) + looks, looks):
            cases = draw_cases(strat, start, stop, rng)
            xs = np.concatenate([xs, sample_cases(land, cfg, cases, rng)])
            if ttest_1samp(xs, a_slo).pvalue < 0.01 / len(looks):
                break
        assert 50 < out.samples_used == len(xs) < DEFAULT_N_MAX
        assert out.verdict == Verdict.PASS_ACCURACY
        assert out.accuracy_estimate == pytest.approx(xs.mean(), rel=1e-12)

    def test_critical_values_are_scipy_quantiles(self):
        looks = look_schedule()
        alpha = (1.0 - CONFIDENCE) / len(looks)
        assert len(T_CRIT) == len(looks)
        for n, t_crit in zip(looks, T_CRIT):
            assert t_crit == pytest.approx(-float(stdtrit(n - 1, alpha / 2)), rel=1e-12, abs=0)

    def test_p_value_against_scipy(self):
        # the oracle's p-value is scipy's t-test, and at every look size the
        # table decides as that test does at the Bonferroni-spent level
        from scipy.stats import ttest_1samp

        rng = np.random.default_rng(6)
        xs = rng.normal(0.75, 0.05, 80)
        p_ref = ttest_1samp(xs, 0.72).pvalue
        p_got = two_sided_p_value(float(xs.mean()), float(xs.var(ddof=1)), len(xs), 0.72)
        assert p_got == pytest.approx(p_ref, rel=1e-9)
        looks = look_schedule()
        alpha = (1.0 - CONFIDENCE) / len(looks)
        decided = 0
        for n, t_crit in zip(looks, T_CRIT):
            xs = rng.normal(0.75, 0.05, n)
            mu0 = 0.75 + rng.uniform(-2.0, 2.0) * t_crit * 0.05 / math.sqrt(n)
            want = ttest_1samp(xs, mu0).pvalue < alpha
            decided += want
            assert look_decides(float(xs.mean()), float(xs.var(ddof=1)), n, t_crit, mu0) == want
        assert 0 < decided < len(looks)

    def test_a_standard_error_that_underflows_counts_as_zero_variance(self):
        # 5e-324 / 50 rounds to 0: no spread, so the mean decides alone
        assert two_sided_p_value(0.5, 5e-324, 50, 0.4) == 0.0
        assert two_sided_p_value(0.4, 5e-324, 50, 0.4) == 1.0
        assert look_decides(0.5, 5e-324, 50, T_CRIT[0], 0.4)
        assert not look_decides(0.4, 5e-324, 50, T_CRIT[0], 0.4)
        assert look_decides(0.5, 0.0, 50, T_CRIT[0], 0.4)
        assert not look_decides(0.4, 0.0, 50, T_CRIT[0], 0.4)

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, allow_infinity=False),  # subnormals included
        st.integers(2, 1000),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @example(0.5, 5e-324, 50, 0.4)
    @settings(deadline=None)
    def test_p_value_lies_in_the_unit_interval(self, mean, variance, n, mu0):
        assert 0.0 <= two_sided_p_value(mean, variance, n, mu0) <= 1.0

    @given(
        st.integers(0, len(T_CRIT) - 1),
        st.floats(0.0, 1.0),
        st.floats(min_value=0.0, max_value=1.0),  # subnormals included
        st.floats(0.0, 2.0) | st.floats(min_value=-1e300, max_value=1e300),  # |t| / critical |t|, or any mean
        st.booleans(),
    )
    @example(0, 0.4, 5e-324, 0.1, True)
    @example(0, 0.4, 0.0, 0.0, True)
    @settings(max_examples=500, deadline=None)
    def test_table_decides_as_the_p_value_away_from_the_critical_value(self, k, mu0, variance, ratio, above):
        # |t| a factor ``ratio`` of the look's critical value, or the mean
        # itself when ``ratio`` is large; the p-value and the table agree
        # wherever |t| is not within 1e-9 (relative) of the critical value
        n, t_crit = look_schedule()[k], T_CRIT[k]
        alpha = (1.0 - CONFIDENCE) / len(T_CRIT)
        se = math.sqrt(variance / n) if variance > 0.0 else 0.0
        if abs(ratio) <= 2.0:
            mean = mu0 + (1.0 if above else -1.0) * ratio * t_crit * se
        else:
            mean = ratio
        if se > 0.0:
            assume(abs(abs(mean - mu0) / se - t_crit) > 1e-9 * t_crit)
        want = two_sided_p_value(mean, variance, n, mu0) < alpha
        assert look_decides(mean, variance, n, t_crit, mu0) == want


class TestPrefixCache:
    def test_full_match_charges_nothing(self, vt_landscape):
        cache = PrefixCache()
        cfg = (1, 2, 3)
        t = vt_landscape.timings_for(cfg)
        first = cache.charge(cfg, [7], t.base_compute_s)
        assert first == pytest.approx(sum(t.base_compute_s))
        assert cache.charge(cfg, [7], t.base_compute_s) == 0.0
        # entries are per case: another case is charged in full
        assert cache.charge(cfg, [8], t.base_compute_s) == pytest.approx(first)

    def test_partial_prefix(self, vt_landscape):
        cache = PrefixCache()
        t1 = vt_landscape.timings_for((1, 2, 3))
        cache.charge((1, 2, 3), [0], t1.base_compute_s)
        t2 = vt_landscape.timings_for((1, 0, 0))
        charged = cache.charge((1, 0, 0), [0], t2.base_compute_s)
        assert charged == pytest.approx(sum(t2.base_compute_s[1:]))
        # a shared suffix does not hit: the prefix key includes upstream configs
        t3 = vt_landscape.timings_for((0, 2, 3))
        assert cache.charge((0, 2, 3), [0], t3.base_compute_s) == pytest.approx(sum(t3.base_compute_s))

    def test_insert_is_idempotent(self):
        cache = PrefixCache()
        # a block that repeats a case is charged for it once
        assert cache.charge((1, 2), [0, 1, 0], (0.1, 0.2)) == pytest.approx(2 * 0.3)

        before = cached_cases(cache)
        assert before == {(0, (1,)): [0, 1], (1, (1, 2)): [0, 1]}
        assert cache.charge((1, 2), [0], (0.1, 0.2)) == 0.0
        assert cache.charge((1, 2), [1, 1], (0.1, 0.2)) == 0.0
        assert cached_cases(cache) == before

    def test_randomized_sequence_matches_replay_trie(self, vt_pipeline):
        land = generate_landscape(seed=23, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS)
        rng = np.random.default_rng(9)
        cache = PrefixCache()
        trie = ReplayTrie()
        got = expected = 0.0
        repeats = 0
        for _ in range(300):
            cfg = tuple(int(rng.integers(len(op.knob_domain))) for op in vt_pipeline.operators)
            block = rng.integers(N_CASES, size=int(rng.integers(1, 40)))
            repeats += len(np.unique(block)) < len(block)
            t = land.timings_for(cfg)
            got += cache.charge(cfg, block, t.base_compute_s)
            expected += sum(trie.charge(cfg, int(case), t.base_compute_s) for case in block)
        assert repeats >= 50  # blocks with duplicate cases are exercised
        assert got == pytest.approx(expected, rel=1e-12)

    def test_cache_never_changes_estimates(self, vt_pipeline):
        land = generate_landscape(seed=29, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS)
        plan = PlanPoint((2, 1, 0), (0, 1, 2), (1.0, 1.0, 1.0))
        outs = []
        for cache in (PrefixCache(), NullCache()):
            strat = stratify(land.case_features, 4, seed=5)
            outs.append(
                profile_plan(plan, land, strat, cache, 0.6, np.random.default_rng(11))
            )
        assert outs[0].accuracy_estimate == outs[1].accuracy_estimate  # bitwise
        assert outs[0].samples_used == outs[1].samples_used
        assert outs[0].profiling_cost <= outs[1].profiling_cost


class TestFixedN:
    def test_fixed_n_draws_exactly_n(self, vt_landscape):
        plan = PlanPoint((0, 1, 2), (0, 0, 0), (1.0, 1.0, 1.0))
        out = profile_plan_fixed_n(plan, vt_landscape, 356, NullCache(), 0.5, np.random.default_rng(0))
        assert out.samples_used == 356
        assert out.verdict in (Verdict.PASS_ACCURACY, Verdict.FAIL_ACCURACY)
