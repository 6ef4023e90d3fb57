import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist
from scipy.special import ndtr as scipy_ndtr
from scipy.stats import norm

from oracles import (
    all_paths_latency,
    argmax_with_ties,
    column_kernel_row,
    encode_pool,
    exhaustive_resource_frontier,
    moveaxis_reducible,
    one_hot,
    sibling_landscape,
    true_pareto_set,
    whole_pool_vote,
)
from tierplan.landscape import generate_landscape, quality_latency_frontier
from tierplan.latency import OperatorTimings, pipeline_latency, plan_hourly_cost
from tierplan.model import (
    OperatorSpec,
    PipelineSpec,
    PlanPoint,
    Query,
    SpaceTooLargeError,
    Tier,
    TierTopology,
    enumerate_search_pool,
)
from tierplan.presets import (
    DEFAULT_SPEED_FACTORS,
    code_generation_pipeline,
    default_topology,
    speech_recognition_pipeline,
    visual_tracking_pipeline,
    wide_search_pipeline,
)
from tierplan import search
from tierplan.search import (
    GAP_WINDOW_LEN,
    GP_NOISE,
    HISTORY_CAPACITY,
    HISTORY_TOP_K,
    MAX_LATTICE_OPERATORS,
    NDTR_BLOCK,
    SCORED_SLO_PAIRS,
    VARIANCE_INFLATION,
    GaussianProcess,
    HistorySession,
    HistoryStore,
    Observations,
    PoolPredictions,
    SearchConfig,
    SurrogatePair,
    _argmax_with_ties,
    _reducible,
    acquisition,
    ndtr,
    pareto_optimize,
    pool_key,
    prediction_gap,
    propose,
    search_pool,
    single_query_search,
)


def acq(mu_a, sd_a, mu_l, sd_l, a_slo, l_slo):
    """Acquisition score of one candidate, the only row of its configuration."""
    predicted = PoolPredictions(np.array([mu_a]), np.array([sd_a]), np.array([0]), np.array([mu_l]), np.array([sd_l]))
    scores, _ = acquisition(predicted, a_slo, l_slo)
    return float(scores[0])


def pool_scores(pair, a_slo, l_slo):
    """The pair's acquisition score at every row of its pool."""
    return acquisition(pair.predict(), a_slo, l_slo)[0]


def new_pair(pipe, topo):
    """An unfit surrogate pair bound to the search pool of ``pipe`` on ``topo``."""
    return SurrogatePair(search_pool(pipe, topo))


def per_row(predicted):
    """Accuracy and latency means and stds at each predicted pool row."""
    return predicted.mu_a[predicted.config], predicted.sd_a[predicted.config], predicted.mu_l, predicted.sd_l


def big_pipeline():
    """22,680 search-pool plans over 1,512 configurations."""
    return PipelineSpec(
        "big",
        tuple(OperatorSpec(i, tuple(f"o{j}" for j in range(n))) for i, n in enumerate((6, 6, 6, 7))),
        ((0, 1), (1, 2), (2, 3)),
    )


POOL_PIPELINES = [
    visual_tracking_pipeline,
    speech_recognition_pipeline,
    code_generation_pipeline,
    wide_search_pipeline,
    big_pipeline,
]
POOL_IDS = ["visual-tracking", "speech-recognition", "code-generation", "wide-search", "big"]


class TestGaussianProcess:
    @pytest.mark.parametrize("pipeline", POOL_PIPELINES, ids=POOL_IDS)
    def test_kernel_row_is_the_rbf_on_one_hot_rows_bitwise(self, pipeline):
        # exp(-h) from the code table, against the RBF formula on the one-hot
        # rows: every row of the presets' pools, a sample of the big one
        pipe, topo = pipeline(), default_topology()
        pool = search_pool(pipe, topo)
        one_hot_a, one_hot_l = encode_pool(pool.plans, pipe, topo.num_tiers)
        first = np.unique(pool.config, return_index=True)[1]
        rng = np.random.default_rng(18)
        for codes, x in ((pool.xa, one_hot_a[first]), (pool.xl, one_hot_l)):
            gp = GaussianProcess(codes)
            sq = np.einsum("ij,ij->i", x, x)
            rows = range(len(x)) if len(x) <= 10_000 else rng.choice(len(x), 300, replace=False)
            for j in rows:
                want = np.exp(-0.5 * np.maximum(sq + sq[j] - 2.0 * (x @ x[j]), 0.0))
                assert np.array_equal(gp._kernel_row(j), want)

    def test_target_mean_and_std_are_numpys_bitwise(self):
        rng = np.random.default_rng(18)
        runs = [
            [0.7] * 20 + rng.uniform(0.05, 1.0, 180).tolist(),  # constant first: std 0 -> 1.0
            rng.lognormal(-2.0, 1.5, 200).tolist(),
            (1e3 + rng.normal(0.0, 1e-9, 100)).tolist() + [0.3] * 100,
        ]
        for targets in runs:
            gp = GaussianProcess(np.zeros((3, 2), dtype=int))
            for n, y in enumerate(targets, start=1):
                gp.fit(int(rng.integers(3)), y)
                std = float(np.std(targets[:n]))
                assert gp._y_mean == float(np.mean(targets[:n]))
                assert gp._y_std == (std if std > 1e-12 else 1.0)
            assert gp.targets == targets

    def test_interpolates_observations(self):
        # twelve code rows, any two of which differ in every column
        rng = np.random.default_rng(0)
        x = np.stack([rng.permutation(12) for _ in range(4)], axis=1)
        y = x / 11 @ np.array([0.5, -0.2, 0.1, 0.3]) + 0.4
        gp = GaussianProcess(x)
        for j, target in enumerate(y):
            gp.fit(j, float(target))
        mu, sd = gp.predict(slice(None))
        assert np.allclose(mu, y, atol=0.02)
        # predictive std shrinks to the noise level at observed points
        assert np.all(sd <= np.sqrt(gp.noise) * np.std(y - y.mean()) * 5 + 0.05)

    def test_repeated_observation_is_one_more_row(self):
        pipe, topo, _land = two_op_setup()
        pair = new_pair(pipe, topo)
        pair.fit_new_point(0, 0.9, 0.2)
        pair.fit_new_point(4, 0.7, 0.4)
        pair.fit_new_point(0, 0.9, 0.2)  # exact repeat
        assert pair.n_obs == 3
        predicted = pair.predict()
        assert all(np.all(np.isfinite(v)) for v in predicted)
        assert abs(float(predicted.mu_a[predicted.config[0]]) - 0.9) <= 1e-3
        # the same plan with another target is a new observation too
        pair.fit_new_point(0, 0.8, 0.2)
        assert pair.f_l.rows == [0, 4, 0, 0] and pair.f_a.targets == [0.9, 0.7, 0.9, 0.8]
        # the accuracy model's rows are those plans' configurations
        c0, c4 = pair.config[0], pair.config[4]
        assert c0 != c4 and pair.f_a.rows == [c0, c4, c0, c0]

    def test_observations_are_pool_indices_and_the_store_keeps_no_model(self):
        pipe, topo, _land = two_op_setup()
        pool = search_pool(pipe, topo)
        pair = new_pair(pipe, topo)
        pair.fit_new_point(2, 0.9, 0.2)
        pair.fit_new_point(5, 0.7, 0.3)
        # the shared distinct rows and pool rows, not copies
        assert pair.f_a.pool is pool.xa and pair.f_l.pool is pool.xl and pair.config is pool.config
        assert pair.observations() == Observations(pool_key(pipe, topo.num_tiers), (2, 5), (0.9, 0.7), (0.2, 0.3))
        # the fit is that of the configuration codes of the observed plans
        want = GaussianProcess(np.array([p.configuration for p in pool.plans])).fit(2, 0.9).fit(5, 0.7)
        assert np.array_equal(pair.f_a.predict(slice(None))[0][pool.config], want.predict(slice(None))[0])
        store = HistoryStore()
        store.push(pair)
        # the store holds the pool key, plain arrays over the pool and their
        # score rows: no pair, no GP
        assert list(vars(store)) == ["predictions", "rows"]
        ((key, predicted),) = store.predictions
        assert key == pool_key(pipe, topo.num_tiers)
        assert all(type(v) is np.ndarray for v in predicted)
        assert predicted.mu_a.shape == predicted.sd_a.shape == (len(pool.xa),)
        assert predicted.config.shape == predicted.mu_l.shape == predicted.sd_l.shape == (len(pool.plans),)
        # its score rows are plain arrays over the pool, by SLO pair, filled by votes
        (rows,) = store.rows
        assert rows == {}
        store.session(key, 0.8, 0.5).vote_indices()
        store.session(key, 0.6, 0.5).vote_indices()
        assert list(rows) == [(0.8, 0.5), (0.6, 0.5)]
        assert all(type(v) is np.ndarray and v.shape == (len(pool.plans),) for row in rows.values() for v in row)

    def test_prior_before_fit(self):
        gp = GaussianProcess(np.zeros((3, 2), dtype=int))
        mu, sd = gp.predict(slice(None))
        assert np.array_equal(mu, np.zeros(3)) and np.array_equal(sd, np.ones(3))


def reference_posterior(pool, rows, targets, noise):
    """A from-scratch GP over all of ``pool``: standardize the targets, factor
    K(X, X) + noise*I over the observed rows once, and solve for every pool
    row (GPML Alg. 2.1)."""
    y = np.asarray(targets)
    y_mean, y_std = y.mean(), y.std()
    y_std = y_std if y_std > 1e-12 else 1.0
    x = pool[rows]
    chol = np.linalg.cholesky(np.exp(-0.5 * cdist(x, x, "sqeuclidean")) + noise * np.eye(len(rows)))
    kq = np.exp(-0.5 * cdist(pool, x, "sqeuclidean"))
    mu = y_mean + y_std * (kq @ cho_solve((chol, True), (y - y_mean) / y_std))
    v = solve_triangular(chol, kq.T, lower=True)
    return mu, y_std * np.sqrt(np.maximum(1.0 - np.sum(v * v, axis=0), noise))


class TestPoolPosterior:
    """The rank-one posterior over a session's pool: the exact GP, and a
    row's prediction is the same whichever rows are asked for with it."""

    @pytest.mark.parametrize("noise", [GP_NOISE, GP_NOISE * VARIANCE_INFLATION])
    @pytest.mark.parametrize("case", ["random-order", "repeated-rows", "constant-target"])
    def test_matches_a_from_scratch_cholesky_gp(self, noise, case):
        pipe, topo = visual_tracking_pipeline(), default_topology()
        encoded = search_pool(pipe, topo)
        # the reference kernel is the RBF on the one-hot rows of the code rows
        one_hot_a, one_hot_l = encode_pool(encoded.plans, pipe, topo.num_tiers)
        first = np.unique(encoded.config, return_index=True)[1]
        rng = np.random.default_rng(15)
        if case == "repeated-rows":
            plans = rng.choice(12, 30)  # each plan about 2.5 times
        else:
            plans = rng.permutation(len(encoded.plans))[:30]
        targets = [0.7] * 30 if case == "constant-target" else rng.uniform(0.05, 1.0, 30).tolist()
        # the accuracy model's rows are the plans' configurations
        for pool, x, rows in (
            (encoded.xa, one_hot_a[first], encoded.config[plans].tolist()),
            (encoded.xl, one_hot_l, plans.tolist()),
        ):
            gp = GaussianProcess(pool, noise)
            for n, (j, y) in enumerate(zip(rows, targets), start=1):
                gp.fit(j, y)
                mu, sd = gp.predict(slice(None))
                want_mu, want_sd = reference_posterior(x, rows[:n], targets[:n], noise)
                np.testing.assert_allclose(mu, want_mu, rtol=1e-9, atol=0)
                np.testing.assert_allclose(sd, want_sd, rtol=1e-9, atol=0)

    def test_a_rows_prediction_does_not_depend_on_its_batch(self):
        # so the whole-pool prediction a step reads equals, at any rows, the
        # prediction made at those rows alone
        pipe, topo = wide_search_pipeline(), default_topology()
        pair = new_pair(pipe, topo)
        n_pool = len(pair.config)
        rng = np.random.default_rng(13)
        for i in rng.choice(n_pool, 60, replace=False):
            pair.fit_new_point(int(i), float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.05, 0.5)))
        whole = pair.predict()
        assert whole.config is pair.config
        for gp, want_mu, want_sd in ((pair.f_a, whole.mu_a, whole.sd_a), (pair.f_l, whole.mu_l, whole.sd_l)):
            n = len(gp.pool)
            for size in (1, 2, 7, 100, n // 2, n - 1):
                idx = np.sort(rng.choice(n, size, replace=False))
                mu, sd = gp.predict(idx)
                assert np.array_equal(mu, want_mu[idx]) and np.array_equal(sd, want_sd[idx])
            for i in rng.choice(n, 300, replace=False):
                mu, sd = gp.predict([int(i)])
                assert mu[0] == want_mu[i] and sd[0] == want_sd[i]

    def test_stored_predictions_do_not_change_as_the_pair_keeps_fitting(self):
        pipe, topo, _land = two_op_setup()
        pair = fitted_pair(pipe, topo, np.random.default_rng(14), 3)
        store = HistoryStore()
        store.push(pair)
        before = [v.copy() for v in store.predictions[0][1]]
        pair.fit_new_point(7, 0.55, 0.45)
        pair.fit_new_point(1, 0.95, 0.05)
        assert not np.array_equal(pair.predict().mu_a, before[0])
        assert all(np.array_equal(v, w) for v, w in zip(store.predictions[0][1], before, strict=True))

    @pytest.mark.parametrize("pipeline", POOL_PIPELINES, ids=POOL_IDS)
    def test_configuration_posterior_equals_the_full_pool_gp_bitwise(self, pipeline):
        # the accuracy model on distinct configurations, read back through
        # each plan's configuration, is the GP over every plan's accuracy row
        pipe, topo = pipeline(), default_topology()
        pool = search_pool(pipe, topo)
        assert len(pool.xa) < len(pool.plans)
        full = GaussianProcess(np.array([p.configuration for p in pool.plans]))
        pair = SurrogatePair(pool)
        rng = np.random.default_rng(16)
        plans = rng.choice(len(pool.plans), 40).tolist()
        plans += plans[:10]  # repeated plans
        plans += rng.choice(np.flatnonzero(pool.config == pool.config[plans[0]]), 10).tolist()  # one configuration
        for i in plans:
            accuracy = float(rng.uniform(0.3, 1.0))
            pair.fit_new_point(i, accuracy, float(rng.uniform(0.05, 0.5)))
            full.fit(i, accuracy)
            mu_a, sd_a, _mu_l, _sd_l = per_row(pair.predict())
            want_mu, want_sd = full.predict(slice(None))
            assert np.array_equal(mu_a, want_mu) and np.array_equal(sd_a, want_sd)


class TestUtility:
    """The acquisition Pr[acc >= A] * Pr[lat <= L] / C and its cost C."""

    def test_confident_feasible_plan_scores_inverse_cost(self):
        mu_l = 0.2
        one = PoolPredictions(np.array([0.9]), np.array([0.0]), np.array([0]), np.array([mu_l]), np.array([0.0]))
        scores, costs = acquisition(one, 0.8, 0.5)
        # C: a 50-case minimum batch at the predicted latency, $3.67 per GPU-hour
        assert costs[0] == pytest.approx(mu_l * 50 / 3600.0 * 3.67)
        assert scores[0] == pytest.approx(1.0 / costs[0])
        # negative predicted latency is floored, not rewarded
        negative = PoolPredictions(np.array([0.9]), np.array([0.1]), np.array([0]), np.array([-1.0]), np.array([0.1]))
        _, floored = acquisition(negative, 0.8, 0.5)
        assert floored[0] == 1e-6

    def test_accuracy_at_threshold_halves(self):
        lo = acq(0.8, 0.1, 0.2, 0.0, a_slo=0.8, l_slo=0.5)
        full = acq(2.0, 0.1, 0.2, 0.0, a_slo=0.8, l_slo=0.5)
        assert lo == pytest.approx(0.5 * full)

    def test_ranking_matches_plug_in_reference(self):
        rng = np.random.default_rng(2)
        plans = []
        for _ in range(20):
            mu_a, sd_a = rng.uniform(0.5, 1.0), rng.uniform(0.01, 0.3)
            mu_l, sd_l = rng.uniform(0.05, 2.0), rng.uniform(0.01, 0.5)
            plans.append((mu_a, sd_a, mu_l, sd_l))
        # the accuracy of each configuration, and candidates sharing them
        mu_a, sd_a, mu_l, sd_l = np.array(plans).T
        config = rng.integers(0, 20, 30)
        got, _ = acquisition(PoolPredictions(mu_a, sd_a, config, mu_l[config], sd_l[config]), a_slo=0.8, l_slo=0.6)
        plans = [plans[c] for c in config]
        ref = [
            norm.cdf((mu_a - 0.8) / sd_a)
            * norm.cdf((0.6 - mu_l) / sd_l)
            / max(mu_l * 50 / 3600.0 * 3.67, 1e-6)
            for mu_a, sd_a, mu_l, sd_l in plans
        ]
        assert np.argsort(got).tolist() == np.argsort(ref).tolist()
        assert np.allclose(got, ref, rtol=1e-9)

    def test_monotonicity_in_accuracy_and_cost(self):
        base = acq(0.75, 0.1, 0.3, 0.1, a_slo=0.8, l_slo=0.5)
        higher_acc = acq(0.85, 0.1, 0.3, 0.1, a_slo=0.8, l_slo=0.5)
        costlier = acq(0.75, 0.1, 0.45, 0.1, a_slo=0.8, l_slo=0.5)
        assert higher_acc >= base
        assert costlier <= base


def two_op_setup(noise=0.0):
    ops = (
        OperatorSpec(0, ("a0", "a1", "a2"), base_output_size=1e5),
        OperatorSpec(1, ("b0", "b1"), base_output_size=1e4),
    )
    pipe = PipelineSpec("s2", ops, ((0, 1),))
    tiers = (Tier("edge", 2, 1.0, 0.5), Tier("cloud", 2, 1.0, 3.0))
    topo = TierTopology(tiers, ((1000.0, 200.0), (200.0, 1000.0)), ((0.0, 0.0), (0.0, 0.0)))
    land = generate_landscape(seed=31, pipeline=pipe, tier_speed_factors=(3.0, 1.0), noise_scale=noise)
    return pipe, topo, land


def encoded_pool(pipe, topo):
    pool = enumerate_search_pool(pipe, topo)
    xa, xl = encode_pool(pool, pipe, topo.num_tiers)
    return pool, np.arange(len(pool)), xa, xl


class TestEncodePool:
    def test_one_hot_rows_of_a_two_operator_two_tier_pipeline(self):
        pipe, topo, _land = two_op_setup()  # 3 and 2 options, 2 tiers
        plans = [
            PlanPoint((0, 0), (0, 0), (1.0, 1.0)),
            PlanPoint((2, 1), (0, 1), (1.0, 1.0)),
            PlanPoint((1, 0), (1, 1), (1.0, 1.0)),
        ]
        xa, xl = encode_pool(plans, pipe, topo.num_tiers)
        # accuracy rows: op0 option (3 columns), op1 option (2 columns)
        assert xa.tolist() == [
            [1, 0, 0, 1, 0],
            [0, 0, 1, 0, 1],
            [0, 1, 0, 1, 0],
        ]
        # latency rows: the accuracy row, then op0 tier and op1 tier (2 columns each)
        assert xl.tolist() == [
            [1, 0, 0, 1, 0, 1, 0, 1, 0],
            [0, 0, 1, 0, 1, 1, 0, 0, 1],
            [0, 1, 0, 1, 0, 0, 1, 0, 1],
        ]
        assert xa.dtype == xl.dtype == np.float64

    def test_rows_match_the_pool_order(self):
        pipe, topo, _land = two_op_setup()
        pool, _idx, xa, xl = encoded_pool(pipe, topo)
        assert xa.shape == (len(pool), 5) and xl.shape == (len(pool), 9)
        for i, plan in enumerate(pool):
            assert np.flatnonzero(xa[i]).tolist() == [plan.configuration[0], 3 + plan.configuration[1]]
            assert np.flatnonzero(xl[i, 5:]).tolist() == [plan.placement[0], 2 + plan.placement[1]]


class TestArgmaxWithTies:
    def test_best_score_wins(self):
        assert _argmax_with_ties(np.array([1.0, 3.0, 2.0]), np.array([0.1, 0.9, 0.1]).__getitem__) == 1

    def test_tie_goes_to_the_lower_cost_then_the_lower_index(self):
        scores = np.array([2.0, 5.0, 1.0, 5.0, 5.0])
        assert _argmax_with_ties(scores, np.array([0.1, 0.3, 0.1, 0.2, 0.2]).__getitem__) == 3
        assert _argmax_with_ties(scores, np.array([0.1, 0.2, 0.1, 0.2, 0.2]).__getitem__) == 1
        assert isinstance(_argmax_with_ties(scores, np.ones(5).__getitem__), int)

    def test_matches_the_loop_rule_on_coarse_random_scores(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            scores = rng.integers(0, 4, size=30).astype(float)
            costs = rng.integers(0, 3, size=30).astype(float)
            tied = [i for i in range(30) if scores[i] == scores.max()]
            assert _argmax_with_ties(scores, costs.__getitem__) == min(tied, key=lambda i: (costs[i], i))


class TestProposeBranches:
    def test_cold_branch_without_history(self):
        pipe, topo, land = two_op_setup()
        pool, _idx, _xa, _xl = encoded_pool(pipe, topo)
        pair = new_pair(pipe, topo)
        profiled = np.zeros(len(pool), dtype=bool)
        i, branch = propose(profiled, 0.8, 0.5, pair, None, np.random.default_rng(0))
        assert branch == "cold" and type(i) is int
        assert i == int(np.random.default_rng(0).integers(len(pool)))
        # an empty history session is no history
        empty = HistoryStore().session(pool_key(pipe, topo.num_tiers), 0.8, 0.5)
        profiled[:3] = True
        i, branch = propose(profiled, 0.8, 0.5, pair, empty, np.random.default_rng(0))
        assert branch == "cold" and i >= 3

    def test_cmbo_branch_after_one_observation(self):
        pipe, topo, land = two_op_setup()
        pool, _idx, _xa, _xl = encoded_pool(pipe, topo)
        pair = new_pair(pipe, topo)
        pair.fit_new_point(0, 0.9, 0.1)
        profiled = np.zeros(len(pool), dtype=bool)
        i, branch = propose(profiled, 0.8, 0.5, pair, None, np.random.default_rng(0))
        assert branch == "cmbo" and type(i) is int
        scores = pool_scores(pair, 0.8, 0.5)
        assert scores[i] == scores.max()
        # a profiled row is never picked
        profiled[i] = True
        j, _ = propose(profiled, 0.8, 0.5, pair, None, np.random.default_rng(0))
        assert j != i and scores[j] == scores[~profiled].max()

    def test_history_wins_when_own_gap_larger(self):
        pipe, topo, land = two_op_setup()
        pool, _idx, _xa, _xl = encoded_pool(pipe, topo)
        profiled = np.zeros(len(pool), dtype=bool)
        own = new_pair(pipe, topo)
        own.fit_new_point(0, 0.9, 0.1)
        hist_pair = new_pair(pipe, topo)
        hist_pair.fit_new_point(1, 0.8, 0.2)
        store = HistoryStore()
        store.push(hist_pair)
        session = store.session(pool_key(pipe, topo.num_tiers), 0.8, 0.5)
        session.own_window.append(0.10)
        session.gaps[0], session.gap_n = 0.01, 1
        i, branch = propose(profiled, 0.8, 0.5, own, session, np.random.default_rng(0))
        assert branch == "history"
        session.gaps[0] = 5.0  # worse than own gap now
        i, branch = propose(profiled, 0.8, 0.5, own, session, np.random.default_rng(0))
        assert branch == "cmbo"


class TestHistoryStore:
    def test_session_keeps_only_pairs_sharing_the_pool_encoding(self):
        pipe, topo, _land = two_op_setup()
        other = PipelineSpec("s3", (OperatorSpec(0, ("a0", "a1")), OperatorSpec(1, ("b0", "b1"))), ((0, 1),))
        three = TierTopology(
            topo.tiers + (Tier("far", 2, 1.0, 4.0),),
            ((1000.0, 200.0, 100.0), (200.0, 1000.0, 100.0), (100.0, 100.0, 1000.0)),
            ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        )
        store = HistoryStore()
        for i, (p, t) in enumerate(((pipe, topo), (other, topo), (pipe, three))):
            pair = new_pair(p, t)
            pair.fit_new_point(0, 0.5 + 0.1 * i, 0.2)
            store.push(pair)
        session = store.session(pool_key(pipe, topo.num_tiers), 0.8, 0.5)
        assert session.predicted == [store.predictions[0][1]]

    def test_store_evicts_the_oldest_beyond_capacity(self):
        pipe, topo, _land = two_op_setup()
        store = HistoryStore()
        pairs = [new_pair(pipe, topo) for _ in range(HISTORY_CAPACITY + 2)]
        for i, pair in enumerate(pairs):
            pair.fit_new_point(i % 6, 0.5 + 0.01 * i, 0.2)
            store.push(pair)
        assert len(store) == HISTORY_CAPACITY
        assert np.array_equal(store.predictions[0][1].mu_a, pairs[2].predict()[0])


class TestHistoryPropose:
    """The history branch of propose: gap-weighted votes of history models."""

    def _vote(self, pipe, topo, pairs_and_gaps, a_slo, l_slo):
        pool, _idx, _xa, _xl = encoded_pool(pipe, topo)
        store = HistoryStore()
        for pair, _gap in pairs_and_gaps:
            store.push(pair)
        session = store.session(pool_key(pipe, topo.num_tiers), a_slo, l_slo)
        session.gaps[:], session.gap_n = [gap for _pair, gap in pairs_and_gaps], 1
        profiled = np.zeros(len(pool), dtype=bool)
        i, branch = propose(profiled, a_slo, l_slo, new_pair(pipe, topo), session, np.random.default_rng(0))
        assert branch == "history"
        return i

    def test_single_history_equals_its_own_argmax(self):
        pipe, topo, land = two_op_setup()
        pool, _idx, _xa, _xl = encoded_pool(pipe, topo)
        pair = new_pair(pipe, topo)
        rng = np.random.default_rng(3)
        for i in rng.choice(len(pool), 5, replace=False):
            pair.fit_new_point(int(i), float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.05, 0.5)))
        voted = self._vote(pipe, topo, [(pair, 0.05)], 0.8, 0.5)
        scores = pool_scores(pair, 0.8, 0.5)
        best = max(scores)
        tied = [i for i, s in enumerate(scores) if s == best]
        assert voted == min(tied)

    def test_two_identical_histories_equal_one(self):
        pipe, topo, land = two_op_setup()
        pair = new_pair(pipe, topo)
        pair.fit_new_point(0, 0.95, 0.1)
        one = self._vote(pipe, topo, [(pair, 0.1)], 0.8, 0.5)
        two = self._vote(pipe, topo, [(pair, 0.1), (pair, 0.1)], 0.8, 0.5)
        assert one == two

    def test_opposed_histories_follow_dominant_weight(self):
        pipe, topo, land = two_op_setup()
        strong = new_pair(pipe, topo)
        weak = new_pair(pipe, topo)
        # opposite optima: each history is confident about a different plan
        strong.fit_new_point(10, 0.99, 0.05)
        strong.fit_new_point(12, 0.10, 0.05)
        weak.fit_new_point(12, 0.99, 0.05)
        weak.fit_new_point(10, 0.10, 0.05)
        # gaps 0.01 vs 0.09 give weights 0.9 / 0.1
        voted = self._vote(pipe, topo, [(strong, 0.01), (weak, 0.09)], 0.5, 0.5)
        # hand-computed weighted sum over the two candidate plans
        w = np.array([1 / (0.01 + 1e-6), 1 / (0.09 + 1e-6)])
        w = w / w.sum()
        assert w[0] == pytest.approx(0.9, abs=1e-4)
        s_strong = pool_scores(strong, 0.5, 0.5)
        s_weak = pool_scores(weak, 0.5, 0.5)
        s10 = w[0] * s_strong[10] + w[1] * s_weak[10]
        s12 = w[0] * s_strong[12] + w[1] * s_weak[12]
        assert s10 > s12
        assert voted == 10


class TestUpdate:
    def test_posterior_tracks_observation(self):
        pipe, topo, land = two_op_setup()
        pair = new_pair(pipe, topo)
        pair.fit_new_point(3, 0.87, 0.2)
        assert pair.f_l.rows == [3] and pair.f_a.rows == [pair.config[3]]
        mu_a, sd_a, mu_l, _ = (v[3] for v in per_row(pair.predict()))
        assert abs(float(mu_a) - 0.87) <= 0.02
        assert abs(float(mu_l) - 0.2) <= 0.02

    def test_gap_decreases_for_matching_history(self):
        pipe, topo, land = two_op_setup(noise=0.0)
        pool, _idx, _xa, _xl = encoded_pool(pipe, topo)
        rng = np.random.default_rng(5)
        matched = new_pair(pipe, topo)
        for i in rng.choice(len(pool), 12, replace=False):
            plan = pool[int(i)]
            lat = pipeline_latency(plan, pipe, topo, land.timings_for(plan.configuration))
            matched.fit_new_point(int(i), land.accuracy_mean(plan.configuration), lat)
        mismatched = new_pair(pipe, topo)
        mismatched.fit_new_point(0, 0.1, 3.0)
        store = HistoryStore()
        store.push(matched)
        store.push(mismatched)
        session = store.session(pool_key(pipe, topo.num_tiers), 0.8, 0.5)
        own = new_pair(pipe, topo)
        for i in rng.choice(len(pool), 8, replace=False):
            plan = pool[int(i)]
            lat = pipeline_latency(plan, pipe, topo, land.timings_for(plan.configuration))
            accuracy = land.accuracy_mean(plan.configuration)
            session.update_gaps(int(i), accuracy, lat, own)  # before the own model sees the observation
            own.fit_new_point(int(i), accuracy, lat)
        gaps = session.gaps
        assert gaps[0] < gaps[1]
        assert gaps[0] < 0.05

    def test_own_gap_predicts_only_against_stored_models(self, monkeypatch):
        pipe, topo, _land = two_op_setup()
        key = pool_key(pipe, topo.num_tiers)
        store = HistoryStore()
        store.push(fitted_pair(pipe, topo, np.random.default_rng(12), 3))
        calls = []
        mean = GaussianProcess.mean  # predict reads its means through it too

        def counted(self, idx):
            calls.append((self, idx))
            return mean(self, idx)

        monkeypatch.setattr(GaussianProcess, "mean", counted)
        # no history, or a session with no stored model: nothing reads an own gap
        for session in (None, HistoryStore().session(key, 0.8, 0.5), store.session((("other",), 2), 0.8, 0.5)):
            own = new_pair(pipe, topo)
            for i in (2, 5, 9):
                if session is not None:  # as the session loop does without a history
                    session.update_gaps(i, 0.8, 0.2, own)
                own.fit_new_point(i, 0.8, 0.2)
            assert own.n_obs == 3 and calls == []
        # with stored models: one one-row mean per GP once the own model is fit,
        # at the profiled plan's configuration and at the plan
        own = new_pair(pipe, topo)
        session = store.session(key, 0.8, 0.5)
        session.update_gaps(2, 0.8, 0.2, own)
        own.fit_new_point(2, 0.8, 0.2)
        assert calls == []
        for i in (5, 9):
            session.update_gaps(i, 0.8, 0.2, own)
            own.fit_new_point(i, 0.8, 0.2)
        assert calls == [(own.f_a, own.config[5]), (own.f_l, 5), (own.f_a, own.config[9]), (own.f_l, 9)]
        assert len(session.own_window) == 2 and session.gap_n == 3


def fitted_pair(pipe, topo, rng, n_obs):
    pair = new_pair(pipe, topo)
    for i in rng.choice(len(pair.config), n_obs, replace=False):
        pair.fit_new_point(int(i), float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.05, 0.5)))
    return pair


class TestHistoryPoolPredictions:
    """A pushed pair predicts its pool once, at push; gaps and votes read that."""

    def test_lookups_equal_the_direct_predictions_bitwise(self):
        pipe, topo, _land = two_op_setup()
        _pool, idx, _xa, _xl = encoded_pool(pipe, topo)
        key = pool_key(pipe, topo.num_tiers)
        rng = np.random.default_rng(8)
        store = HistoryStore()
        pairs = [fitted_pair(pipe, topo, rng, n_obs) for n_obs in (2, 5, 9, 14)]
        for pair in pairs:
            store.push(pair)
        for i in idx:
            session = store.session(key, 0.8, 0.5)
            session.update_gaps(int(i), 0.83, 0.21, new_pair(pipe, topo))
            assert session.gap_n == 1
            for j, pair in enumerate(pairs):
                p = pair.predict()
                assert session.gap_sum[j] == prediction_gap(
                    float(p.mu_a[p.config[i]]), float(p.mu_l[i]), 0.83, 0.21, 0.5
                )
        for j, pair in enumerate(pairs):
            [(scores, costs)] = session.pool_scores([j])
            want_scores, want_costs = acquisition(pair.predict(), 0.8, 0.5)
            assert np.array_equal(scores, want_scores) and np.array_equal(costs, want_costs)

    def test_each_stored_model_predicts_the_pool_at_most_once(self, monkeypatch):
        pipe, topo, _land = two_op_setup()
        key = pool_key(pipe, topo.num_tiers)
        rng = np.random.default_rng(9)
        pairs = [fitted_pair(pipe, topo, rng, n_obs) for n_obs in (3, 6, 10)]
        calls = []
        predict = GaussianProcess.predict

        def counted(self, idx):
            calls.append((self, idx))
            return predict(self, idx)

        monkeypatch.setattr(GaussianProcess, "predict", counted)
        store = HistoryStore()
        for pair in pairs:
            store.push(pair)
        # at push: each model predicts once, over the whole pool
        models = sorted(id(gp) for pair in pairs for gp in (pair.f_a, pair.f_l))
        assert sorted(id(gp) for gp, _ in calls) == models
        assert all(idx == slice(None) for _, idx in calls)
        # after push: gap updates and votes only read those predictions
        calls.clear()
        for a_slo in (0.8, 0.6):
            session = store.session(key, a_slo, 0.5)
            session.vote_indices()
            for i in (4, 11, 0):
                session.update_gaps(i, 0.8, 0.2, new_pair(pipe, topo))
                session.vote_indices()
        assert calls == []

    def test_store_keeps_the_newest_pairs_predictions(self):
        pipe, topo, _land = two_op_setup()
        key = pool_key(pipe, topo.num_tiers)
        rng = np.random.default_rng(10)
        store = HistoryStore()
        pairs = []
        for _ in range(HISTORY_CAPACITY + 2):
            pairs.append(fitted_pair(pipe, topo, rng, 1))
            store.push(pairs[-1])
        assert len(store.predictions) == HISTORY_CAPACITY
        # the store keeps the predictions of the newest pairs, in push order
        session = store.session(key, 0.8, 0.5)
        for pair, predicted in zip(pairs[2:], session.predicted, strict=True):
            assert np.array_equal(predicted.mu_a, pair.predict()[0])
            assert np.array_equal(predicted.mu_l, pair.predict().mu_l)


def row_types(n_rows):
    """Each pool row's type, one of three."""
    return st.lists(st.sampled_from((0, 1, 2)), min_size=n_rows, max_size=n_rows).map(np.array)


def tied_predictions(data, pool, row_type, miss=False):
    """Whole-pool predictions that build score ties: each configuration's
    accuracy is one of three values and each row's latency that of its
    ``row_type``, so rows of one type and of alike configurations tie; a
    confident mean accuracy below the SLO scores rows zero, so the cost
    breaks the tie between rows of different types. With ``miss`` every
    configuration confidently misses an SLO of at least 0.8, so every row
    scores zero and the cost alone decides."""

    def coarse(values, n):
        return np.array(data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))

    n_config = len(pool.xa)
    return PoolPredictions(
        np.full(n_config, 0.2) if miss else coarse((0.2, 0.7, 0.9), n_config),
        np.full(n_config, 1e-3 if miss else data.draw(st.sampled_from((1e-3, 0.1)))),
        pool.config,
        coarse((0.05, 0.1, 0.3, 2.0), 3)[row_type],
        coarse((1e-3, 0.2), 3)[row_type],
    )


def tied_session(data, pool, a_slo, own):
    """A history session of 1 to HISTORY_TOP_K + 3 stored models, each of
    :func:`tied_predictions` on one shared row typing and ``miss``, after up
    to four gap updates."""
    row_type = data.draw(row_types(len(pool.plans)))
    miss = data.draw(st.integers(0, 3)) == 0  # a quarter of the sessions: every row of every model misses
    predicted = [
        tied_predictions(data, pool, row_type, miss) for _ in range(data.draw(st.integers(1, HISTORY_TOP_K + 3)))
    ]
    session = HistorySession(predicted, a_slo, 0.5)
    for i in data.draw(st.lists(st.integers(0, len(pool.plans) - 1), max_size=4)):
        session.update_gaps(i, data.draw(st.sampled_from((0.2, 0.8))), data.draw(st.sampled_from((0.1, 0.3))), own)
    return session


class FixedSurrogates(NamedTuple):
    """A stand-in for a fitted surrogate pair whose whole-pool predictions are given."""

    n_obs: int
    predicted: PoolPredictions

    def predict(self) -> PoolPredictions:
        return self.predicted


class TestStepTablesMatchTheirOracles:
    """The kernel row from the one-hot table and the vote that sums costs
    only at tied rows, against the column loop and the whole-pool vote."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_row_equals_the_column_loop(self, data):
        n, ncols, top = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 9)), data.draw(st.integers(0, 5))
        row = st.lists(st.integers(0, top), min_size=ncols, max_size=ncols)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))
        pool = np.array(rows, dtype=np.min_scalar_type(top), order=data.draw(st.sampled_from("CF")))
        gp = GaussianProcess(pool)
        for j in range(n):
            assert np.array_equal(gp._kernel_row(j), column_kernel_row(pool, j))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_vote_on_built_ties_proposes_what_the_whole_pool_vote_does(self, data):
        # every model predicts each row from one of three row types, so rows
        # of one type and of alike configurations tie; a confident mean
        # accuracy below the SLO scores rows zero, so the summed cost breaks
        # the tie between rows of different types
        pipe, topo, _land = two_op_setup()
        pool = search_pool(pipe, topo)
        n_rows = len(pool.plans)
        a_slo = data.draw(st.sampled_from((0.8, 0.95)))
        own = new_pair(pipe, topo)  # never fit: the stored models always vote
        session = tied_session(data, pool, a_slo, own)
        idx = np.array(sorted(data.draw(st.sets(st.integers(0, n_rows - 1), min_size=1))))
        want = int(idx[argmax_with_ties(*whole_pool_vote(session, idx))])
        profiled = np.ones(n_rows, dtype=bool)
        profiled[idx] = False
        assert propose(profiled, a_slo, 0.5, own, session, np.random.default_rng(0)) == (want, "history")
        scores, costs_at = session.vote_indices()
        want_scores, want_costs = whole_pool_vote(session, slice(None))
        tied = np.flatnonzero(scores == scores.max())
        assert np.array_equal(scores, want_scores) and np.array_equal(costs_at(tied), want_costs[tied])

    @pytest.mark.parametrize("branch", ["history", "cmbo", "cold"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_propose_on_a_mask_picks_what_the_gathered_reference_does(self, branch, data):
        # the reference scores only the free rows, gathered from the pool as
        # a step did before it scored the whole pool, and maps the position
        # of their tie-broken argmax back to a pool row
        pipe, topo, _land = two_op_setup()
        pool = search_pool(pipe, topo)
        n_rows = len(pool.plans)
        a_slo = data.draw(st.sampled_from((0.8, 0.95)))
        # any mask, or in a quarter of the draws one that leaves a single row free
        if data.draw(st.integers(0, 3)):
            profiled = np.array(data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
        else:
            profiled = np.ones(n_rows, dtype=bool)
        profiled[data.draw(st.integers(0, n_rows - 1))] = False
        free = np.flatnonzero(~profiled)
        seed = data.draw(st.integers(0, 2**32 - 1))
        own = new_pair(pipe, topo)
        session = None
        if branch == "cold":  # without history, or with a session that has no stored model
            session = data.draw(st.sampled_from((None, HistorySession([], a_slo, 0.5))))
            want = int(free[np.random.default_rng(seed).integers(len(free))])
        elif branch == "history":  # the own model is never fit: the stored models always vote
            session = tied_session(data, pool, a_slo, own)
            want = int(free[argmax_with_ties(*whole_pool_vote(session, free))])
        elif data.draw(st.booleans()):  # a fitted pair, its latency predicted at the free rows only
            own = fitted_pair(pipe, topo, np.random.default_rng(seed), data.draw(st.integers(1, 6)))
            gathered = PoolPredictions(*own.f_a.predict(slice(None)), own.config[free], *own.f_l.predict(free))
            want = int(free[argmax_with_ties(*acquisition(gathered, a_slo, 0.5))])
        else:  # predictions that build score ties
            p = tied_predictions(data, pool, data.draw(row_types(n_rows)), data.draw(st.booleans()))
            own = FixedSurrogates(1, p)
            gathered = PoolPredictions(p.mu_a, p.sd_a, p.config[free], p.mu_l[free], p.sd_l[free])
            want = int(free[argmax_with_ties(*acquisition(gathered, a_slo, 0.5))])
        assert propose(profiled, a_slo, 0.5, own, session, np.random.default_rng(seed)) == (want, branch)

    @pytest.mark.parametrize("branch", ["history", "cmbo", "cold"])
    def test_an_all_profiled_mask_is_refused(self, branch):
        pipe, topo, _land = two_op_setup()
        own = fitted_pair(pipe, topo, np.random.default_rng(3), 0 if branch == "cold" else 2)
        store = HistoryStore()
        if branch == "history":
            store.push(fitted_pair(pipe, topo, np.random.default_rng(4), 2))
        session = store.session(pool_key(pipe, topo.num_tiers), 0.8, 0.5)
        with pytest.raises(ValueError, match="every pool row profiled"):
            propose(np.ones(len(own.config), dtype=bool), 0.8, 0.5, own, session, np.random.default_rng(0))

    def test_vote_equals_the_whole_pool_vote_as_the_top_k_changes(self, monkeypatch):
        # a stored model's pool scores are computed once, when it first
        # enters the top K, in one stacked acquisition call with the other
        # newcomers; more models than K, and gaps that move, change the top
        # K mid-session, so scores are computed between votes
        pipe, topo = visual_tracking_pipeline(), default_topology()
        rng = np.random.default_rng(23)
        store = HistoryStore()
        for n_obs in range(1, HISTORY_TOP_K + 8):
            store.push(fitted_pair(pipe, topo, rng, n_obs))
        session = store.session(pool_key(pipe, topo.num_tiers), 0.8, 0.5)
        scored_rows = []  # models scored by each acquisition call
        scorer = search.acquisition
        monkeypatch.setattr(search, "acquisition", lambda *args: scored_rows.append(len(args[0].mu_l)) or scorer(*args))
        own = new_pair(pipe, topo)
        rows = np.arange(len(own.config))
        entered = set()
        for i in rng.choice(len(own.config), 14, replace=False):
            calls = len(scored_rows)
            scores, costs_at = session.vote_indices()
            want_scores, want_costs = whole_pool_vote(session, rows)
            assert np.array_equal(scores, want_scores)
            assert np.array_equal(costs_at(rows), want_costs)
            newcomers = set(session.top_k().tolist()) - entered
            entered |= newcomers
            assert scored_rows[calls:] == ([len(newcomers)] if newcomers else [])
            assert sum(scored_rows) == len(entered)
            session.update_gaps(int(i), float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.05, 0.5)), own)
            own.fit_new_point(int(i), 0.8, 0.2)
        assert len(entered) > HISTORY_TOP_K
        assert max(scored_rows) == HISTORY_TOP_K and len(scored_rows) < len(entered)


class TestStoreScoreMemo:
    """The history store's memo of vote rows, shared by the sessions of one
    store: the same votes as the whole-pool vote, no scoring of a model at
    an SLO pair it keeps, and the bounds."""

    SLO_PAIRS = ((0.8, 0.5), (0.95, 0.5), (0.8, 0.3), (0.6, 0.2), (0.9, 0.4), (0.7, 0.6))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_sessions_of_one_store_vote_as_the_whole_pool_vote_within_the_bounds(self, data):
        pipe, topo, _land = two_op_setup()
        other = PipelineSpec("s3", (OperatorSpec(0, ("a0", "a1")), OperatorSpec(1, ("b0", "b1"))), ((0, 1),))
        key = pool_key(pipe, topo.num_tiers)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        store = HistoryStore()
        held = {}  # each stored model's SLO pairs, least recently read first, as the memo should hold them
        pushed = []  # every stored model's predictions, kept alive so that their ids stay unique
        scored_rows = []  # models scored by each acquisition call
        scorer = search.acquisition

        def counted(*args):
            scored_rows.append(len(args[0].mu_l))
            return scorer(*args)

        search.acquisition = counted
        try:
            for _ in range(data.draw(st.integers(1, 14))):
                for _ in range(data.draw(st.integers(0, HISTORY_CAPACITY // 4))):
                    oldest = store.rows[0] if len(store) == HISTORY_CAPACITY else None
                    store.push(fitted_pair(other if data.draw(st.integers(0, 4)) == 0 else pipe, topo, rng, 2))
                    pushed.append(store.predictions[-1][1])
                    # an evicted entry's rows leave the store with it
                    assert len(store.rows) == len(store.predictions) <= HISTORY_CAPACITY
                    assert oldest is None or all(rows is not oldest for rows in store.rows)
                a_slo, l_slo = data.draw(st.sampled_from(self.SLO_PAIRS))
                session = store.session(key, a_slo, l_slo)
                own = new_pair(pipe, topo)  # never fit: the stored models always vote
                for i in data.draw(st.lists(st.integers(0, len(own.config) - 1), max_size=5)) + [None]:
                    if not session.predicted:
                        break
                    calls = len(scored_rows)
                    scores, costs_at = session.vote_indices()
                    want_scores, want_costs = whole_pool_vote(session, slice(None))
                    every_row = np.arange(len(own.config))
                    assert np.array_equal(scores, want_scores) and np.array_equal(costs_at(every_row), want_costs)
                    # only the top-K models not holding this SLO pair are scored, in one call
                    top = [id(session.predicted[j]) for j in session.top_k().tolist()]
                    new = [m for m in top if (a_slo, l_slo) not in held.get(m, ())]
                    assert scored_rows[calls:] == ([len(new)] if new else [])
                    for m in top:
                        pairs = [p for p in held.get(m, ()) if p != (a_slo, l_slo)] + [(a_slo, l_slo)]
                        held[m] = pairs[-SCORED_SLO_PAIRS:]
                    if i is not None:
                        session.update_gaps(i, float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.05, 0.5)), own)
                # the memo holds what was read last, within its bound, one cost row per model
                for (_, predicted), rows in zip(store.predictions, store.rows, strict=True):
                    assert list(rows) == held.get(id(predicted), [])
                    assert len({id(costs) for _, costs in rows.values()}) <= 1
                    for slo, (scores, costs) in rows.items():
                        want_scores, want_costs = acquisition(predicted, *slo)
                        assert np.array_equal(scores, want_scores) and np.array_equal(costs, want_costs)
        finally:
            search.acquisition = scorer


class TestHistoryWeights:
    """Which stored models vote, and with what weight."""

    def _session(self, n_entries):
        pipe, topo, _land = two_op_setup()
        rng = np.random.default_rng(11)
        store = HistoryStore()
        for n_obs in range(1, n_entries + 1):
            store.push(fitted_pair(pipe, topo, rng, n_obs))
        _pool, idx, _xa, _xl = encoded_pool(pipe, topo)
        return store.session(pool_key(pipe, topo.num_tiers), 0.8, 0.5), idx

    def test_before_any_gap_the_first_entries_vote_uniformly(self):
        session, idx = self._session(HISTORY_TOP_K + 2)
        assert np.all(session.gaps == math.inf)
        assert session.top_k().tolist() == list(range(HISTORY_TOP_K))
        combined, costs_at = session.vote_indices()
        costs = costs_at(idx)
        voters = session.pool_scores(range(HISTORY_TOP_K))
        assert np.allclose(combined, np.mean([scores for scores, _ in voters], axis=0), rtol=1e-12, atol=0)
        assert np.allclose(costs, np.mean([c for _, c in voters], axis=0), rtol=1e-12, atol=0)

    def test_top_k_keeps_the_smallest_gaps_ties_to_the_lower_index(self):
        session, _idx = self._session(HISTORY_TOP_K + 2)
        gaps = [0.5, 0.1, 0.3, 0.1, math.inf, 0.2, 0.1, 0.4, math.inf, 0.6, 0.3, 0.7]
        session.gaps[:], session.gap_n = gaps, 1
        want = [1, 3, 6, 5, 2, 10, 7, 0, 9, 11]
        assert session.top_k().tolist() == want
        # infinite gaps weigh nothing: the vote is that of the finite top-K
        _pool, idx, _xa, _xl = encoded_pool(*two_op_setup()[:2])
        w = np.array([1 / (gaps[i] + 1e-6) for i in want])
        w = w / w.sum()
        combined, _costs = session.vote_indices()
        want_scores = sum(wi * scores for wi, (scores, _) in zip(w, session.pool_scores(want)))
        assert np.allclose(combined, want_scores, rtol=1e-12, atol=0)

    def test_own_gap_is_the_mean_of_the_trailing_window(self):
        # the own model's gaps go through update_gaps, before each refit;
        # stored models vote until the trailing-window mean beats their best
        session, _idx = self._session(1)
        pipe, topo, _land = two_op_setup()
        own = new_pair(pipe, topo)
        observations = [
            (3, 0.9, 0.2), (7, 0.6, 0.4), (1, 0.8, 0.1), (9, 0.7, 0.3), (4, 0.95, 0.25), (2, 0.5, 0.2), (8, 0.85, 0.35)
        ]
        session.update_gaps(*observations[0], own)  # no own model yet: no own gap
        assert session.own_window == [] and session.votes()
        own.fit_new_point(*observations[0])
        gaps = []
        for i, accuracy, latency_s in observations[1:]:
            p = own.predict()  # the means update_gaps looks up, bitwise
            gaps.append(prediction_gap(float(p.mu_a[p.config[i]]), float(p.mu_l[i]), accuracy, latency_s, 0.5))
            session.update_gaps(i, accuracy, latency_s, own)
            own.fit_new_point(i, accuracy, latency_s)
            window = gaps[-GAP_WINDOW_LEN:]
            assert session.own_window == window
            # the stored model's mean gap one ULP either side of the window mean
            mean = float(np.mean(window))
            session.gaps[0] = np.nextafter(mean, math.inf)
            assert not session.votes()  # the own model's mean gap is smaller
            session.gaps[0] = mean
            assert session.votes()  # a tie does not hand over
            session.gaps[0] = np.nextafter(mean, -math.inf)
            assert session.votes()
        assert len(session.own_window) == GAP_WINDOW_LEN

    def test_gather_once_vote_equals_the_per_model_gathered_sum_bitwise(self):
        pipe, topo = visual_tracking_pipeline(), default_topology()
        rng = np.random.default_rng(17)
        store = HistoryStore()
        for n_obs in range(1, HISTORY_TOP_K + 5):
            store.push(fitted_pair(pipe, topo, rng, n_obs))
        session = store.session(pool_key(pipe, topo.num_tiers), 0.8, 0.5)
        own = new_pair(pipe, topo)
        profiled = np.zeros(len(own.config), dtype=bool)
        for i in rng.choice(len(own.config), 8, replace=False):
            session.update_gaps(int(i), float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.05, 0.5)), own)
            own.fit_new_point(int(i), 0.8, 0.2)
            profiled[i] = True
            idx = np.flatnonzero(~profiled)
            # each model's scores and costs gathered at idx, summed in top-K order
            top = session.top_k()
            raw = 1.0 / (session.gaps[top] + 1e-6)
            combined, costs = np.zeros(len(idx)), np.zeros(len(idx))
            for w, j in zip(raw / raw.sum(), top):
                [(scores, model_costs)] = session.pool_scores([int(j)])
                combined += w * scores[idx]
                costs += w * model_costs[idx]
            got_combined, costs_at = session.vote_indices()
            assert np.array_equal(got_combined[idx], combined) and np.array_equal(costs_at(idx), costs)


class TestSearchPool:
    def test_rows_match_a_fresh_encoding(self):
        pipe, topo, _land = two_op_setup()
        pool = search_pool(pipe, topo)
        fresh = enumerate_search_pool(pipe, topo)
        want_xa, want_xl = encode_pool(fresh, pipe, topo.num_tiers)
        assert pool.key == pool_key(pipe, topo.num_tiers)
        assert list(pool.plans) == fresh
        # code rows: each plan's options, then its tiers, whose one-hots are the fresh encoding
        assert pool.xl.tolist() == [[*p.configuration, *p.placement] for p in fresh]
        assert np.array_equal(one_hot(pool.xa[pool.config], [3, 2]), want_xa)
        assert np.array_equal(one_hot(pool.xl, [3, 2, 2, 2]), want_xl)
        # one accuracy row per distinct configuration, in configuration order
        configs = sorted({p.configuration for p in fresh})
        assert [tuple(row) for row in pool.xa.tolist()] == configs
        assert [configs[c] for c in pool.config] == [p.configuration for p in fresh]

    def test_cached_per_knob_sizes_and_tier_count(self):
        pipe, topo, _land = two_op_setup()
        renamed = PipelineSpec(
            "s2-renamed",
            (OperatorSpec(0, ("c0", "c1", "c2")), OperatorSpec(1, ("d0", "d1"))),
            ((0, 1),),
        )
        assert search_pool(renamed, topo) is search_pool(pipe, topo)
        three = TierTopology(
            topo.tiers + (Tier("far", 2, 1.0, 4.0),),
            ((1000.0, 200.0, 100.0), (200.0, 1000.0, 100.0), (100.0, 100.0, 1000.0)),
            ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        )
        other = search_pool(pipe, three)
        assert other is not search_pool(pipe, topo)
        # two option columns, then two tier columns that now reach the third tier
        assert other.xl.shape[1] == 2 + 2 and other.xl[:, 2:].max() == 2

    def test_cached_arrays_are_read_only(self):
        pipe, topo, _land = two_op_setup()
        pool = search_pool(pipe, topo)
        with pytest.raises(ValueError):
            pool.xa[0, 0] = 2.0
        with pytest.raises(ValueError):
            pool.config[0] = 1
        with pytest.raises(ValueError):
            pool.xl[0, 0] = 2.0


class TestParetoOptimize:
    def _setup(self, l_slo, bases=(0.1, 0.1), batching=(False, False)):
        ops = tuple(
            OperatorSpec(i, ("x",), is_batching=batching[i], base_output_size=1e4) for i in range(2)
        )
        pipe = PipelineSpec("po", ops, ((0, 1),))
        tiers = (Tier("cloud", 2, 1.0, 2.0),)
        topo = TierTopology(tiers, ((1000.0,),), ((0.0,),))
        plan = PlanPoint((0, 0), (0, 0), (1.0, 1.0))
        timings = OperatorTimings(bases, (1e4, 1e4), (1.0,))
        return plan, pipe, topo, timings

    def test_everything_feasible_collapses_to_min_fractions(self):
        plan, pipe, topo, timings = self._setup(l_slo=100.0)
        got = pareto_optimize(plan, pipe, topo, timings, l_slo=100.0)
        assert len(got) == 1
        assert got[0][0].resources == (0.125, 0.125)

    def test_saturating_operator_held_at_half(self):
        # op0 alone takes 0.8s at f=1/4, over the 0.6s SLO regardless of op1,
        # so it is held at 1/2 while op1 drops to the cheapest level
        plan, pipe, topo, timings = self._setup(l_slo=0.6, bases=(0.2, 0.01))
        got = pareto_optimize(plan, pipe, topo, timings, l_slo=0.6)
        assert [p.resources for p, _, _ in got] == [(0.5, 0.125)]
        oracle = exhaustive_resource_frontier(
            plan, pipe, topo, timings, 0.6, pipeline_latency, plan_hourly_cost
        )
        assert {p for p, _, _ in got} == set(oracle)

    def test_batching_operator_reduced_for_free(self):
        plan, pipe, topo, timings = self._setup(l_slo=0.5, bases=(0.1, 0.3), batching=(False, True))
        got = pareto_optimize(plan, pipe, topo, timings, l_slo=0.5)
        assert all(p.resources[1] == 0.125 for p, _, _ in got)

    def test_infeasible_at_full_resources_raises(self):
        plan, pipe, topo, timings = self._setup(l_slo=0.01, bases=(0.2, 0.2))
        with pytest.raises(ValueError, match="over-provisioned"):
            pareto_optimize(plan, pipe, topo, timings, l_slo=0.01)

    def test_matches_exhaustive_frontier_on_random_instances(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            m = int(rng.integers(1, 5))
            batching = tuple(bool(rng.uniform() < 0.3) for _ in range(m))
            ops = tuple(
                OperatorSpec(i, ("x",), is_batching=batching[i], base_output_size=1e4)
                for i in range(m)
            )
            pipe = PipelineSpec(f"po{trial}", ops, tuple((i, i + 1) for i in range(m - 1)))
            tiers = (Tier("a", 2, 1.0, 1.0), Tier("b", 2, 1.0, 3.0))
            topo = TierTopology(tiers, ((500.0, 100.0), (100.0, 500.0)), ((0.0, 0.0), (0.0, 0.0)))
            placement = tuple(sorted(int(rng.integers(2)) for _ in range(m)))
            plan = PlanPoint((0,) * m, placement, (1.0,) * m)
            timings = OperatorTimings(
                tuple(rng.uniform(0.01, 0.3, m)), tuple(rng.uniform(1e3, 1e5, m)), (2.0, 1.0)
            )
            base_lat = pipeline_latency(plan, pipe, topo, timings)
            l_slo = float(base_lat * rng.uniform(1.05, 6.0))
            got = pareto_optimize(plan, pipe, topo, timings, l_slo)
            oracle = exhaustive_resource_frontier(
                plan, pipe, topo, timings, l_slo, pipeline_latency, plan_hourly_cost
            )
            assert {p for p, _, _ in got} == set(oracle), f"trial {trial}"
        # fan-in DAGs, some with a batching source, and all-batching chains
        # (whose node weights are the same at every fraction), checked
        # against a latency that walks every path instead of sharing the DP
        for trial in range(30):
            m = int(rng.integers(2, 6))
            if trial % 3 == 0:
                batching = (True,) * m
                edges = {(i, i + 1) for i in range(m - 1)}
            else:
                batching = tuple(bool(rng.uniform() < 0.3) for _ in range(m))
                edges = {(i, i + 1) for i in range(m - 1)}
                edges |= {(u, v) for u in range(m - 2) for v in range(u + 2, m) if rng.uniform() < 0.5}
            ops = tuple(
                OperatorSpec(i, ("x",), is_batching=batching[i], base_output_size=1e4) for i in range(m)
            )
            pipe = PipelineSpec(f"dag{trial}", ops, tuple(sorted(edges)), input_bytes=float(rng.uniform(0, 1e5)))
            tiers = (Tier("a", 2, 1.0, 1.0), Tier("b", 2, 1.0, 3.0))
            topo = TierTopology(tiers, ((500.0, 100.0), (100.0, 500.0)), ((0.0, 0.002), (0.002, 0.0)))
            placement = tuple(sorted(int(rng.integers(2)) for _ in range(m)))
            plan = PlanPoint((0,) * m, placement, (1.0,) * m)
            timings = OperatorTimings(
                tuple(rng.uniform(0.01, 0.3, m)), tuple(rng.uniform(1e3, 1e5, m)), (2.0, 1.0)
            )
            l_slo = float(all_paths_latency(plan, pipe, topo, timings) * rng.uniform(1.05, 6.0))
            got = pareto_optimize(plan, pipe, topo, timings, l_slo)
            oracle = exhaustive_resource_frontier(
                plan, pipe, topo, timings, l_slo, all_paths_latency, plan_hourly_cost
            )
            assert {p for p, _, _ in got} == set(oracle), f"dag trial {trial}"
            for p, _, lat in got:
                assert lat == all_paths_latency(p, pipe, topo, timings), f"dag trial {trial}"
            if all(batching):
                assert [p.resources for p, _, _ in got] == [(0.125,) * m]

    def test_memo_keys_on_the_pipeline_value_not_its_name(self):
        # both pipelines are named "po"; only op1's batching flag differs
        plan, pipe, topo, timings = self._setup(l_slo=0.5, bases=(0.1, 0.3))
        _, batching_pipe, fresh_topo, _ = self._setup(l_slo=0.5, bases=(0.1, 0.3), batching=(False, True))
        assert pipe.name == batching_pipe.name and pipe != batching_pipe
        plain = pareto_optimize(plan, pipe, topo, timings, l_slo=0.5)
        batched = pareto_optimize(plan, batching_pipe, topo, timings, l_slo=0.5)
        assert plain != batched
        assert batched == pareto_optimize(plan, batching_pipe, fresh_topo, timings, l_slo=0.5)
        assert all(p.resources[1] == 0.125 for p, _, _ in batched)

    def test_each_call_returns_a_new_list(self):
        plan, pipe, topo, timings = self._setup(l_slo=0.6, bases=(0.2, 0.01))
        first = pareto_optimize(plan, pipe, topo, timings, l_slo=0.6)
        expected = list(first)
        first.clear()
        first.append("junk")
        assert pareto_optimize(plan, pipe, topo, timings, l_slo=0.6) == expected

    def test_more_than_max_operators_is_refused(self):
        m = MAX_LATTICE_OPERATORS + 1
        ops = tuple(OperatorSpec(i, ("x",), base_output_size=1e4) for i in range(m))
        pipe = PipelineSpec("long", ops, tuple((i, i + 1) for i in range(m - 1)))
        topo = TierTopology((Tier("a", 2, 1.0, 1.0),), ((500.0,),), ((0.0,),))
        plan = PlanPoint((0,) * m, (0,) * m, (1.0,) * m)
        timings = OperatorTimings((0.01,) * m, (1e4,) * m, (1.0,))
        with pytest.raises(SpaceTooLargeError, match=f"limited to {MAX_LATTICE_OPERATORS} operators"):
            pareto_optimize(plan, pipe, topo, timings, l_slo=100.0)

    def test_rows_carry_each_plans_cost_and_latency(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            m = int(rng.integers(1, 5))
            ops = tuple(OperatorSpec(i, ("x",), base_output_size=1e4) for i in range(m))
            pipe = PipelineSpec(f"rows{trial}", ops, tuple((i, i + 1) for i in range(m - 1)))
            tiers = (Tier("a", 2, 1.0, 1.0), Tier("b", 2, 1.0, 3.0))
            topo = TierTopology(tiers, ((500.0, 100.0), (100.0, 500.0)), ((0.0, 0.0), (0.0, 0.0)))
            plan = PlanPoint((0,) * m, tuple(sorted(int(rng.integers(2)) for _ in range(m))), (1.0,) * m)
            timings = OperatorTimings(
                tuple(rng.uniform(0.01, 0.3, m)), tuple(rng.uniform(1e3, 1e5, m)), (2.0, 1.0)
            )
            l_slo = float(pipeline_latency(plan, pipe, topo, timings) * rng.uniform(1.05, 6.0))
            rows = pareto_optimize(plan, pipe, topo, timings, l_slo)
            assert rows
            for p, cost, lat in rows:
                assert cost == plan_hourly_cost(p, topo)
                assert lat == pipeline_latency(p, pipe, topo, timings)
                assert lat <= l_slo


class TestSingleQuerySearch:
    def test_zero_budget_returns_empty(self, vt_pipeline, vt_landscape, topology):
        q = Query("z", vt_pipeline, a_slo=0.5, l_slo=1.0, response_budget_s=0.0)
        res = single_query_search(q, vt_landscape, topology, seed=0)
        assert res.telemetry == [] and len(res.candidates) == 0

    def test_deterministic_proposal_sequence(self, vt_pipeline, vt_landscape, topology, vt_query):
        a = single_query_search(vt_query, vt_landscape, topology, seed=7)
        b = single_query_search(vt_query, vt_landscape, topology, seed=7)
        seq_a = [(t["configuration"], t["placement"]) for t in a.telemetry]
        seq_b = [(t["configuration"], t["placement"]) for t in b.telemetry]
        assert seq_a == seq_b
        assert a.candidates == b.candidates

    def test_warm_history_proposal_sequence_is_pinned(self, vt_pipeline, vt_landscape, topology, vt_query):
        # Values recorded from the earlier inline-branching loop, so a change
        # to the RNG call order or tie-breaking shows. The history vote leads
        # until the session's own model outpredicts it, then cmbo takes over.
        q = dataclasses.replace(vt_query, response_budget_s=2.0)
        store = HistoryStore()
        for i in range(2):
            sib = sibling_landscape(vt_landscape, seed=12 + i, perturbation=1.5)
            single_query_search(q, sib, topology, history=store, seed=50 + i)
        res = single_query_search(q, vt_landscape, topology, history=store, seed=7)
        got = [(t["branch"], tuple(t["configuration"]), tuple(t["placement"])) for t in res.telemetry]
        assert got == [
            ("history", (1, 1, 3), (0, 0, 0)),
            ("history", (1, 1, 3), (0, 0, 1)),
            ("cmbo", (0, 1, 3), (0, 0, 0)),
            ("cmbo", (1, 1, 3), (1, 1, 2)),
        ]

    def test_large_pool_proposal_sequence_is_pinned(self, topology):
        # 22,680 plans, every unprofiled one scored at each step; the same
        # sequence as a from-scratch refit that scores the whole pool
        ops = tuple(
            OperatorSpec(i, tuple(f"o{j}" for j in range(n)), base_output_size=1e5)
            for i, n in enumerate((6, 6, 6, 7))
        )
        pipe = PipelineSpec("big", ops, ((0, 1), (1, 2), (2, 3)))
        land = generate_landscape(seed=5, pipeline=pipe, tier_speed_factors=DEFAULT_SPEED_FACTORS)
        q = Query("big", pipe, a_slo=0.5, l_slo=1.0, response_budget_s=1.5)
        res = single_query_search(q, land, topology, seed=3)
        got = [(t["branch"], tuple(t["configuration"]), tuple(t["placement"])) for t in res.telemetry]
        assert got == [
            ("cold", (1, 0, 1, 1), (1, 1, 2, 2)),
            ("cmbo", (1, 0, 1, 1), (0, 1, 2, 2)),
            ("cmbo", (1, 0, 1, 1), (1, 1, 1, 2)),
            ("cmbo", (0, 0, 1, 1), (1, 1, 2, 2)),
        ]

    def test_candidates_meet_both_slos_under_oracle(self, vt_pipeline, vt_landscape, topology, vt_query):
        res = single_query_search(vt_query, vt_landscape, topology, seed=3)
        assert len(res.candidates) > 0
        truth = true_pareto_set(vt_landscape, topology, vt_query)
        truth_feasible = set()
        for plan in truth:
            truth_feasible.add(plan)
        ok = 0
        for cand in res.candidates.plans:
            acc = vt_landscape.accuracy_mean(cand.plan.configuration)
            lat = pipeline_latency(
                cand.plan, vt_pipeline, topology, vt_landscape.timings_for(cand.plan.configuration)
            )
            ok += (acc >= vt_query.a_slo) and (lat <= vt_query.l_slo)
        assert ok / len(res.candidates) >= 0.95

    @pytest.mark.parametrize("profiler", ["guided", "fixed"])
    @pytest.mark.parametrize("a_slo", [None, 0.999], ids=["feasible", "never-feasible"])
    def test_step_rows_record_each_profiling_charge(
        self, vt_landscape, topology, vt_query, monkeypatch, profiler, a_slo
    ):
        # the rows are the one record of a step: each carries that step's own
        # charge, and the result's step figures are read from them
        name = "profile_plan" if profiler == "guided" else "profile_plan_fixed_n"
        profile, outcomes = getattr(search, name), []
        monkeypatch.setattr(search, name, lambda *args: outcomes.append(profile(*args)) or outcomes[-1])
        q = dataclasses.replace(vt_query, a_slo=a_slo or vt_query.a_slo, response_budget_s=3.0)
        res = single_query_search(q, vt_landscape, topology, seed=5, config=SearchConfig(profiler=profiler))
        rows = res.telemetry
        assert len(rows) == len(outcomes) > 1
        assert [r["step"] for r in rows] == list(range(1, len(rows) + 1))
        assert [r["profiling_gpu_s"] for r in rows] == [o.profiling_cost for o in outcomes]
        assert [r["samples"] for r in rows] == [o.samples_used for o in outcomes]
        total = 0.0
        for o in outcomes:
            total += o.profiling_cost
        assert total == res.gpu_seconds == rows[-1]["gpu_seconds"]  # bitwise, summed in step order
        first = next((r for r in rows if r["feasible"]), None)
        assert (first is None) == (a_slo is not None)
        if first is None:
            assert res.time_to_first_feasible_s is None and res.steps_to_first_feasible is None
        else:
            assert res.time_to_first_feasible_s == first["charged_time_s"]
            assert res.steps_to_first_feasible == first["step"]

    def test_budget_overrun_bounded_by_one_step(self, vt_pipeline, vt_landscape, topology):
        q = Query("b", vt_pipeline, a_slo=0.5, l_slo=1.0, response_budget_s=1.0)
        res = single_query_search(q, vt_landscape, topology, seed=1)
        per_step = [t["charged_time_s"] for t in res.telemetry]
        deltas = [b - a for a, b in zip([0.0] + per_step, per_step)]
        assert res.charged_time_s <= 1.0 + max(deltas)

    def test_gpuh_budget_mode(self, vt_pipeline, vt_landscape, topology):
        q = Query("g", vt_pipeline, a_slo=0.5, l_slo=1.0, profiling_budget_gpuh=1e-4)
        res = single_query_search(q, vt_landscape, topology, seed=1)
        assert len(res.telemetry) >= 1
        assert res.gpu_seconds / 3600.0 >= 1e-4  # stopped after crossing

    def test_pool_exhaustion_is_legal_outcome(self):
        pipe, topo, land = two_op_setup()
        q = Query("e", pipe, a_slo=0.999, l_slo=10.0, response_budget_s=1e6)
        res = single_query_search(q, land, topo, seed=0)
        assert len(res.telemetry) == len(search_pool(pipe, topo).plans)
        assert len(res.candidates) == 0  # nothing can reach 0.999


class TestOverProvisioningSoundness:
    def test_full_resources_dominate_any_allocation(self, vt_pipeline, vt_landscape, topology):
        # latency is monotone in resources, so a plan feasible at some r is
        # feasible at r = all-ones: the over-provisioned pool is a superset
        rng = np.random.default_rng(11)
        fracs = (1.0, 0.5, 0.25, 0.125)
        for _ in range(200):
            cfg = tuple(int(rng.integers(len(op.knob_domain))) for op in vt_pipeline.operators)
            placement = tuple(sorted(int(rng.integers(topology.num_tiers)) for _ in range(3)))
            r = tuple(fracs[int(rng.integers(4))] for _ in range(3))
            timings = vt_landscape.timings_for(cfg)
            lat_r = pipeline_latency(PlanPoint(cfg, placement, r), vt_pipeline, topology, timings)
            lat_full = pipeline_latency(
                PlanPoint(cfg, placement, (1.0, 1.0, 1.0)), vt_pipeline, topology, timings
            )
            assert lat_full <= lat_r + 1e-12


class TestReplan:
    def test_warm_replan_reuses_prior_observations(self, vt_pipeline, vt_landscape, topology, vt_query):
        from tierplan.scheduler import replan

        first = single_query_search(vt_query, vt_landscape, topology, seed=2)
        assert len(first.observations.idx) == len(first.telemetry) > 0
        again = replan(vt_query, vt_landscape, topology, prior=first.observations, seed=3, budget_s=2.0)
        # stale observations retained, in order, plus fresh ones
        n = len(first.observations.idx)
        assert len(again.telemetry) >= 1 and len(again.observations.idx) == n + len(again.telemetry)
        assert all(a[:n] == b for a, b in zip(again.observations[1:], first.observations[1:], strict=True))
        # a result holds observations, no model
        assert type(again.observations) is Observations
        assert not any(isinstance(v, (SurrogatePair, GaussianProcess)) for v in vars(again).values())

    def test_warm_observations_must_share_the_search_pool(self, vt_landscape, topology, vt_query):
        # they are indices into their own pool
        pipe, topo, _land = two_op_setup()
        warm = Observations(pool_key(pipe, topo.num_tiers), (0,), (0.9,), (0.2,))
        with pytest.raises(ValueError, match="another search pool"):
            single_query_search(vt_query, vt_landscape, topology, warm=warm)


class TestWarmStart:
    def test_history_reduces_steps_to_first_feasible(self, topology):
        pipe = wide_search_pipeline()
        parent = generate_landscape(
            seed=40, pipeline=pipe, difficulty="rugged", tier_speed_factors=DEFAULT_SPEED_FACTORS
        )
        frontier = quality_latency_frontier(parent, topology)
        acc = float(np.mean([a for _, a, _ in frontier]))
        lat = float(np.mean([l for _, _, l in frontier]))
        q = Query("w", pipe, a_slo=0.8 * acc, l_slo=1.5 * lat, response_budget_s=5.0)
        store = HistoryStore()
        for i in range(3):
            sib = sibling_landscape(parent, seed=41 + i, perturbation=0.15)
            single_query_search(q, sib, topology, history=store, seed=90 + i)
        assert len(store) == 3
        cold, warm = [], []
        for s in range(6):
            cold.append(single_query_search(q, parent, topology, seed=s).steps_to_first_feasible)
            warm.append(
                single_query_search(q, parent, topology, history=store, seed=s).steps_to_first_feasible
            )
        cold = [c if c is not None else math.inf for c in cold]
        warm = [w if w is not None else math.inf for w in warm]
        assert np.median(warm) <= np.median(cold)


class TestNdtr:
    """The numpy Φ against scipy's Cephes ``ndtr``."""

    def grid(self):
        near = []
        for edge in (math.sqrt(2.0), 8.0 * math.sqrt(2.0)):  # the band edges |a|/√2 = 1 and 8
            for v in (edge, -edge):
                near.append(v)
                w = v
                for _ in range(20):
                    w = float(np.nextafter(w, math.inf))
                    near.append(w)
                w = v
                for _ in range(20):
                    w = float(np.nextafter(w, -math.inf))
                    near.append(w)
        edges = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300]
        return np.concatenate([np.linspace(-40.0, 40.0, 400_001), near, edges])

    def test_agrees_with_scipy(self):
        import warnings

        a = self.grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ndtr(a)
        want = scipy_ndtr(a)
        normal = want >= 1e-300
        assert np.all(np.abs(got[normal] - want[normal]) <= 1e-15 * want[normal])
        assert np.array_equal(got == 0.0, want == 0.0) and np.array_equal(got == 1.0, want == 1.0)
        assert np.all(got[~normal] <= 1e-300)
        assert np.isnan(ndtr(np.array([math.nan]))[0])

    def test_a_2d_input_equals_its_rows_bitwise(self):
        a = np.random.default_rng(4).normal(0.0, 12.0, (7, 513))
        got = ndtr(a)
        for row, want in zip(a, got):
            assert np.array_equal(ndtr(row), want)
            assert all(np.array_equal(ndtr(row[j : j + 3]), want[j : j + 3]) for j in range(0, 513, 41))

    @pytest.mark.parametrize("shape", [(3 * NDTR_BLOCK + 17,), (9, NDTR_BLOCK // 3 + 5)])
    def test_an_input_of_several_blocks_equals_its_rows_bitwise(self, shape):
        # random values and the grid's band edges and extremes, over more
        # than one block: the bits of pieces shorter than a block and of one
        # evaluation of the whole input, within Cephes' tolerance
        size = math.prod(shape)
        a = np.random.default_rng(5).normal(0.0, 12.0, size)
        near = self.grid()[400_001:]
        a[:: size // len(near)][: len(near)] = near
        a = a.reshape(shape)
        got = ndtr(a)
        pieces = np.array_split(a, range(1000, size, 1000)) if a.ndim == 1 else a
        assert got.shape == shape
        assert np.array_equal(got.reshape(-1), np.concatenate([ndtr(piece) for piece in pieces]))
        assert np.array_equal(got.reshape(-1), search._ndtr_block(a.reshape(-1)))
        want = scipy_ndtr(a)
        normal = want >= 1e-300
        assert np.all(np.abs(got[normal] - want[normal]) <= 1e-15 * want[normal])


class TestOwnGapMean:
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=GAP_WINDOW_LEN))
    @settings(max_examples=500, deadline=None)
    def test_own_window_mean_is_numpys(self, window):
        session = HistorySession([], 0.8, 0.5)
        session.own_window = window
        own = float(np.mean(window))
        # votes() compares the own mean against the best stored gap
        session.predicted, session.gaps = [None], np.array([np.nextafter(own, math.inf)])
        assert not session.votes()
        session.gaps = np.array([own])
        assert session.votes()


class TestReducible:
    @given(st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_index_tuples_equal_the_moveaxis_form(self, m, data):
        shape = tuple(data.draw(st.integers(1, 4)) for _ in range(m))
        bits = data.draw(st.lists(st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape)))
        feasible = np.array(bits, dtype=bool).reshape(shape)
        assert np.array_equal(_reducible(feasible), moveaxis_reducible(feasible))
