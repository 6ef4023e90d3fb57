import dataclasses
import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    enumerate_plan_space,
    per_plan_frontier,
    sample_cases,
    scalar_accuracy_mean,
    scalar_stratum_mean,
    sibling_landscape,
    true_pareto_set,
)
from tierplan.landscape import (
    _CLIP_HI,
    _CLIP_LO,
    N_CASES,
    ArrivalTrace,
    SLO_HARDNESS,
    generate_landscape,
    generate_trace,
    quality_latency_frontier,
)
from tierplan.latency import pipeline_latency, plan_hourly_cost
from tierplan.model import (
    SCHEMA_VERSION,
    SEARCH_POOL_MAX_PLANS,
    OperatorSpec,
    PipelineSpec,
    PlanPoint,
    Query,
    SchemaError,
    SpaceTooLargeError,
    Tier,
    TierTopology,
)
from tierplan.presets import PIPELINE_TEMPLATES, default_topology, speed_factors_for
from tierplan.profiler import NullCache, _case_values, profile_plan_fixed_n


#: three tiers, each toward the device 3x slower
TIER_SPEEDS = (9.0, 3.0, 1.0)


def all_configs(pipeline):
    return product(*[range(len(op.knob_domain)) for op in pipeline.operators])


#: The landscape fields held as numpy arrays, and those held as tuples of them.
ARRAY_FIELDS = ("stratum_base", "stratum_sigma", "monotone_weights", "case_stratum", "case_features")
TABLE_FIELDS = ("option_effects", "pair_effects")


def landscape_arrays(land):
    """Every array a landscape holds, by field name (tables by field and index)."""
    arrays = {name: getattr(land, name) for name in ARRAY_FIELDS}
    arrays.update({f"{name}[{i}]": a for name in TABLE_FIELDS for i, a in enumerate(getattr(land, name))})
    return arrays


def differing_fields(a, b):
    """The constructor fields of two landscapes that differ, each table by
    field and index: arrays by dtype, shape and every element, the rest by
    ``==``."""
    arrays_a, arrays_b = landscape_arrays(a), landscape_arrays(b)
    differ = list(arrays_a.keys() ^ arrays_b.keys())
    for name in arrays_a.keys() & arrays_b.keys():
        x, y = arrays_a[name], arrays_b[name]
        if x.dtype != y.dtype or not np.array_equal(x, y):
            differ.append(name)
    arrays = ARRAY_FIELDS + TABLE_FIELDS
    others = [f.name for f in dataclasses.fields(a) if f.init and f.name not in arrays]
    return sorted(differ + [name for name in others if getattr(a, name) != getattr(b, name)])


class TestGeneration:
    def test_same_seed_is_bit_identical(self, vt_pipeline):
        a = generate_landscape(seed=5, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS)
        b = generate_landscape(seed=5, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS)
        assert differing_fields(a, b) == []

    def test_different_seed_differs(self, vt_pipeline):
        a = generate_landscape(seed=5, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS)
        b = generate_landscape(seed=6, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS)
        assert "stratum_base" in differing_fields(a, b)

    def test_array_fields_are_read_only(self, vt_landscape):
        arrays = landscape_arrays(vt_landscape)
        assert len(arrays) == len(ARRAY_FIELDS) + 2 * len(vt_landscape.pipeline) - 1
        assert vt_landscape.case_stratum.dtype == np.intp and vt_landscape.case_features.shape == (N_CASES, 2)
        for name, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0
            assert not array.flags.writeable, name

    def test_a_drifted_copy_shares_the_arrays_and_starts_with_empty_caches(self, vt_pipeline):
        land = generate_landscape(seed=5, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS)
        land.accuracy_means([(0, 0, 0)])
        land.case_rows((0, 0, 0))
        land.timings_for((0, 0, 0))
        drifted = land.with_accuracy_shift(0.1)
        shared = landscape_arrays(drifted)
        for name, array in landscape_arrays(land).items():
            assert shared[name] is array, name
        assert drifted._means_cache == drifted._rows_cache == drifted._timings_cache == {}
        assert len(land._means_cache) == len(land._rows_cache) == len(land._timings_cache) == 1
        assert differing_fields(land, drifted) == ["accuracy_offset"]

    def test_monotone_argmax_is_max_cost_config(self, vt_pipeline):
        land = generate_landscape(seed=9, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, difficulty="monotone")
        configs = list(all_configs(vt_pipeline))
        best = max(configs, key=land.accuracy_mean)
        max_cost = tuple(len(op.knob_domain) - 1 for op in vt_pipeline.operators)
        assert best == max_cost
        # compute time is also maximal there, option by option
        for i, c in enumerate(max_cost):
            assert land.op_base_time_s[i][c] == max(land.op_base_time_s[i])

    def test_rugged_landscape_has_few_near_best_plans(self):
        # 6.5K-plan scale; accuracy ignores placement/resources, so the full
        # sweep reduces to the 648-configuration sweep
        from tierplan.presets import wide_search_pipeline

        pipe = wide_search_pipeline()
        land = generate_landscape(seed=9, pipeline=pipe, tier_speed_factors=TIER_SPEEDS, difficulty="rugged")
        accs = [land.accuracy_mean(c) for c in all_configs(pipe)]
        best = max(accs)
        frac = sum(1 for a in accs if a >= best - 0.01) / len(accs)
        assert 0 < frac < 0.15

    def test_weights_sum_to_one_and_strata_nonempty(self, vt_landscape):
        assert sum(vt_landscape.stratum_weights) == pytest.approx(1.0)
        counts = np.bincount(vt_landscape.case_stratum, minlength=vt_landscape.k_true)
        assert counts.min() > 0

    @pytest.mark.parametrize("noise_scale", [float("nan"), float("inf"), -0.1])
    def test_noise_scale_must_be_finite_and_non_negative(self, vt_pipeline, noise_scale):
        with pytest.raises(ValueError, match="noise_scale"):
            generate_landscape(seed=5, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, noise_scale=noise_scale)

    def test_timings_are_memoised_per_configuration(self, vt_landscape):
        cfg = (1, 2, 3)
        timings = vt_landscape.timings_for(cfg)
        assert vt_landscape.timings_for(list(cfg)) is timings
        assert timings.base_compute_s == tuple(vt_landscape.op_base_time_s[i][c] for i, c in enumerate(cfg))
        assert timings.output_bytes == tuple(vt_landscape.op_output_bytes[i][c] for i, c in enumerate(cfg))

    def test_accuracy_shift_moves_means(self, vt_landscape):
        drifted = vt_landscape.with_accuracy_shift(-0.15)
        for cfg in [(0, 0, 0), (2, 3, 4), (1, 2, 0)]:
            assert drifted.accuracy_mean(cfg) == pytest.approx(
                max(vt_landscape.accuracy_mean(cfg) - 0.15, 0.005), abs=1e-9
            )


    def test_drift_after_warm_cache_moves_means(self, vt_pipeline):
        land = generate_landscape(seed=11, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS)
        cfgs = [(0, 0, 0), (2, 3, 4), (1, 2, 0)]
        before = {c: land.case_rows(c)[0] for c in cfgs}  # warms the mean cache
        drifted = land.with_accuracy_shift(-0.15)
        for c, mu in before.items():
            assert drifted.case_rows(c)[0] == pytest.approx(np.maximum(mu - 0.15, 0.005), abs=1e-12)
            assert np.array_equal(land.case_rows(c)[0], mu)  # the original is untouched

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=3), min_size=1, max_size=6), st.floats(-0.6, 0.6))
    def test_cached_accuracy_mean_is_the_mixture_before_and_after_a_shift(self, vt_landscape, picks, delta):
        domains = [len(op.knob_domain) for op in vt_landscape.pipeline.operators]
        configs = [tuple(i % d for i, d in zip(pick, domains)) for pick in picks]

        before = {cfg: scalar_accuracy_mean(vt_landscape, cfg) for cfg in configs}
        for cfg in configs:
            assert vt_landscape.accuracy_mean(cfg) == before[cfg]
            assert vt_landscape.accuracy_mean(list(cfg)) == before[cfg]
        drifted = vt_landscape.with_accuracy_shift(delta)
        for cfg in configs:
            assert drifted.accuracy_mean(cfg) == scalar_accuracy_mean(drifted, cfg)
            assert vt_landscape.accuracy_mean(cfg) == before[cfg]


class TestStratumMeans:
    """The vectorised ground truth against the scalar reference, bit for bit."""

    @pytest.mark.parametrize("offset", [-1.0, -0.37, 0.0, 0.37, 1.0])
    @pytest.mark.parametrize("name", sorted(PIPELINE_TEMPLATES))
    def test_equal_the_scalar_reference_bitwise(self, name, offset):
        pipe = PIPELINE_TEMPLATES[name]()
        configs = list(all_configs(pipe))
        for seed, difficulty in ((0, "rugged"), (1, "mixed"), (2, "monotone"), (3, 0.8)):
            land = generate_landscape(seed, pipe, speed_factors_for(3), difficulty=difficulty)
            land = land.with_accuracy_shift(offset)
            want = np.array([[scalar_stratum_mean(land, k, c) for c in configs] for k in range(land.k_true)])
            got = land.stratum_means(configs)
            assert got.dtype == np.float64 and np.array_equal(got, want)
            assert land.accuracy_means(configs) == [scalar_accuracy_mean(land, c) for c in configs]
            fresh = dataclasses.replace(land)  # the one-configuration path
            c = configs[seed * 7 % len(configs)]
            assert fresh.accuracy_mean(c) == scalar_accuracy_mean(land, c)
            assert fresh._means_cache[c][0].tolist() == want[:, configs.index(c)].tolist()
            assert fresh.case_rows(c)[0].tolist() == [scalar_stratum_mean(land, k, c) for k in land.case_stratum]
        if offset == 1.0:  # each clip bound is reached at its offset
            assert np.any(got == _CLIP_HI)
        if offset == -1.0:
            assert np.any(got == _CLIP_LO)

    def test_repeats_and_hits_read_one_cache_entry(self, vt_landscape):
        configs = [(0, 0, 0), (2, 3, 4), (0, 0, 0)]
        first = vt_landscape.accuracy_means(configs)
        assert first[0] == first[2] and len(vt_landscape._means_cache) >= 2
        row, accuracy = vt_landscape._means_cache[(2, 3, 4)]
        assert not row.flags.writeable and accuracy == first[1]
        assert vt_landscape.accuracy_means([[2, 3, 4]]) == [first[1]]


def cases_in(land, strata):
    """One case index per entry of ``strata`` (true stratum ids): the first
    case of that stratum."""
    first = np.array([np.flatnonzero(land.case_stratum == k)[0] for k in range(land.k_true)])
    return first[strata]


def case_values(land, cfg, cases, rng):
    """The profilers' case-value draw at ``cases``, into fresh arrays."""
    mu, sigma = land.case_rows(cfg)
    return _case_values(mu, sigma, cases, rng, np.empty(len(cases)), np.empty(len(cases)))


class TestSampleCase:
    """Case draws of the profilers' ``_case_values``: one per entry of an
    array of case ids."""

    def test_zero_variance_draws_equal_mean(self, vt_pipeline):
        land = generate_landscape(seed=2, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, noise_scale=0.0)
        cfg = (1, 1, 1)
        draws = case_values(land, cfg, cases_in(land, np.zeros(20, dtype=int)), np.random.default_rng(0))
        assert draws.shape == (20,) and np.all(draws == scalar_stratum_mean(land, 0, cfg))

    def test_clt_bound_on_sample_mean(self, vt_landscape):
        cfg = (2, 1, 0)
        n = 100_000
        mu = scalar_stratum_mean(vt_landscape, 1, cfg)
        sigma = vt_landscape.stratum_sigma[1]
        cases = cases_in(vt_landscape, np.ones(n, dtype=int))
        draws = case_values(vt_landscape, cfg, cases, np.random.default_rng(3))
        assert abs(np.mean(draws) - mu) <= 3 * sigma / np.sqrt(n)

    def test_weighted_mixture_mean(self, vt_landscape):
        # Strategy-B style simulation: draw n*p_k cases from each stratum
        cfg = (0, 2, 3)
        n = 40_000
        counts = [int(round(n * p)) for p in vt_landscape.stratum_weights]
        cases = cases_in(vt_landscape, np.repeat(np.arange(vt_landscape.k_true), counts))
        total = float(case_values(vt_landscape, cfg, cases, np.random.default_rng(7)).sum())
        expected = scalar_accuracy_mean(vt_landscape, cfg)
        assert abs(total / n - expected) < 0.002

    @pytest.mark.parametrize("noise_scale", [0.0, 0.05, 0.4])
    def test_equals_the_reference_draw_bitwise(self, vt_pipeline, noise_scale):
        # noise 0.4 puts many draws outside [0, 1], so the clip is exercised
        land = generate_landscape(seed=8, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, noise_scale=noise_scale)
        cases = np.random.default_rng(5).integers(N_CASES, size=500)
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        for cfg in ((0, 0, 0), (2, 3, 4), (1, 2, 0)):
            got = case_values(land, cfg, cases, got_rng)
            want = sample_cases(land, cfg, cases, want_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_accuracy_invariant_to_placement_and_resources(self, vt_landscape):
        cfg = (1, 3, 2)
        a = PlanPoint(cfg, (0, 0, 0), (1.0, 1.0, 1.0))
        b = PlanPoint(cfg, (0, 1, 2), (0.125, 0.25, 0.5))
        # a plan's accuracy draws go through its configuration only
        da = [profile_plan_fixed_n(a, vt_landscape, 60, NullCache(), 0.5, np.random.default_rng(s)) for s in range(5)]
        db = [profile_plan_fixed_n(b, vt_landscape, 60, NullCache(), 0.5, np.random.default_rng(s)) for s in range(5)]
        assert [o.accuracy_estimate for o in da] == [o.accuracy_estimate for o in db]  # bitwise identical


class TestTruePareto:
    def test_unreachable_accuracy_gives_empty_set(self, vt_landscape, vt_pipeline, topology):
        q = Query("q", vt_pipeline, a_slo=1.0, l_slo=100.0, response_budget_s=1.0)
        assert true_pareto_set(vt_landscape, topology, q) == []

    def test_single_plan_space(self):
        ops = (OperatorSpec(0, ("only",), is_batching=True, base_output_size=1e4),)
        pipe = PipelineSpec("one", ops, ())
        tiers = (Tier("cloud", 1, 1.0, 1.0),)
        topo = TierTopology(tiers, ((100.0,),), ((0.0,),))
        land = generate_landscape(seed=1, pipeline=pipe, tier_speed_factors=(1.0,), noise_scale=0.0)
        mu = land.accuracy_mean((0,))
        q = Query("q", pipe, a_slo=mu - 0.01, l_slo=10.0, response_budget_s=1.0)
        result = true_pareto_set(land, topo, q)
        # batching op: all four fractions tie on latency, cheapest wins
        assert len(result) == 1
        assert result[0].resources == (0.125,)

    def test_matches_hand_enumeration(self, two_tier_topology):
        ops = (
            OperatorSpec(0, ("a0", "a1"), base_output_size=1e5),
            OperatorSpec(1, ("b0", "b1"), base_output_size=1e4),
        )
        pipe = PipelineSpec("hand", ops, ((0, 1),))
        land = generate_landscape(seed=4, pipeline=pipe, tier_speed_factors=(3.0, 1.0), noise_scale=0.0)
        q = Query("q", pipe, a_slo=0.3, l_slo=0.5, response_budget_s=1.0)
        got = set(true_pareto_set(land, two_tier_topology, q))
        # independent n^2 dominance check over the exhaustive sweep
        rows = []
        for plan in enumerate_plan_space(pipe, two_tier_topology):
            acc = land.accuracy_mean(plan.configuration)
            lat = pipeline_latency(
                plan, pipe, two_tier_topology, land.timings_for(plan.configuration)
            )
            if acc >= q.a_slo and lat <= q.l_slo:
                rows.append((plan, plan_hourly_cost(plan, two_tier_topology), lat))
        expected = set()
        for i, (plan, c, l) in enumerate(rows):
            dominated = any(
                (c2 <= c and l2 <= l and (c2 < c or l2 < l)) for j, (_, c2, l2) in enumerate(rows) if j != i
            )
            duplicate = any((c2 == c and l2 == l) for _, c2, l2 in rows[:i])
            if not dominated and not duplicate:
                expected.add(plan)
        assert got == expected
        assert len(got) > 0

    def test_refuses_oversized_space(self, vt_landscape, vt_pipeline, topology):
        q = Query("q", vt_pipeline, a_slo=0.5, l_slo=1.0, response_budget_s=1.0)
        with pytest.raises(SpaceTooLargeError, match="38400"):
            true_pareto_set(vt_landscape, topology, q, max_plans=100)


@st.composite
def frontier_instances(draw):
    """A landscape and topology whose frontier has exact key ties: a DAG of
    1-4 operators (forward edges, possibly several sources and fan-in, some
    batching) with 1-3 options each and input bytes 0 or not; 1-4 tiers of
    equal or cloudward-rising speeds, symmetric bandwidths and asymmetric
    link latencies, maybe drifted; compute times and output sizes often
    from a few values; maybe an accuracy shift that clips every mean to one
    value."""
    n = draw(st.integers(1, 4))
    edges = {(u, v) for v in range(1, n) for u in range(v) if draw(st.booleans())}
    edges |= {(u, n - 1) for u in range(n - 1) if not any(a == u for a, _ in edges)}
    ops = tuple(
        OperatorSpec(i, tuple(f"o{j}" for j in range(draw(st.integers(1, 3)))), is_batching=draw(st.booleans()))
        for i in range(n)
    )
    pipe = PipelineSpec("p", ops, tuple(sorted(edges)), input_bytes=draw(st.sampled_from([0.0, 3e4, 2e6])))
    t = draw(st.integers(1, 4))
    bw = [[0.0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i, t):
            bw[i][j] = bw[j][i] = draw(st.sampled_from([50.0, 400.0, 25_000.0]))
    t0 = tuple(tuple(draw(st.sampled_from([0.0, 0.001, 0.005])) for _ in range(t)) for _ in range(t))
    topo = TierTopology(tuple(Tier(f"t{i}", 2, 1.0, 1.0 + i) for i in range(t)), tuple(map(tuple, bw)), t0)
    if draw(st.booleans()):
        topo = topo.with_bandwidth_scaled((draw(st.integers(0, t - 1)), t - 1), draw(st.sampled_from([0.3, 2.0])))
    speeds = sorted(draw(st.lists(st.sampled_from([1.0, 2.5, 8.0]), min_size=t, max_size=t)), reverse=True)
    times = st.sampled_from([0.0, 0.001, 0.004]) | st.floats(0.0, 0.01)
    sizes = st.sampled_from([1e4, 8e5]) | st.floats(1.0, 1e6)
    land = dataclasses.replace(
        generate_landscape(draw(st.integers(0, 10**6)), pipe, tier_speed_factors=speeds),
        op_base_time_s=tuple(tuple(draw(times) for _ in op.knob_domain) for op in ops),
        op_output_bytes=tuple(tuple(draw(sizes) for _ in op.knob_domain) for op in ops),
    )
    return land.with_accuracy_shift(draw(st.sampled_from([0.0, 0.0, 2.0]))), topo


def frontier_bits(frontier):
    return [(plan, acc.hex(), lat.hex()) for plan, acc, lat in frontier]


class TestQualityLatencyFrontier:
    @settings(max_examples=200, deadline=None)
    @given(frontier_instances())
    def test_matches_the_per_plan_reference_bitwise(self, instance):
        land, topo = instance
        got = quality_latency_frontier(land, topo)
        assert all(type(a) is float and type(lat) is float for _, a, lat in got)
        assert frontier_bits(got) == frontier_bits(per_plan_frontier(dataclasses.replace(land), topo))

    @pytest.mark.parametrize("name", sorted(PIPELINE_TEMPLATES))
    def test_presets_match_the_per_plan_reference_bitwise(self, name):
        pipe, topo = PIPELINE_TEMPLATES[name](), default_topology()
        land = generate_landscape(seed=3, pipeline=pipe, tier_speed_factors=speed_factors_for(3))
        got = quality_latency_frontier(land, topo)
        assert frontier_bits(got) == frontier_bits(per_plan_frontier(dataclasses.replace(land), topo))
        # every configuration's mean is cached, as the run reads it
        assert all(c in land._means_cache for c in all_configs(pipe))

    def test_oversized_pool_is_refused_before_any_plan_is_built(self, topology, monkeypatch):
        # 5^6 configurations x C(3 + 6 - 1, 6) = 28 placements = 437,500 plans
        ops = tuple(OperatorSpec(i, tuple("abcde")) for i in range(6))
        pipe = PipelineSpec("chain-6x5", ops, tuple((i, i + 1) for i in range(5)))
        land = generate_landscape(seed=1, pipeline=pipe, tier_speed_factors=TIER_SPEEDS)
        built = []
        monkeypatch.setattr(PlanPoint, "__post_init__", lambda self: built.append(self))
        monkeypatch.setattr(np, "indices", lambda *a: built.append(a))
        with pytest.raises(SpaceTooLargeError, match=f"437500 plans, exhaustive cap is {SEARCH_POOL_MAX_PLANS}"):
            quality_latency_frontier(land, topology)
        assert built == []
        assert land._means_cache == {}


class TestTrace:
    def test_arrivals_non_decreasing(self, vt_landscape, topology):
        trace = generate_trace(
            {"visual-tracking": vt_landscape},
            topology,
            duration_s=60.0,
            load=1.0,
            burst_factor=2.0,
            seed=5,
        )
        times = [e.arrival_time for e in trace.entries]
        assert times == sorted(times)
        assert len(trace.entries) > 0

    def test_round_trip(self, vt_landscape, topology):
        trace = generate_trace({"visual-tracking": vt_landscape}, topology, duration_s=30.0, seed=1)
        obj = {"schema_version": SCHEMA_VERSION, "entries": [dataclasses.asdict(e) for e in trace.entries]}
        back = ArrivalTrace.from_dict(json.loads(json.dumps(obj)))
        assert back == trace

    def test_hardness_scales_slo_draws(self, vt_landscape, topology):
        frontier = quality_latency_frontier(vt_landscape, topology)
        accs = {round(a, 9) for _, a, _ in frontier}
        for hardness, (lat_mult, acc_mult) in SLO_HARDNESS.items():
            trace = generate_trace(
                {"visual-tracking": vt_landscape},
                topology,
                duration_s=40.0,
                hardness=hardness,
                seed=3,
            )
            for e in trace.entries:
                assert any(abs(e.a_slo - min(1.0, acc_mult * a)) < 1e-9 for a in accs)

    def test_rejects_bad_version(self):
        with pytest.raises(SchemaError):
            ArrivalTrace.from_dict({"entries": []})

    def test_out_of_order_arrivals_rejected(self):
        from tierplan.landscape import TraceEntry

        entries = (
            TraceEntry(arrival_time=5.0, template="x", a_slo=0.5, l_slo=1.0, lifespan=10.0),
            TraceEntry(arrival_time=1.0, template="x", a_slo=0.5, l_slo=1.0, lifespan=10.0),
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            ArrivalTrace(entries=entries)


class TestSiblings:
    def test_perturbed_sibling_shares_structure(self, vt_pipeline):
        parent = generate_landscape(seed=20, pipeline=vt_pipeline, tier_speed_factors=TIER_SPEEDS, difficulty="rugged")
        child = sibling_landscape(parent, seed=21, perturbation=0.1)
        configs = list(all_configs(vt_pipeline))
        pa = np.array([parent.accuracy_mean(c) for c in configs])
        ch = np.array([child.accuracy_mean(c) for c in configs])
        corr = np.corrcoef(pa, ch)[0, 1]
        assert corr > 0.9
        assert not np.allclose(pa, ch)
