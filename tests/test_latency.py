import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_paths_latency, true_pareto_set
from tierplan.latency import (
    DEFAULT_GPU_PRICE_PER_HOUR,
    OperatorTimings,
    compute_time,
    longest_path,
    pipeline_latency,
    plan_hourly_cost,
    plan_latency,
    transfer_time,
)
from tierplan.model import RESOURCE_FRACTIONS, OperatorSpec, PipelineSpec, PlanPoint, Query, Tier, TierTopology
from tierplan.landscape import generate_landscape, quality_latency_frontier
from tierplan.profiler import NullCache, PrefixCache, profile_plan, profile_plan_fixed_n, stratify
from tierplan.search import pareto_optimize, single_query_search

MBIT = 125_000.0  # bytes in one megabit


def make_topology(bw, t0=0.0, num_tiers=3):
    tiers = tuple(Tier(f"t{i}", 2, 1.0, 1.0 + i) for i in range(num_tiers))
    bwm = tuple(tuple(bw for _ in range(num_tiers)) for _ in range(num_tiers))
    t0m = tuple(tuple(t0 for _ in range(num_tiers)) for _ in range(num_tiers))
    return TierTopology(tiers=tiers, bandwidth_mbps=bwm, link_latency_s=t0m)


class TestTransferTime:
    def test_fifty_mbit_over_fifty_mbps(self):
        assert transfer_time(50 * MBIT, 50.0) == 1.0

    def test_co_located_is_free(self):
        assert transfer_time(50 * MBIT, 50.0, t0_s=0.5, co_located=True) == 0.0

    def test_wan_link_with_fixed_latency(self):
        # 400 Mbit over the 400 Mbps edge-cloud link plus 20 ms setup
        assert transfer_time(400 * MBIT, 400.0, t0_s=0.02) == pytest.approx(1.02, abs=1e-12)

    def test_array_sizes_give_elementwise_values(self):
        sizes = np.array([50 * MBIT, 0.0, 3e4])
        got = transfer_time(sizes, 50.0, t0_s=0.005)
        assert got.tolist() == [transfer_time(float(x), 50.0, t0_s=0.005) for x in sizes]


class TestComputeTime:
    def test_quarter_resource_quadruples_time(self):
        assert compute_time(1.0, 0.25, 1.0, is_batching=False) == 4.0

    def test_batching_keeps_full_flops(self):
        assert compute_time(1.0, 0.25, 1.0, is_batching=True) == 1.0

    def test_slow_tier_scales_linearly(self):
        assert compute_time(2.0, 1.0, 3.0) == 6.0

    @pytest.mark.parametrize("is_batching", [False, True])
    def test_array_base_gives_elementwise_values(self, is_batching):
        base = np.array([0.2, 0.0, 0.0031])
        got = compute_time(base, 0.5, 2.0, is_batching)
        assert got.tolist() == [compute_time(float(b), 0.5, 2.0, is_batching) for b in base]

    def test_monotone_in_fraction_and_homogeneous_in_base(self):
        times = [compute_time(1.0, f, 2.0) for f in (1.0, 0.5, 0.25, 0.125)]
        assert times == sorted(times)
        assert compute_time(3.5, 0.5, 2.0) == pytest.approx(3.5 * compute_time(1.0, 0.5, 2.0))


def path_weights(plan, pipe, topo, timings):
    """Per-operator compute and per-edge transfer seconds of a plan."""
    node = [
        compute_time(timings.base_compute_s[i], plan.resources[i], timings.tier_speed_factors[plan.placement[i]])
        for i in range(len(pipe))
    ]
    edge = {}
    for u, v in pipe.edges:
        tu, tv = plan.placement[u], plan.placement[v]
        edge[(u, v)] = transfer_time(
            timings.output_bytes[u], topo.bandwidth_mbps[tu][tv], topo.link_latency_s[tu][tv], co_located=(tu == tv)
        )
    return node, edge


def linear_chain(n):
    ops = tuple(OperatorSpec(i, ("x",), base_output_size=1e5) for i in range(n))
    return PipelineSpec("chain", ops, tuple((i, i + 1) for i in range(n - 1)))


class TestInputsCheckedWhereBuilt:
    """The latency model reads its inputs unchecked: the landscape, the
    topology and the pipeline refuse bad ones at construction."""

    @pytest.mark.parametrize("speeds", [(9.0, 0.0, 1.0), (9.0, 3.0, -1.0), (float("nan"), 3.0, 1.0)])
    def test_landscape_refuses_a_speed_factor_not_above_zero(self, vt_pipeline, speeds):
        with pytest.raises(ValueError, match="tier speed factors must be > 0"):
            generate_landscape(seed=3, pipeline=vt_pipeline, tier_speed_factors=speeds)

    @pytest.mark.parametrize("name", ["op_base_time_s", "op_output_bytes"])
    def test_landscape_refuses_a_negative_time_or_byte_count(self, vt_landscape, name):
        rows = [list(row) for row in getattr(vt_landscape, name)]
        rows[1][2] = -1e-9
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            dataclasses.replace(vt_landscape, **{name: tuple(map(tuple, rows))})
        rows[1][2] = 0.0  # zero is a valid time and byte count
        dataclasses.replace(vt_landscape, **{name: tuple(map(tuple, rows))})

    def test_topology_refuses_a_zero_bandwidth(self):
        tiers = (Tier("edge", 1, 1.0, 1.0), Tier("cloud", 1, 1.0, 2.0))
        with pytest.raises(ValueError, match=r"bandwidth\[0\]\[1\] must be > 0"):
            TierTopology(tiers, ((1000.0, 0.0), (0.0, 1000.0)), ((0.0, 0.0), (0.0, 0.0)))


class TestPipelineLatency:
    def test_linear_chain_sums_compute_and_transfer(self):
        pipe = linear_chain(3)
        topo = make_topology(bw=100.0, t0=0.01)
        plan = PlanPoint((0, 0, 0), (0, 1, 2), (1.0, 1.0, 1.0))
        timings = OperatorTimings((0.1, 0.2, 0.3), (10 * MBIT, 5 * MBIT, MBIT), (2.0, 1.5, 1.0))
        got = pipeline_latency(plan, pipe, topo, timings)
        expected = (
            0.1 * 2.0
            + (10 * MBIT * 8 / 1e6) / 100.0
            + 0.01
            + 0.2 * 1.5
            + (5 * MBIT * 8 / 1e6) / 100.0
            + 0.01
            + 0.3
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_diamond_takes_heavy_branch(self):
        ops = tuple(OperatorSpec(i, ("x",), base_output_size=1e4) for i in range(4))
        pipe = PipelineSpec("diamond", ops, ((0, 1), (0, 2), (1, 3), (2, 3)))
        topo = make_topology(bw=1000.0)
        plan = PlanPoint((0,) * 4, (0, 0, 0, 0), (1.0,) * 4)
        timings = OperatorTimings((0.1, 5.0, 0.2, 0.1), (1e4,) * 4, (1.0, 1.0, 1.0))
        got = pipeline_latency(plan, pipe, topo, timings)
        assert got == all_paths_latency(plan, pipe, topo, timings)
        # all co-located, so the total is the compute of the heavy branch 0 -> 1 -> 3
        assert got == pytest.approx(0.1 + 5.0 + 0.1, rel=1e-12)

    def test_moving_cloudward_adds_exactly_l_over_b(self):
        pipe = linear_chain(2)
        topo = make_topology(bw=50.0, t0=0.0)
        timings = OperatorTimings((0.1, 0.1), (50 * MBIT, MBIT), (1.0, 1.0, 1.0))
        same = pipeline_latency(PlanPoint((0, 0), (1, 1), (1.0, 1.0)), pipe, topo, timings)
        split = pipeline_latency(PlanPoint((0, 0), (1, 2), (1.0, 1.0)), pipe, topo, timings)
        assert split - same == pytest.approx(1.0, abs=1e-12)

    def test_total_equals_sum_along_heaviest_path(self):
        pipe = linear_chain(3)
        topo = make_topology(bw=100.0, t0=0.003)
        plan = PlanPoint((0, 0, 0), (0, 0, 2), (0.5, 1.0, 0.25))
        timings = OperatorTimings((0.05, 0.1, 0.2), (2e5, 3e5, 1e4), (2.0, 1.5, 1.0))
        node, edge = path_weights(plan, pipe, topo, timings)
        total = sum(node[i] for i in (0, 1, 2))
        total += edge[(0, 1)] + edge[(1, 2)]
        assert pipeline_latency(plan, pipe, topo, timings) == pytest.approx(total, rel=1e-12)

    def test_longest_path_bounds_every_random_path(self):
        rng = np.random.default_rng(4)
        ops = tuple(OperatorSpec(i, ("x",), base_output_size=1e4) for i in range(6))
        edges = [(i, i + 1) for i in range(5)] + [(0, 2), (1, 4), (2, 5)]
        pipe = PipelineSpec("dag", ops, tuple(edges))
        topo = make_topology(bw=500.0)
        plan = PlanPoint((0,) * 6, (0, 0, 1, 1, 2, 2), (1.0,) * 6)
        timings = OperatorTimings(tuple(rng.uniform(0.01, 0.5, 6)), tuple(rng.uniform(1e4, 1e6, 6)), (3.0, 2.0, 1.0))
        got = pipeline_latency(plan, pipe, topo, timings)
        node_w, edge_w = path_weights(plan, pipe, topo, timings)
        # sample a few random root-to-sink paths and sum them explicitly
        succ = {i: [v for u, v in edges if u == i] for i in range(6)}
        for _ in range(50):
            node, acc = 0, node_w[0]
            while succ[node]:
                nxt = succ[node][int(rng.integers(len(succ[node])))]
                acc += edge_w[(node, nxt)] + node_w[nxt]
                node = nxt
            assert got >= acc - 1e-12

    def test_random_dags_match_all_paths_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(60):
            n = int(rng.integers(2, 11))
            edges = [(i, i + 1) for i in range(n - 1)]
            for u in range(n - 2):
                for v in range(u + 2, n):
                    if rng.uniform() < 0.25:
                        edges.append((u, v))
            ops = tuple(OperatorSpec(i, ("x",), base_output_size=1e4) for i in range(n))
            pipe = PipelineSpec(f"r{trial}", ops, tuple(sorted(set(edges))))
            topo = make_topology(bw=float(rng.uniform(10, 1000)), t0=float(rng.uniform(0, 0.01)))
            placement = tuple(sorted(int(rng.integers(3)) for _ in range(n)))
            fracs = (1.0, 0.5, 0.25, 0.125)
            plan = PlanPoint(
                (0,) * n, placement, tuple(fracs[int(rng.integers(4))] for _ in range(n))
            )
            timings = OperatorTimings(
                tuple(rng.uniform(0.001, 0.3, n)),
                tuple(rng.uniform(1e3, 1e6, n)),
                (4.0, 2.0, 1.0),
            )
            assert pipeline_latency(plan, pipe, topo, timings) == all_paths_latency(plan, pipe, topo, timings)


class TestProfilingCost:
    """Profiling is charged per sampled case (ProfileOutcome.profiling_cost,
    via the cache's charge) and priced per GPU-hour by the search."""

    def test_zero_cases_zero_cost(self, vt_pipeline, vt_landscape, topology):
        q = Query("z", vt_pipeline, a_slo=0.5, l_slo=1.0, response_budget_s=0.0)
        res = single_query_search(q, vt_landscape, topology, seed=0)
        assert (res.gpu_seconds, res.dollars) == (0.0, 0.0)

    def test_full_prefix_hit_costs_nothing(self, vt_landscape):
        plan = PlanPoint((1, 2, 3), (0, 1, 2), (1.0, 1.0, 1.0))
        cache = PrefixCache()
        outs = [
            profile_plan(plan, vt_landscape, stratify(vt_landscape.case_features, 4), cache, 0.5, np.random.default_rng(4))
            for _ in range(2)
        ]
        assert outs[0].profiling_cost > 0.0
        # the same cases drawn again are fully cached
        assert outs[1].samples_used == outs[0].samples_used
        assert outs[1].profiling_cost == 0.0

    def test_hundred_half_second_cases_at_a100_price(self, vt_pipeline, vt_landscape, topology):
        gpu_s = NullCache().charge((0, 0), np.arange(100), (0.2, 0.3))
        assert gpu_s == pytest.approx(50.0)
        assert gpu_s / 3600.0 * DEFAULT_GPU_PRICE_PER_HOUR == pytest.approx(0.051, abs=5e-4)
        plan = PlanPoint((1, 2, 3), (0, 1, 2), (1.0, 1.0, 1.0))
        per_case = sum(vt_landscape.timings_for(plan.configuration).base_compute_s)
        out = profile_plan_fixed_n(plan, vt_landscape, 100, NullCache(), 0.5, np.random.default_rng(0))
        assert out.profiling_cost == pytest.approx(100 * per_case)
        # the search prices its charged GPU-seconds at the reference tier's A100 rate
        q = Query("p", vt_pipeline, a_slo=0.5, l_slo=1.0, response_budget_s=0.5)
        res = single_query_search(q, vt_landscape, topology, seed=0)
        assert res.gpu_seconds > 0
        assert res.dollars == pytest.approx(res.gpu_seconds / 3600.0 * 3.67)


class TestPlanCost:
    def test_sums_fraction_weighted_unit_costs(self):
        topo = make_topology(bw=100.0)
        plan = PlanPoint((0, 0), (0, 2), (0.5, 0.25))
        # tiers cost 1.0, 2.0, 3.0 per unit-hour with capacity 1.0
        assert plan_hourly_cost(plan, topo) == pytest.approx(0.5 * 1.0 + 0.25 * 3.0)


@st.composite
def placed_pipelines(draw):
    """A random DAG on up to 6 operators (a chain plus forward fan-in edges,
    some batching), a topology of 2 or 3 tiers, timings, one placement, a few
    resource vectors and a sequence of bandwidth drifts."""
    n = draw(st.integers(1, 6))
    num_tiers = draw(st.integers(2, 3))
    extra = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(u, v) for u in range(n - 2) for v in range(u + 2, n) if extra[u * n + v]]
    batching = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ops = tuple(OperatorSpec(i, ("x",), is_batching=b, base_output_size=1e4) for i, b in enumerate(batching))
    pipe = PipelineSpec("p", ops, tuple(sorted(edges)), input_bytes=draw(st.sampled_from([0.0, 3e4, 1e6])))
    positive = st.floats(1.0, 5_000.0, allow_nan=False)
    bw = [[0.0] * num_tiers for _ in range(num_tiers)]
    for i in range(num_tiers):
        for j in range(i, num_tiers):
            bw[i][j] = bw[j][i] = draw(positive)
    t0 = tuple(tuple(0.001 * (i != j) for j in range(num_tiers)) for i in range(num_tiers))
    tiers = tuple(Tier(f"t{i}", 2, 1.0, 1.0 + i) for i in range(num_tiers))
    topo = TierTopology(tiers, tuple(tuple(r) for r in bw), t0)
    timings = OperatorTimings(
        tuple(draw(st.lists(st.floats(0.0, 0.3), min_size=n, max_size=n))),
        tuple(draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))),
        tuple(draw(st.lists(st.floats(0.5, 4.0), min_size=num_tiers, max_size=num_tiers))),
    )
    placement = tuple(sorted(draw(st.lists(st.integers(0, num_tiers - 1), min_size=n, max_size=n))))
    fractions = st.lists(st.sampled_from(RESOURCE_FRACTIONS), min_size=n, max_size=n).map(tuple)
    resources = draw(st.lists(fractions, min_size=1, max_size=4))
    tier = st.integers(0, num_tiers - 1)
    drifts = draw(st.lists(st.tuples(tier, tier, st.floats(0.01, 100.0)), max_size=4))
    return pipe, topo, timings, placement, resources, drifts


class TestArrayTimings:
    @settings(max_examples=150, deadline=None)
    @given(placed_pipelines(), st.data())
    def test_array_columns_give_each_scalar_latency_bitwise(self, case, data):
        # one DP over K configurations' compute and output-byte columns, as
        # the quality-latency frontier runs it, against K scalar DPs
        pipe, topo, timings, placement, resources, _ = case
        n, k = len(pipe), data.draw(st.integers(1, 5))
        column = st.lists(st.floats(0.0, 0.3) | st.sampled_from([0.0, 0.001]), min_size=k, max_size=k)
        base = [np.array(data.draw(column)) for _ in range(n)]
        sizes = [np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=k, max_size=k))) for _ in range(n)]
        speed = timings.tier_speed_factors
        arrays = OperatorTimings(tuple(base), tuple(sizes), speed)
        for r in resources:
            node_w = [
                compute_time(base[i], r[i], speed[placement[i]], pipe.operators[i].is_batching) for i in range(n)
            ]
            got = longest_path(node_w, placement, pipe, topo, arrays)
            want = [
                pipeline_latency(
                    PlanPoint((0,) * n, placement, r),
                    pipe,
                    topo,
                    OperatorTimings(tuple(float(b[j]) for b in base), tuple(float(s[j]) for s in sizes), speed),
                )
                for j in range(k)
            ]
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


class TestPlanLatencyMemo:
    @settings(max_examples=150, deadline=None)
    @given(placed_pipelines())
    def test_memoized_latency_is_pipeline_latency_across_drifts(self, case):
        pipe, topo, timings, placement, resources, drifts = case
        plans = [PlanPoint((0,) * len(pipe), placement, r) for r in resources]
        full = PlanPoint((0,) * len(pipe), placement, (1.0,) * len(pipe))
        for link in [None, *drifts]:
            if link is not None:
                topo = topo.with_bandwidth_scaled(link[:2], link[2])
                assert topo._memo == {}
            for plan in plans:
                expected = pipeline_latency(plan, pipe, topo, timings)
                assert plan_latency(plan, pipe, topo, timings) == expected  # a miss
                assert plan_latency(plan, pipe, topo, timings) == expected  # a hit
            # Pareto rows, memoized on the same topology, carry the same
            # latencies; the fixed SLO repeats a row key across drifts
            for l_slo in (2.0 * pipeline_latency(full, pipe, topo, timings) + 1e-9, 1e6):
                for p, _, lat in pareto_optimize(full, pipe, topo, timings, l_slo):
                    assert lat == plan_latency(p, pipe, topo, timings) == pipeline_latency(p, pipe, topo, timings)

    def test_timings_get_their_own_latencies(self):
        pipe = linear_chain(2)
        topo = make_topology(bw=100.0, t0=0.001)
        plan = PlanPoint((0, 0), (0, 1), (0.5, 1.0))
        slow = OperatorTimings((0.2, 0.1), (1e5, 1e4), (2.0, 1.5, 1.0))
        fast = OperatorTimings((0.02, 0.01), (1e5, 1e4), (2.0, 1.5, 1.0))
        got = [plan_latency(plan, pipe, topo, t) for t in (slow, fast, slow)]
        assert got == [pipeline_latency(plan, pipe, topo, t) for t in (slow, fast, slow)]
        assert got[0] != got[1]

    def test_equal_pipelines_hash_equal_and_share_memo_entries(self):
        a, b = linear_chain(3), linear_chain(3)
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash((a.name, a.operators, a.edges, a.input_bytes))
        renamed = PipelineSpec("other", a.operators, a.edges)
        assert renamed != a
        topo = make_topology(bw=100.0, t0=0.002)
        plan = PlanPoint((0, 0, 0), (0, 1, 2), (1.0, 0.5, 0.25))
        timings = OperatorTimings((0.05, 0.1, 0.2), (2e5, 3e5, 1e4), (2.0, 1.5, 1.0))
        first = plan_latency(plan, a, topo, timings)
        assert plan_latency(plan, b, topo, timings) == first
        assert len(topo._memo) == 1  # b's lookup hit a's entry
        plan_latency(plan, renamed, topo, timings)
        assert len(topo._memo) == 2

    def test_bandwidth_drift_starts_an_empty_memo(self):
        pipe = linear_chain(3)
        topo = make_topology(bw=100.0, t0=0.002)
        plan = PlanPoint((0, 0, 0), (0, 1, 2), (1.0, 0.5, 0.25))
        timings = OperatorTimings((0.05, 0.1, 0.2), (2e5, 3e5, 1e4), (2.0, 1.5, 1.0))
        before = plan_latency(plan, pipe, topo, timings)
        drifted = topo.with_bandwidth_scaled((0, 1), 0.1)
        assert topo._memo and drifted._memo == {}
        after = plan_latency(plan, pipe, drifted, timings)
        assert after == pipeline_latency(plan, pipe, drifted, timings)
        assert after > before
        assert plan_latency(plan, pipe, topo, timings) == before

    def test_pipeline_latency_and_the_oracles_leave_the_memo_empty(self, tiny_pipeline, two_tier_topology):
        land = generate_landscape(seed=4, pipeline=tiny_pipeline, tier_speed_factors=(3.0, 1.0))
        plan = PlanPoint((0, 1), (0, 1), (1.0, 0.5))
        pipeline_latency(plan, tiny_pipeline, two_tier_topology, land.timings_for(plan.configuration))
        frontier = quality_latency_frontier(land, two_tier_topology)
        q = Query("q", tiny_pipeline, a_slo=0.1, l_slo=10.0, response_budget_s=1.0)
        assert frontier and true_pareto_set(land, two_tier_topology, q)
        assert two_tier_topology._memo == {}
