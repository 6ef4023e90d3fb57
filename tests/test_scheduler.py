import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_goodput, brute_force_min_bins
from tierplan.model import (
    GRID,
    RESOURCE_FRACTIONS,
    OperatorSpec,
    PipelineSpec,
    PlanPoint,
    Query,
    SpaceTooLargeError,
    Tier,
    TierTopology,
)
from tierplan.scheduler import (
    DeploymentState,
    OracleInstance,
    age_weights,
    ffd_bin_count,
    greedy_cost,
    greedy_goodput,
    ilp_oracle_limited,
    ilp_oracle_unlimited,
    op_demands,
    oracle_instance_from_candidates,
    random_scheduling_instance,
)
from tierplan.search import CandidatePlan, CandidateSet


def make_query(qid, weight=1.0):
    pipe = PipelineSpec(qid, (OperatorSpec(0, ("x",)),), ())
    return Query(id=qid, pipeline=pipe, a_slo=0.5, l_slo=1.0, response_budget_s=1.0, weight=weight)


def cand(tiers, fracs, topology, latency=0.1):
    plan = PlanPoint((0,) * len(tiers), tuple(sorted(tiers)), tuple(fracs))
    cost = sum(
        f * topology.tiers[t].capacity * topology.tiers[t].unit_cost
        for f, t in zip(plan.resources, plan.placement)
    )
    return CandidatePlan(plan=plan, accuracy_estimate=0.9, latency_s=latency, hourly_cost=cost)


def single_tier_topology(machines=1, capacity=1.0, cost=2.0):
    return TierTopology(
        (Tier("t0", machines, capacity, cost),),
        ((1000.0,),),
        ((0.0,),),
    )


class TestGreedyGoodput:
    def test_everything_fits_everyone_admitted(self, two_tier_topology):
        cands = [
            (make_query(f"q{i}"), CandidateSet((cand([0], [0.25], two_tier_topology),)))
            for i in range(4)
        ]
        state = greedy_goodput(cands, two_tier_topology)
        assert len(state.assignments) == 4

    def test_ratio_order_decides_contention(self):
        topo = single_tier_topology(machines=1)
        q1 = make_query("a", weight=2.0)
        q2 = make_query("b", weight=1.0)
        c1 = CandidateSet((cand([0], [0.5], topo),))
        # 0.5 + 0.5 would fit one machine; make them mutually exclusive
        big1 = CandidateSet((cand([0], [1.0], topo),))
        big2 = CandidateSet((cand([0], [1.0], topo),))
        state = greedy_goodput([(q1, big1), (q2, big2)], topo)
        assert list(state.assignments) == ["a"]

    def test_query_gets_at_most_one_plan(self, two_tier_topology):
        q = make_query("solo")
        cset = CandidateSet(
            (cand([0], [0.25], two_tier_topology), cand([1], [0.25], two_tier_topology))
        )
        state = greedy_goodput([(q, cset)], two_tier_topology)
        assert len(state.assignments) == 1

    def test_capacity_never_negative_and_monotone_in_capacity(self):
        rng = np.random.default_rng(0)
        for seed in range(30):
            small = TierTopology(
                (Tier("a", 1, 1.0, 1.0), Tier("b", 1, 1.0, 2.0)),
                ((100.0, 10.0), (10.0, 100.0)),
                ((0.0, 0.0), (0.0, 0.0)),
            )
            big = TierTopology(
                (Tier("a", 2, 1.0, 1.0), Tier("b", 2, 1.0, 2.0)),
                ((100.0, 10.0), (10.0, 100.0)),
                ((0.0, 0.0), (0.0, 0.0)),
            )
            cands = random_scheduling_instance(seed, small, n_queries=6)
            st_small = greedy_goodput(cands, small)
            st_big = greedy_goodput(cands, big)
            for st in (st_small, st_big):
                for tier in st.units:
                    assert all(u >= 0 for u in tier)
            assert st_big.admitted_weight() >= st_small.admitted_weight() - 1e-9

    def test_optimal_when_all_cr_equal(self, two_tier_topology):
        # every query has one plan, a half-machine operator on a random tier,
        # so all aggregate demands are equal
        for seed in range(25):
            tiers = np.random.default_rng(seed).integers(two_tier_topology.num_tiers, size=7)
            cands = [
                (make_query(f"q{i}"), CandidateSet((cand([int(t)], [0.5], two_tier_topology),)))
                for i, t in enumerate(tiers)
            ]
            got = greedy_goodput(cands, two_tier_topology).admitted_weight()
            inst = oracle_instance_from_candidates(cands, two_tier_topology)
            assert got == pytest.approx(ilp_oracle_limited(inst))

    def test_incremental_admission_respects_existing_state(self):
        topo = single_tier_topology(machines=1)
        state = DeploymentState.fresh(topo)
        q1 = make_query("first")
        greedy_goodput([(q1, CandidateSet((cand([0], [1.0], topo),)))], topo, state=state)
        assert list(state.assignments) == ["first"]
        q2 = make_query("second", weight=100.0)
        greedy_goodput([(q2, CandidateSet((cand([0], [1.0], topo),)))], topo, state=state)
        assert list(state.assignments) == ["first"]  # no eviction on admission
        state.release("first")
        greedy_goodput([(q2, CandidateSet((cand([0], [1.0], topo),)))], topo, state=state)
        assert list(state.assignments) == ["second"]


class TestGreedyCost:
    def test_cheaper_plan_wins_equal_weight(self, two_tier_topology):
        q = make_query("q")
        cheap = cand([0], [0.5], two_tier_topology)
        dear = cand([1], [0.5], two_tier_topology)
        dep = greedy_cost([(q, CandidateSet((dear, cheap)))], two_tier_topology)
        assert dep.chosen["q"].hourly_cost == pytest.approx(cheap.hourly_cost)

    def test_two_halves_pack_into_one_machine(self):
        topo = single_tier_topology(machines=1, cost=2.0)
        qs = [
            (make_query("a"), CandidateSet((cand([0], [0.5], topo),))),
            (make_query("b"), CandidateSet((cand([0], [0.5], topo),))),
        ]
        dep = greedy_cost(qs, topo)
        assert dep.machines_per_tier == (1,)
        assert dep.hourly_dollars == pytest.approx(2.0)

    def test_empty_candidate_set_reported_unserved(self, two_tier_topology):
        qs = [
            (make_query("ok"), CandidateSet((cand([0], [0.5], two_tier_topology),))),
            (make_query("none"), CandidateSet(())),
        ]
        dep = greedy_cost(qs, two_tier_topology)
        assert dep.unserved == ("none",)
        assert "ok" in dep.chosen

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.1, 5.0) | st.sampled_from([5e-324, 1e300]),
        st.lists(
            st.tuples(st.sampled_from([1e-13, 1e-12, 0.5, 2.0]) | st.floats(1e-6, 1e3), st.sampled_from([0.1, 0.2])),
            min_size=1,
            max_size=8,
        ),
    )
    def test_best_benefit_per_dollar_is_the_cheapest_plan(self, weight, rows):
        # equal costs and equal (cost, latency) rows included, costs below
        # the 1e-12 floor of the benefit-per-dollar quotient too
        topo = single_tier_topology()
        plans = tuple(CandidatePlan(PlanPoint((0,), (0,), (1.0,)), 0.9, lat, cost) for cost, lat in rows)
        best = min(plans, key=lambda c: (-(weight / max(c.hourly_cost, 1e-12)), c.hourly_cost, c.latency_s))
        assert best is CandidateSet(plans).cheapest()
        assert greedy_cost([(make_query("q", weight), CandidateSet(plans))], topo).chosen["q"] is best


class TestFFD:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([int(f * GRID) for f in RESOURCE_FRACTIONS]), max_size=10))
    def test_counts_match_brute_force_on_small_instances(self, items):
        # the grid's unit sizes each divide the next larger one, on which
        # FFD is optimal (Coffman, Garey & Johnson 1987)
        assert ffd_bin_count(items) == brute_force_min_bins(items, GRID)

    def test_oversized_item_rejected(self):
        with pytest.raises(ValueError):
            ffd_bin_count([GRID + 1])


class TestOracles:
    def test_empty_instance(self):
        inst = OracleInstance(queries=(), machine_caps=((GRID,),), tier_prices=(1.0,))
        assert ilp_oracle_limited(inst) == 0.0
        assert ilp_oracle_unlimited(inst) == 0.0

    def test_one_query_one_plan(self):
        inst = OracleInstance(
            queries=((1.0, ((((0, 4),)),)),),
            machine_caps=((GRID,),),
            tier_prices=(3.0,),
        )
        assert ilp_oracle_limited(inst) == 1.0
        assert ilp_oracle_unlimited(inst) == 3.0

    def test_three_query_hand_solved_fixture(self):
        # one machine of 8 units; weights 3, 2, 2; demands 6, 4, 4.
        # Best is {q2, q3} = weight 4 (q1 blocks both).
        inst = OracleInstance(
            queries=(
                (3.0, (((0, 6),),)),
                (2.0, (((0, 4),),)),
                (2.0, (((0, 4),),)),
            ),
            machine_caps=((GRID,),),
            tier_prices=(1.0,),
        )
        assert ilp_oracle_limited(inst) == 4.0

    def test_limited_matches_plain_recursion(self, two_tier_topology):
        for seed in range(20):
            cands = random_scheduling_instance(seed, two_tier_topology, n_queries=4, max_plans=2)
            inst = oracle_instance_from_candidates(cands, two_tier_topology)
            fast = ilp_oracle_limited(inst)
            slow = brute_force_goodput(
                [(w, [list(p) for p in plans]) for w, plans in inst.queries],
                [list(c) for c in inst.machine_caps],
            )
            assert fast == pytest.approx(slow)

    def test_unlimited_uses_exact_bin_packing(self):
        # plan choice trade-off: per-query cheap-but-fragmenting vs packable
        inst = OracleInstance(
            queries=(
                (1.0, (((0, 5),), ((0, 4),))),
                (1.0, (((0, 5),), ((0, 4),))),
            ),
            machine_caps=((GRID, GRID),),
            tier_prices=(10.0,),
        )
        # two 4s pack into one 8-unit machine; two 5s need two machines
        assert ilp_oracle_unlimited(inst) == 10.0

    def test_refuses_oversized(self):
        queries = tuple((1.0, (((0, 4),),)) for _ in range(9))
        inst = OracleInstance(queries=queries, machine_caps=((GRID,),), tier_prices=(1.0,))
        with pytest.raises(SpaceTooLargeError):
            ilp_oracle_limited(inst)


class TestAgeWeights:
    def test_zero_wait_unchanged(self):
        assert age_weights([("q", 2.0, 10.0)], now=10.0) == {"q": 2.0}

    def test_hundred_seconds_doubles(self):
        assert age_weights([("q", 2.0, 0.0)], now=100.0, beta=0.01) == {"q": pytest.approx(4.0)}

    def test_starved_query_eventually_outranks(self):
        # low-weight query waiting for t seconds beats a fresh heavy query
        # once 1*(1+0.01 t) > 3; analytic crossover at t = 200
        w_low = age_weights([("low", 1.0, 0.0)], now=199.0)["low"]
        assert w_low < 3.0
        w_low = age_weights([("low", 1.0, 0.0)], now=201.0)["low"]
        assert w_low > 3.0


class TestScaling:
    def test_greedy_runtime_near_linear_in_plans(self):
        topo = TierTopology(
            (Tier("a", 4, 1.0, 1.0), Tier("b", 4, 1.0, 2.0)),
            ((100.0, 10.0), (10.0, 100.0)),
            ((0.0, 0.0), (0.0, 0.0)),
        )
        sizes = [100, 1000, 10_000]
        times = []
        for n in sizes:
            qs = []
            rng = np.random.default_rng(n)
            for i in range(n):
                q = make_query(f"q{i}", weight=float(rng.uniform(0.5, 2.0)))
                qs.append((q, CandidateSet((cand([int(rng.integers(2))], [0.25], topo),))))
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                greedy_goodput(qs, topo)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope <= 1.2


class TestOpDemands:
    def test_one_demand_per_operator_in_its_tiers_units(self, two_tier_topology):
        c = cand([0, 1], [0.5, 0.25], two_tier_topology)
        assert op_demands(c.plan) == ((0, 4), (1, 2))
        # units are fractions of a machine, whatever the tier's capacity
        topo = single_tier_topology(capacity=4.0)
        assert op_demands(cand([0, 0], [0.5, 0.125], topo).plan) == ((0, 4), (0, 1))

    def test_admission_holds_the_footprint_and_release_returns_it(self, two_tier_topology):
        state = DeploymentState.fresh(two_tier_topology)
        c = cand([0, 1], [0.5, 0.25], two_tier_topology)
        assert state.place("q", c, 2.0)
        a = state.assignments["q"]
        assert list(state.assignments) == ["q"] and (a.plan, a.weight) == (c, 2.0)
        assert a.machines == ((0, 0), (1, 0))
        assert state.units[0][0] == 4 and state.units[1][0] == 6
        with pytest.raises(ValueError):
            state.place("q", c, 2.0)
        state.release("q")
        assert state == DeploymentState.fresh(two_tier_topology)

    def test_a_plan_that_does_not_fit_leaves_the_state_as_it_was(self):
        # the larger operator fits, the second does not: all-or-nothing
        topo = single_tier_topology(machines=1)
        state = DeploymentState.fresh(topo)
        assert not state.place("q", cand([0, 0], [1.0, 0.125], topo), 1.0)
        assert state.units == [[GRID]] and state.assignments == {}

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.one_of(st.just(0.3), st.floats(0.1, 3.3)),
        machines=st.integers(1, 3),
        prefill=st.lists(st.lists(st.sampled_from(RESOURCE_FRACTIONS), min_size=1, max_size=3), max_size=6),
        fracs=st.lists(st.sampled_from(RESOURCE_FRACTIONS), min_size=2, max_size=4),
    )
    # in floats, 0.3 - 0.0375 - 0.0375 is 0.225, but 0.225 - 0.15 - 0.075 + 0.15 + 0.075 is not
    @example(capacity=0.3, machines=1, prefill=[[0.125, 0.125]], fracs=[0.5, 0.25, 0.125])
    def test_a_failed_placement_leaves_the_residuals_bitwise_as_they_were(self, capacity, machines, prefill, fracs):
        topo = single_tier_topology(machines=machines, capacity=capacity)
        state = DeploymentState.fresh(topo)
        for i, plan in enumerate(prefill):
            state.place(f"p{i}", cand([0] * len(plan), plan, topo), 1.0)
        before = state.copy()
        if not state.place("q", cand([0] * len(fracs), fracs, topo), 1.0):
            assert state == before

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.one_of(st.just(0.3), st.floats(0.1, 3.3)),
        machines=st.integers(1, 3),
        calls=st.lists(
            st.lists(st.sampled_from(RESOURCE_FRACTIONS), min_size=1, max_size=4) | st.integers(0, 7),
            max_size=12,
        ),
    )
    # in floats, these three plans fill the machine to -1.1e-16
    @example(capacity=2.407730515573894, machines=1, calls=[[0.125], [0.125], [0.25, 0.5]])
    def test_place_and_release_keep_every_machine_within_its_units(self, capacity, machines, calls):
        # a list places a plan of those fractions; an integer releases the
        # admission at that index (modulo the admissions held), if any
        topo = single_tier_topology(machines=machines, capacity=capacity)
        state = DeploymentState.fresh(topo)
        for i, call in enumerate(calls):
            if isinstance(call, list):
                state.place(f"q{i}", cand([0] * len(call), call, topo), 1.0)
            elif state.assignments:
                state.release(list(state.assignments)[call % len(state.assignments)])
            assert all(0 <= free <= GRID for row in state.units for free in row)
        for qid in list(state.assignments):
            state.release(qid)
        assert state == DeploymentState.fresh(topo)
