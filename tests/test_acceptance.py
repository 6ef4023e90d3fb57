"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
from itertools import product

import numpy as np
import pytest

from oracles import (
    all_paths_latency,
    draw_cases,
    exhaustive_resource_frontier,
    mc_sample_mean_variance,
    ReplayTrie,
    sample_cases,
    sibling_landscape,
    true_pareto_set,
    variance_random,
    variance_stratified,
)
from tierplan.landscape import (
    ArrivalTrace,
    TraceEntry,
    generate_landscape,
    quality_latency_frontier,
)
from tierplan.latency import OperatorTimings, pipeline_latency, plan_hourly_cost, transfer_time
from tierplan.model import (
    OperatorSpec,
    PipelineSpec,
    PlanPoint,
    Query,
    Tier,
    TierTopology,
    Verdict,
)
from tierplan.presets import (
    code_generation_pipeline,
    speech_recognition_pipeline,
    visual_tracking_pipeline,
    wide_search_pipeline,
)
from tierplan.profiler import (
    NullCache,
    PrefixCache,
    look_schedule,
    profile_plan,
    stratify,
)
from tierplan.scheduler import (
    greedy_cost,
    greedy_goodput,
    ilp_oracle_limited,
    ilp_oracle_unlimited,
    oracle_instance_from_candidates,
)
from tierplan.search import CandidateSet, HistoryStore, SearchConfig, pareto_optimize, single_query_search
from tierplan.sim import DriftEvent, SimConfig, compare, run

MBIT = 125_000.0


def two_tier_world(pipe_factory, seed, speed=(3.0, 1.0)):
    topo = TierTopology(
        (Tier("device", 2, 1.0, 0.05), Tier("cloud", 2, 1.0, 3.67)),
        ((25_000.0, 400.0), (400.0, 3_000.0)),
        ((0.001, 0.005), (0.005, 0.001)),
    )
    pipe = pipe_factory()
    land = generate_landscape(
        seed=seed, pipeline=pipe, difficulty="rugged", tier_speed_factors=speed
    )
    return topo, pipe, land


def test_criterion_1_variance_theorem():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(10_000):
        k = int(rng.integers(2, 7))
        p = rng.dirichlet(np.full(k, 1.5))
        mu = rng.uniform(0, 1, k)
        s2 = rng.uniform(0, 0.25, k)
        assert variance_stratified(p, s2, 100) <= variance_random(p, mu, s2, 100) + 1e-15
        checked += 1
    assert checked == 10_000

    mc_checked = 0
    for trial in range(8):
        k = int(rng.integers(2, 5))
        # integral n*p_k so the stratified draw is exact
        counts = rng.multinomial(100, rng.dirichlet(np.full(k, 2.0)))
        while (counts == 0).any():
            counts = rng.multinomial(100, rng.dirichlet(np.full(k, 2.0)))
        p = counts / 100.0
        mu = rng.uniform(0.2, 0.9, k)
        sigma = rng.uniform(0.02, 0.15, k)
        v_rand = mc_sample_mean_variance(p, mu, sigma, 100, 100_000, rng, stratified=False)
        v_strat = mc_sample_mean_variance(p, mu, sigma, 100, 100_000, rng, stratified=True)
        assert v_rand == pytest.approx(variance_random(p, mu, sigma**2, 100), rel=0.05)
        assert v_strat == pytest.approx(variance_stratified(p, sigma**2, 100), rel=0.05)
        mc_checked += 1
    print(
        f"\nACCEPTANCE 1: PASS - dominance on {checked} random vectors, "
        f"Monte-Carlo match within 5% on {mc_checked} vectors"
    )


@pytest.mark.parametrize(
    "pipe_factory,fixed_n,tag",
    [(speech_recognition_pipeline, 356, "SR"), (code_generation_pipeline, 252, "ACG")],
)
def test_criterion_2_early_stopping(pipe_factory, fixed_n, tag):
    pipe = pipe_factory()
    land = generate_landscape(seed=17, pipeline=pipe, tier_speed_factors=(9.0, 3.0, 1.0), noise_scale=0.04)
    configs = list(product(*[range(len(op.knob_domain)) for op in pipe.operators]))
    a_slo = float(np.median([land.accuracy_mean(c) for c in configs]))
    clear = [c for c in configs if abs(land.accuracy_mean(c) - a_slo) >= 0.05]
    assert len(clear) >= 12
    samples = []
    agree = 0
    for i, cfg in enumerate(clear):
        plan = PlanPoint(cfg, (0,) * len(pipe), (1.0,) * len(pipe))
        strat = stratify(land.case_features, 4, seed=i)
        out = profile_plan(plan, land, strat, NullCache(), a_slo, np.random.default_rng(i))
        samples.append(out.samples_used)
        want = Verdict.PASS_ACCURACY if land.accuracy_mean(cfg) > a_slo else Verdict.FAIL_ACCURACY
        agree += out.verdict == want
    correctness = agree / len(clear)
    median_n = float(np.median(samples))
    assert correctness >= 0.99
    assert median_n < fixed_n
    print(
        f"\nACCEPTANCE 2 ({tag}): PASS - verdict correctness {correctness:.3f} >= 0.99, "
        f"median samples {median_n:.0f} < fixed-N {fixed_n}"
    )


def test_criterion_3_prefix_cache():
    topo, pipe, land = two_tier_world(visual_tracking_pipeline, seed=23)
    rng = np.random.default_rng(5)
    domains = [len(op.knob_domain) for op in pipe.operators]
    cfg = [0] * len(pipe)
    plans = []
    for _ in range(100):
        # mutate one knob at a time: downstream knobs change more often, so
        # prefixes overlap heavily, like a planner walking the space
        knob = int(rng.choice(len(pipe), p=(0.15, 0.35, 0.5)))
        cfg[knob] = int(rng.integers(domains[knob]))
        plans.append(PlanPoint(tuple(cfg), (0,) * len(pipe), (1.0,) * len(pipe)))

    def run_sequence(cache):
        charged = 0.0
        estimates = []
        for i, plan in enumerate(plans):
            strat = stratify(land.case_features, 4, seed=i)
            out = profile_plan(plan, land, strat, cache, 0.6, np.random.default_rng(1000 + i))
            charged += out.profiling_cost
            estimates.append(out.accuracy_estimate)
        return charged, estimates

    cached_cost, cached_est = run_sequence(PrefixCache())
    raw_cost, raw_est = run_sequence(NullCache())
    assert cached_est == raw_est  # bitwise identical estimates
    assert cached_cost <= 0.70 * raw_cost

    # replay the same draw blocks against a reference trie
    trie = ReplayTrie()
    expected = 0.0
    looks = look_schedule()
    for i, plan in enumerate(plans):
        strat = stratify(land.case_features, 4, seed=i)
        out = profile_plan(plan, land, strat, PrefixCache(), 0.6, np.random.default_rng(1000 + i))
        # replay this plan's blocks, up to the look it stopped at, through the trie oracle
        rng_r = np.random.default_rng(1000 + i)
        t = land.timings_for(plan.configuration)
        for start, stop in zip((0,) + looks, looks):
            if start == out.samples_used:
                break
            cases = draw_cases(strat, start, stop, rng_r)
            sample_cases(land, plan.configuration, cases, rng_r)
            for case in cases:
                expected += trie.charge(plan.configuration, int(case), t.base_compute_s)
    # rebuild the real cached total with one shared cache (as above)
    assert cached_cost == pytest.approx(expected, rel=1e-9)
    print(
        f"\nACCEPTANCE 3: PASS - estimates bitwise equal, charged compute "
        f"{cached_cost:.2f}s vs {raw_cost:.2f}s ({1 - cached_cost / raw_cost:.0%} saved), trie-replay exact"
    )


def test_criterion_4_search_efficiency():
    topo = TierTopology(
        (Tier("device", 8, 1.0, 0.05), Tier("mec", 4, 1.0, 2.48), Tier("cloud", 4, 1.0, 3.67)),
        ((25_000.0, 50.0, 50.0), (50.0, 3_000.0, 400.0), (50.0, 400.0, 3_000.0)),
        ((0.001, 0.005, 0.01), (0.005, 0.001, 0.005), (0.01, 0.005, 0.001)),
    )
    pipe = wide_search_pipeline()
    parent = generate_landscape(
        seed=40, pipeline=pipe, difficulty="rugged", tier_speed_factors=(8.0, 2.5, 1.0)
    )
    frontier = quality_latency_frontier(parent, topo)
    acc = float(np.mean([a for _, a, _ in frontier]))
    lat = float(np.mean([l for _, _, l in frontier]))
    query = Query(
        id="c4", pipeline=pipe, a_slo=0.8 * acc, l_slo=1.5 * lat, response_budget_s=5.0
    )
    store = HistoryStore()
    for i in range(3):
        sib = sibling_landscape(parent, seed=41 + i, perturbation=0.15)
        single_query_search(query, sib, topo, history=store, seed=90 + i)
    assert len(store) == 3

    cold, warm = [], []
    for seed in range(20):
        c = single_query_search(query, parent, topo, seed=seed)
        w = single_query_search(query, parent, topo, history=store, seed=seed)
        cold.append(c.steps_to_first_feasible if c.steps_to_first_feasible else math.inf)
        warm.append(w.steps_to_first_feasible if w.steps_to_first_feasible else math.inf)
    med_cold = float(np.median(cold))
    med_warm = float(np.median(warm))
    assert med_warm <= 15
    assert med_warm <= med_cold
    print(
        f"\nACCEPTANCE 4: PASS - median proposals to first feasible: warm {med_warm:.1f} <= 15 "
        f"and <= cold {med_cold:.1f} (20 seeds, ~6.5K-plan pool, 5s budget)"
    )


def test_criterion_5_pareto_pruning():
    rng = np.random.default_rng(6)
    instances = 0
    for m in (1, 2, 3, 4):
        for trial in range(12):
            batching = tuple(bool(rng.uniform() < 0.3) for _ in range(m))
            ops = tuple(
                OperatorSpec(i, ("x",), is_batching=batching[i], base_output_size=1e4)
                for i in range(m)
            )
            pipe = PipelineSpec(f"c5-{m}-{trial}", ops, tuple((i, i + 1) for i in range(m - 1)))
            tiers = (Tier("a", 2, 1.0, 1.0), Tier("b", 2, 1.0, 3.0))
            topo = TierTopology(
                tiers, ((500.0, 100.0), (100.0, 500.0)), ((0.0, 0.0), (0.0, 0.0))
            )
            placement = tuple(sorted(int(rng.integers(2)) for _ in range(m)))
            plan = PlanPoint((0,) * m, placement, (1.0,) * m)
            timings = OperatorTimings(
                tuple(rng.uniform(0.01, 0.3, m)), tuple(rng.uniform(1e3, 1e5, m)), (2.0, 1.0)
            )
            base_lat = pipeline_latency(plan, pipe, topo, timings)
            l_slo = float(base_lat * rng.uniform(1.02, 8.0))
            got = pareto_optimize(plan, pipe, topo, timings, l_slo)
            want = exhaustive_resource_frontier(
                plan, pipe, topo, timings, l_slo, pipeline_latency, plan_hourly_cost
            )
            assert {p for p, _, _ in got} == set(want)
            instances += 1
    print(f"\nACCEPTANCE 5: PASS - exact frontier match on {instances} grids (M in 1..4, 4^M sweeps)")


@pytest.fixture(scope="module")
def planner_instances():
    """200 scheduling instances whose candidate sets come from the actual
    stage-one planner on seeded landscapes (N<=8 queries, P<=4 plans,
    2 tiers x 2 machines)."""
    topo = TierTopology(
        (Tier("device", 2, 1.0, 0.05), Tier("cloud", 2, 1.0, 3.67)),
        ((25_000.0, 50.0), (50.0, 3_000.0)),
        ((0.001, 0.005), (0.005, 0.001)),
    )
    pipe = code_generation_pipeline()
    hardness = ((2.0, 0.7), (1.5, 0.8), (1.1, 0.9))
    instances = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        land = generate_landscape(
            seed=seed, pipeline=pipe, difficulty="rugged", tier_speed_factors=(3.0, 1.0)
        )
        frontier = quality_latency_frontier(land, topo)
        cands = []
        for qi in range(n):
            _, acc, lat = frontier[int(rng.integers(len(frontier)))]
            lat_mult, acc_mult = hardness[int(rng.integers(3))]
            q = Query(
                id=f"q{qi}",
                pipeline=pipe,
                a_slo=min(1.0, acc_mult * acc),
                l_slo=lat_mult * lat,
                response_budget_s=2.0,
                weight=float(rng.uniform(0.5, 2.0)),
            )
            res = single_query_search(q, land, topo, seed=seed * 100 + qi)
            plans = sorted(res.candidates.plans, key=lambda c: (c.hourly_cost, c.latency_s))[:4]
            cands.append((q, CandidateSet(plans=tuple(plans))))
        instances.append(cands)
    return topo, instances


def test_criterion_6_scheduler_quality(planner_instances):
    topo, instances = planner_instances
    goodput_ok = 0
    cost_ok = cost_total = 0
    for cands in instances:
        achieved = greedy_goodput(cands, topo).admitted_weight()
        opt = ilp_oracle_limited(oracle_instance_from_candidates(cands, topo))
        ratio = achieved / opt if opt > 0 else 1.0
        goodput_ok += ratio >= 0.9

        served = [(q, c) for q, c in cands if len(c)]
        if served:
            dep = greedy_cost(served, topo)
            copt = ilp_oracle_unlimited(oracle_instance_from_candidates(served, topo))
            cost_total += 1
            cost_ok += (dep.hourly_dollars / copt if copt > 0 else 1.0) <= 1.15
    goodput_rate = goodput_ok / len(instances)
    cost_rate = cost_ok / cost_total
    assert goodput_rate >= 0.95
    assert cost_rate >= 0.90
    print(
        f"\nACCEPTANCE 6: PASS - goodput >=90% of ILP on {goodput_rate:.1%} of {len(instances)} "
        f"instances (need 95%), cost within 15% on {cost_rate:.1%} of {cost_total} (need 90%)"
    )


def test_criterion_7_latency_model():
    rng = np.random.default_rng(123)
    checked = 0
    for trial in range(500):
        n = int(rng.integers(2, 11))
        edges = [(i, i + 1) for i in range(n - 1)]
        for u in range(n - 2):
            for v in range(u + 2, n):
                if rng.uniform() < 0.25:
                    edges.append((u, v))
        ops = tuple(OperatorSpec(i, ("x",), base_output_size=1e4) for i in range(n))
        pipe = PipelineSpec(f"c7-{trial}", ops, tuple(sorted(set(edges))))
        tiers = tuple(Tier(f"t{i}", 2, 1.0, 1.0 + i) for i in range(3))
        bw = float(rng.uniform(10, 1000))
        t0 = float(rng.uniform(0, 0.01))
        topo = TierTopology(
            tiers,
            tuple(tuple(bw for _ in range(3)) for _ in range(3)),
            tuple(tuple(t0 for _ in range(3)) for _ in range(3)),
        )
        fracs = (1.0, 0.5, 0.25, 0.125)
        plan = PlanPoint(
            (0,) * n,
            tuple(sorted(int(rng.integers(3)) for _ in range(n))),
            tuple(fracs[int(rng.integers(4))] for _ in range(n)),
        )
        timings = OperatorTimings(
            tuple(rng.uniform(0.001, 0.3, n)), tuple(rng.uniform(1e3, 1e6, n)), (4.0, 2.0, 1.0)
        )
        got = pipeline_latency(plan, pipe, topo, timings)
        assert got == all_paths_latency(plan, pipe, topo, timings)
        checked += 1

    assert transfer_time(50 * MBIT, 50.0) == 1.0
    assert transfer_time(400 * MBIT, 400.0, t0_s=0.02) == (400 * MBIT * 8.0 / 1e6) / 400.0 + 0.02
    print(f"\nACCEPTANCE 7: PASS - exact all-paths match on {checked} random DAGs, L/B+T0 exact")


@pytest.fixture(scope="module")
def contended_config():
    """Committed contended trace: hard-ish SLOs over a ~6.5K-plan pool, so a
    planning budget buys only a handful of fixed-N probes but many guided
    steps, and the cluster cannot hold every query at once."""
    topo = TierTopology(
        (Tier("device", 3, 1.0, 0.05), Tier("cloud", 3, 1.0, 3.67)),
        ((25_000.0, 400.0), (400.0, 3_000.0)),
        ((0.001, 0.005), (0.005, 0.001)),
    )
    pipe = wide_search_pipeline()
    land = generate_landscape(
        seed=3, pipeline=pipe, difficulty="rugged", tier_speed_factors=(3.0, 1.0)
    )
    frontier = quality_latency_frontier(land, topo)
    rng = np.random.default_rng(12)
    entries = []
    t = 0.0
    for i in range(22):
        t += float(rng.exponential(2.2))
        _, acc, lat = frontier[int(rng.integers(len(frontier)))]
        entries.append(
            TraceEntry(
                arrival_time=t,
                template=pipe.name,
                a_slo=min(1.0, 0.85 * acc),
                l_slo=1.3 * lat,
                lifespan=float(rng.uniform(15.0, 30.0)),
            )
        )
    trace = ArrivalTrace(entries=tuple(entries))
    return SimConfig(
        topology=topo,
        pipelines={pipe.name: pipe},
        landscapes={pipe.name: land},
        trace=trace,
        seed=0,
        planning_budget_s=3.0,
        search=SearchConfig(),
    )


def test_criterion_8_directional_ablations(contended_config):
    result = compare(
        contended_config,
        {
            "full": {},
            "fixed-n": {"profiler": "fixed", "fixed_n": 353},
            "no-warm-start": {"warm_start": False},
            "fcfs": {"scheduler": "fcfs"},
        },
    )
    rows = {r["variant"]: r for r in result["rows"]}
    full = rows["full"]["avg_goodput"]
    assert full > rows["fixed-n"]["avg_goodput"]
    assert full > rows["no-warm-start"]["avg_goodput"]
    assert full > rows["fcfs"]["avg_goodput"]
    print(
        "\nACCEPTANCE 8: PASS - goodput full {:.2f} > fixed-N {:.2f}, no-warm-start {:.2f}, fcfs {:.2f}"
        .format(
            full,
            rows["fixed-n"]["avg_goodput"],
            rows["no-warm-start"]["avg_goodput"],
            rows["fcfs"]["avg_goodput"],
        )
    )


@pytest.fixture(scope="module")
def drift_world():
    pipe = visual_tracking_pipeline()
    topo = TierTopology(
        (Tier("device", 4, 1.0, 0.05), Tier("mec", 4, 1.0, 2.48), Tier("cloud", 4, 1.0, 3.67)),
        ((25_000.0, 400.0, 400.0), (400.0, 3_000.0, 400.0), (400.0, 400.0, 3_000.0)),
        ((0.001, 0.005, 0.01), (0.005, 0.001, 0.005), (0.01, 0.005, 0.001)),
    )
    land = generate_landscape(
        seed=55, pipeline=pipe, difficulty="rugged", tier_speed_factors=(12.0, 2.0, 1.0)
    )
    a_slo, l_slo = 0.461, 0.12
    trace = ArrivalTrace(entries=(TraceEntry(0.0, pipe.name, a_slo, l_slo, 200.0),))
    base = dict(
        topology=topo,
        pipelines={pipe.name: pipe},
        landscapes={pipe.name: land},
        trace=trace,
        seed=0,
        planning_budget_s=4.0,
        replan_budget_s=5.0,
        search=SearchConfig(),
    )
    return pipe, topo, land, a_slo, l_slo, base


def _recovery_time(report, drift_t):
    ups = [t for t, g in report.goodput_series if t > drift_t and g == 1]
    return min(ups) - drift_t if ups else math.inf


def test_criterion_9_drift_handling(drift_world):
    pipe, topo, land, a_slo, l_slo, base = drift_world
    oracle_query = Query(id="o", pipeline=pipe, a_slo=a_slo, l_slo=l_slo, response_budget_s=1.0)

    # bandwidth drop: device uplink collapses, current split plan breaks
    bw_cfg = SimConfig(**base, drift=(DriftEvent(time=30.0, kind="bandwidth", link=(0, 1), factor=0.05),))
    bw_rep = run(bw_cfg)
    q = bw_rep.queries[0]
    drifted_topo = topo.with_bandwidth_scaled((0, 1), 0.05)
    assert len(true_pareto_set(land, drifted_topo, oracle_query)) > 0  # oracle confirms a way out
    assert q.replans >= 1 and q.status == "completed"
    bw_rec = _recovery_time(bw_rep, 30.0)
    assert bw_rec <= base["replan_budget_s"] + 0.5

    # accuracy drop: the running config falls below the SLO, others survive
    acc_cfg = SimConfig(
        **base, drift=(DriftEvent(time=30.0, kind="accuracy", template=pipe.name, delta=-0.25),)
    )
    acc_rep = run(acc_cfg)
    q2 = acc_rep.queries[0]
    assert len(true_pareto_set(land.with_accuracy_shift(-0.25), topo, oracle_query)) > 0
    assert q2.replans >= 1 and q2.status == "completed"
    acc_rec = _recovery_time(acc_rep, 30.0)
    assert acc_rec <= base["replan_budget_s"] + 0.5

    # accuracy collapse with no feasible plan at all: degraded, resources freed
    dead_cfg = SimConfig(
        **base, drift=(DriftEvent(time=30.0, kind="accuracy", template=pipe.name, delta=-0.9),)
    )
    dead_rep = run(dead_cfg)
    q3 = dead_rep.queries[0]
    assert len(true_pareto_set(land.with_accuracy_shift(-0.9), topo, oracle_query)) == 0
    assert q3.status == "degraded"
    assert dead_rep.goodput_series[-1][1] == 0  # resources released
    print(
        f"\nACCEPTANCE 9: PASS - re-admitted {bw_rec:.2f}s after the bandwidth drop and "
        f"{acc_rec:.2f}s after the accuracy drop (5s replan budget + one-step granularity); "
        f"infeasible drift degrades and frees resources"
    )


def test_criterion_10_determinism(contended_config, tmp_path):
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        from dataclasses import replace

        run(replace(contended_config, output_dir=str(out)))
        blobs.append((out / "metrics.json").read_bytes())
    assert blobs[0] == blobs[1]
    print("\nACCEPTANCE 10: PASS - two simulate runs produced byte-identical reports")
