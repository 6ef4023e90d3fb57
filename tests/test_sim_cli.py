import csv
import dataclasses
import gc
import inspect
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from tierplan.cli import main as cli_main
from tierplan.landscape import ArrivalTrace, TraceEntry, generate_landscape, quality_latency_frontier
from tierplan.latency import pipeline_latency
from tierplan.model import (
    GRID,
    SCHEMA_VERSION,
    SEARCH_POOL_MAX_PLANS,
    PlanPoint,
    SchemaError,
    SpaceTooLargeError,
    Tier,
    TierTopology,
)
from tierplan import presets, search
from tierplan import sim as simmod
from tierplan.presets import code_generation_pipeline, speed_factors_for
from tierplan.scheduler import DeploymentState, op_demands
from tierplan.search import CandidateSet, SearchConfig
from tierplan.sim import DriftEvent, QueryRecord, SimConfig, _Sim, compare, run, sim_config_from_file, write_report


@pytest.fixture(scope="module")
def small_world():
    topo = TierTopology(
        (Tier("device", 4, 1.0, 0.05), Tier("cloud", 4, 1.0, 3.67)),
        ((25000.0, 400.0), (400.0, 3000.0)),
        ((0.001, 0.005), (0.005, 0.001)),
    )
    pipe = code_generation_pipeline()
    land = generate_landscape(
        seed=3, pipeline=pipe, difficulty="rugged", tier_speed_factors=(3.0, 1.0)
    )
    frontier = quality_latency_frontier(land, topo)
    acc = float(np.mean([a for _, a, _ in frontier]))
    lat = float(np.mean([l for _, _, l in frontier]))
    return topo, pipe, land, 0.8 * acc, 1.5 * lat


def make_config(small_world, entries, **kw):
    topo, pipe, land, _, _ = small_world
    trace = ArrivalTrace(entries=tuple(entries))
    defaults = dict(
        topology=topo,
        pipelines={pipe.name: pipe},
        landscapes={pipe.name: land},
        trace=trace,
        seed=0,
        planning_budget_s=2.0,
        search=SearchConfig(),
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def entry(small_world, t=0.0, lifespan=30.0, weight=1.0):
    _, pipe, _, a_slo, l_slo = small_world
    return TraceEntry(t, pipe.name, a_slo, l_slo, lifespan, weight)


class TestRun:
    def test_empty_trace_empty_report(self, small_world, tmp_path):
        rep = run(make_config(small_world, [], output_dir=str(tmp_path)))
        assert rep.totals["arrived"] == 0
        assert rep.totals["deployment_dollars"] == 0.0
        assert rep.totals["profiling_gpu_seconds"] == 0.0
        # every CSV keeps its header when there is no row
        header = ",".join(f.name for f in dataclasses.fields(QueryRecord))
        assert (tmp_path / "queries.csv").read_text().splitlines() == [header]
        assert (tmp_path / "deployment.csv").read_text().splitlines() == [
            "query,admitted_s,released_s,placement,resources,hourly_cost"
        ]

    def test_single_query_abundant_resources(self, small_world):
        rep = run(make_config(small_world, [entry(small_world, lifespan=30.0)]))
        q = rep.queries[0]
        assert q.status == "completed"
        assert rep.totals["avg_goodput"] > 0
        # goodput is exactly 1 between admission and release
        ups = [t for t, g in rep.goodput_series if g == 1]
        assert ups and max(g for _, g in rep.goodput_series) == 1
        assert q.released_at == pytest.approx(q.admitted_at + 30.0)

    def test_conservation_of_queries(self, small_world):
        entries = [entry(small_world, t=float(i) * 0.5, lifespan=10.0) for i in range(6)]
        rep = run(make_config(small_world, entries))
        t = rep.totals
        assert t["arrived"] == 6
        assert t["completed"] + t["degraded"] + t["rejected"] + t["pending_at_end"] == 6

    def test_goodput_never_exceeds_admitted(self, small_world):
        entries = [entry(small_world, t=float(i) * 0.5, lifespan=10.0) for i in range(5)]
        rep = run(make_config(small_world, entries))
        assert all(g <= rep.totals["arrived"] for _, g in rep.goodput_series)

    def test_byte_identical_reports(self, small_world, tmp_path):
        entries = [entry(small_world, t=float(i), lifespan=12.0) for i in range(4)]
        names = ("metrics.json", "goodput.csv", "cost.csv", "queries.csv", "deployment.csv")
        blobs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            run(make_config(small_world, entries, output_dir=str(out)))
            blobs.append([(out / name).read_bytes() for name in names])
        assert blobs[0] == blobs[1]

    def test_fcfs_head_of_line_blocking(self, small_world):
        # a heavy query at the head of the queue blocks followers under fcfs
        heavy = entry(small_world, t=0.0, lifespan=50.0)
        rest = [entry(small_world, t=0.1 * i, lifespan=50.0) for i in range(1, 10)]
        greedy_rep = run(make_config(small_world, [heavy] + rest, scheduler="greedy"))
        fcfs_rep = run(make_config(small_world, [heavy] + rest, scheduler="fcfs"))
        assert greedy_rep.totals["avg_goodput"] >= fcfs_rep.totals["avg_goodput"]

    def test_load_sweep_saturates_at_capacity(self):
        # single-configuration pipeline with a generous latency SLO: every
        # query's Pareto descent ends at the identical all-minimum
        # allocation, so the concurrency ceiling is exact arithmetic
        from tierplan.model import OperatorSpec, PipelineSpec

        ops = (
            OperatorSpec(0, ("only",), base_output_size=1e4),
            OperatorSpec(1, ("single",), is_batching=True, base_output_size=1e4),
        )
        pipe = PipelineSpec("uniform", ops, ((0, 1),), input_bytes=1e4)
        topo = TierTopology(
            (Tier("device", 1, 1.0, 0.05), Tier("cloud", 1, 1.0, 3.67)),
            ((25_000.0, 400.0), (400.0, 3_000.0)),
            ((0.001, 0.005), (0.005, 0.001)),
        )
        land = generate_landscape(
            seed=4, pipeline=pipe, difficulty="rugged", tier_speed_factors=(3.0, 1.0)
        )
        a_slo = land.accuracy_mean((0, 0)) - 0.1
        assert a_slo > 0
        trace_entry = lambda t, life: TraceEntry(t, pipe.name, a_slo, 10.0, life)
        # minimal allocation is (0.125, 0.125): demand 0.25 on one tier;
        # each 1.0-capacity machine fits 4, two machines -> ceiling 8, but the
        # cheapest tier (device, 1 machine) hosts them all -> ceiling 4 until
        # it overflows to the cloud machine
        per_query = 0.25
        cap = int(sum(t.machine_count * t.capacity for t in topo.tiers) / per_query)

        rng = np.random.default_rng(7)
        lifespan = 16.0
        averages = {}
        peaks = {}
        for load in (0.5, 1.0, 2.0):
            rate = load * cap / lifespan
            entries, t = [], 0.0
            while True:
                t += float(rng.exponential(1.0 / rate))
                if t >= 60.0:
                    break
                entries.append(trace_entry(t, lifespan))
            cfg = SimConfig(
                topology=topo,
                pipelines={pipe.name: pipe},
                landscapes={pipe.name: land},
                trace=ArrivalTrace(entries=tuple(entries)),
                seed=0,
                planning_budget_s=1.0,
                search=SearchConfig(),
            )
            rep = run(cfg)
            averages[load] = rep.totals["avg_goodput"]
            peaks[load] = max(g for _, g in rep.goodput_series)
        assert all(p <= cap for p in peaks.values())  # analytic ceiling holds
        assert peaks[2.0] == cap  # overload drives the system to capacity
        assert averages[0.5] < averages[2.0]
        # beyond saturation extra load cannot buy proportional goodput
        assert averages[2.0] - averages[1.0] < averages[1.0] - averages[0.5]

    def test_null_drift_keeps_original_plan(self, small_world):
        # a bandwidth wobble that breaks nothing: no replanning happens
        cfg = make_config(
            small_world,
            [entry(small_world, lifespan=40.0)],
            drift=(DriftEvent(time=10.0, kind="bandwidth", link=(0, 1), factor=0.9),),
        )
        rep = run(cfg)
        assert rep.queries[0].replans == 0
        assert rep.queries[0].status == "completed"

    def test_planner_state_dropped_when_a_query_ends(self, small_world):
        # the tight cluster's queries end rejected, degraded or pending, the
        # small world's complete
        seen = set()
        completing = make_config(small_world, [entry(small_world, t=float(i)) for i in range(3)])
        for cfg in (tight_cluster_config(), completing):
            sim = _Sim(cfg)
            report = sim.run()
            statuses = {q.id: q.status for q in report.queries}
            seen |= set(statuses.values())
            waiting = sorted(qid for qid, status in statuses.items() if status == "pending-at-end")
            assert sorted(sim.live) == sorted(sim.pending) == waiting
            assert not sim.state.assignments
        assert seen == {"completed", "rejected", "degraded", "pending-at-end"}

    def test_sessions_leave_observations_not_models(self, monkeypatch):
        # every surrogate pair dies with its session, replans included; the
        # simulator keeps each live query's observations
        pairs = []
        init = search.SurrogatePair.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            pairs.append(weakref.ref(self))

        monkeypatch.setattr(search.SurrogatePair, "__init__", tracked)
        sim = _Sim(tight_cluster_config())
        report = sim.run()
        assert any(q.replans for q in report.queries) and sim.live
        gc.collect()
        assert pairs and all(ref() is None for ref in pairs)
        for qid, live in sim.live.items():
            assert type(live.observations) is search.Observations
            assert len(live.observations.idx) == report.queries[int(qid[1:])].search_steps


def tight_cluster_config():
    """One machine per tier, so some tight-SLO queries never fit and end
    pending; an accuracy drift at 3 s degrades the running query."""
    topo = TierTopology(
        (Tier("device", 1, 1.0, 0.05), Tier("cloud", 1, 1.0, 3.67)),
        ((25000.0, 400.0), (400.0, 3000.0)),
        ((0.001, 0.005), (0.005, 0.001)),
    )
    pipe = code_generation_pipeline()
    land = generate_landscape(
        seed=3, pipeline=pipe, difficulty="rugged", tier_speed_factors=(3.0, 1.0)
    )
    frontier = quality_latency_frontier(land, topo)
    acc = float(np.mean([a for _, a, _ in frontier]))
    lats = [l for _, _, l in frontier]
    entries = [
        TraceEntry(
            0.5 * i,
            pipe.name,
            0.8 * acc if i % 2 else 0.6 * acc,
            min(lats) if i % 3 else 1.5 * float(np.mean(lats)),
            10.0 + i,
        )
        for i in range(10)
    ]
    return SimConfig(
        topology=topo,
        pipelines={pipe.name: pipe},
        landscapes={pipe.name: land},
        trace=ArrivalTrace(entries=tuple(entries)),
        planning_budget_s=2.0,
        drift=(DriftEvent(time=3.0, kind="accuracy", template=pipe.name, delta=-0.5),),
    )


def feasible_slos(cfg):
    """(a_slo, l_slo) of a medium query: 0.6 x the mean accuracy and 1.5 x
    the mean latency of the single pipeline's quality-latency frontier."""
    land, = cfg.landscapes.values()
    frontier = quality_latency_frontier(land, cfg.topology)
    return 0.6 * float(np.mean([a for _, a, _ in frontier])), 1.5 * float(np.mean([l for _, _, l in frontier]))


def accuracy_drift_config():
    """One medium query on the tight cluster, planned across an accuracy
    drift of -0.5 at 1 s that a second drift of +0.5 undoes at 5 s."""
    cfg = tight_cluster_config()
    pipe, = cfg.pipelines.values()
    a_slo, l_slo = feasible_slos(cfg)
    return dataclasses.replace(
        cfg,
        trace=ArrivalTrace(entries=(TraceEntry(0.0, pipe.name, a_slo, l_slo, 30.0),)),
        drift=(
            DriftEvent(time=1.0, kind="accuracy", template=pipe.name, delta=-0.5),
            DriftEvent(time=5.0, kind="accuracy", template=pipe.name, delta=0.5),
        ),
    )


def bandwidth_drift_config():
    """One machine per tier keeps queries pending; at 15 s the device-cloud
    link falls to 1% of its bandwidth, which puts every plan that crosses
    it over the latency SLO."""
    cfg = tight_cluster_config()
    pipe, = cfg.pipelines.values()
    a_slo, l_slo = feasible_slos(cfg)
    entries = tuple(TraceEntry(0.5 * i, pipe.name, a_slo, l_slo, 40.0) for i in range(8))
    return dataclasses.replace(
        cfg,
        trace=ArrivalTrace(entries=entries),
        drift=(DriftEvent(time=15.0, kind="bandwidth", link=(0, 1), factor=0.01),),
    )


class TestDriftRecheck:
    def test_bandwidth_drift_releases_violated_plans_and_drops_stale_candidates(self):
        cfg = bandwidth_drift_config()
        pipe, = cfg.pipelines.values()
        land, = cfg.landscapes.values()
        _, l_slo = feasible_slos(cfg)
        sim = _Sim(cfg)
        on_drift, plain_revalidate = sim.on_drift, sim._revalidate
        revalidated = {}  # query -> (candidate set, revalidated set) during the drift
        seen = []

        def revalidate(qid):
            cset = sim.live[qid].candidates
            revalidated[qid] = (cset, plain_revalidate(qid))
            return revalidated[qid][1]

        def drift(t, event):
            running = {qid: a.plan for qid, a in sim.state.assignments.items()}
            replans = {qid: sim.records[qid].replans for qid in running}
            revalidated.clear()
            sim._revalidate = revalidate
            on_drift(t, event)
            sim._revalidate = plain_revalidate
            seen.append((sim.topology, running, replans, dict(revalidated)))

        sim.on_drift = drift
        sim.run()
        (topo, running, replans, revalidated), = seen

        def latency(plan):
            return pipeline_latency(plan, pipe, topo, land.timings_for(plan.configuration))

        violated = [qid for qid, cand in running.items() if latency(cand.plan) > l_slo]
        assert violated
        for qid in violated:
            assert sim.records[qid].replans == replans[qid] + 1
        dropped = 0
        for cset, current in revalidated.values():
            assert all(c.latency_s == latency(c.plan) <= l_slo for c in current.plans)
            dropped += sum(latency(c.plan) > l_slo for c in cset.plans)
        assert dropped > 0

    def test_an_admission_that_misses_a_slo_is_undone_and_replanned_to_degraded(self):
        # the query is planned across the first drift, so the greedy admits
        # a plan that misses a_slo; the admission is undone before anything
        # records it, and the replan, on the drifted landscape, finds no
        # candidate, so the second drift has nothing to restore
        cfg = accuracy_drift_config()
        sim = _Sim(cfg)
        release, start_replan = sim.state.release, sim._start_replan
        undone, replanned = [], []  # (query, whether the state is fresh after the release); replan times

        def undo(qid):
            release(qid)
            undone.append((qid, sim.state == DeploymentState.fresh(cfg.topology)))

        def replan(t, qid):
            replanned.append(t)
            start_replan(t, qid)

        sim.state.release, sim._start_replan = undo, replan
        report = sim.run()
        q, = report.queries
        assert undone == [("q0000", True)]
        (t,) = replanned
        assert 1.0 < t < 5.0
        assert q.status == "degraded" and q.replans == 1 and q.candidate_count == 0
        assert q.admitted_at is q.released_at is q.hourly_cost is None
        assert report.admissions == ()
        assert all(g == 0 for _, g in report.goodput_series)

    def test_a_stale_release_leaves_the_re_admission_running(self, small_world):
        # the device-cloud link falls to 1% at 5 s, which frees the first
        # admission (on the cloud tier); the replan re-admits the query on
        # the device before the first admission's release event fires
        _, pipe, _, a_slo, l_slo = small_world
        cfg = make_config(
            small_world,
            [TraceEntry(0.0, pipe.name, a_slo, l_slo, 30.0)],
            drift=(DriftEvent(time=5.0, kind="bandwidth", link=(0, 1), factor=0.01),),
        )
        sim = _Sim(cfg)
        on_release = sim.on_release
        releases = []  # (time, admission it names, admission running after the event)

        def release(t, payload):
            on_release(t, payload)
            running = "q0000" in sim.state.assignments
            releases.append((t, payload[1], sim.records["q0000"].admitted_at if running else None))

        sim.on_release = release
        report = sim.run()
        (_, first, first_end, *_), (_, second, second_end, *_) = report.admissions
        q, = report.queries
        # the scenario: a drift freed the first admission, a replan re-admitted
        # the query, and the first release event fired while it ran again
        assert first_end == 5.0 and q.replans == 1
        assert first < 5.0 < second < first + 30.0
        assert releases == [(first + 30.0, first, second), (second + 30.0, second, None)]
        assert second_end == q.released_at == second + 30.0 and q.status == "completed"
        assert all(g == 1 for t, g in report.goodput_series if second <= t < second + 30.0)

    @pytest.mark.parametrize("slo_scale", [1.0, 1.0 / 1.5], ids=["some-kept", "none-kept"])
    def test_candidates_are_revalidated_when_a_query_becomes_ready(self, small_world, slo_scale):
        # the device-cloud link falls to 1% while the query is still planning;
        # at ready its pending candidates are those within l_slo on the
        # drifted topology, at their drifted latency, and a query left with
        # none goes to replan
        _, pipe, land, a_slo, l_slo = small_world
        l_slo *= slo_scale
        cfg = make_config(
            small_world,
            [TraceEntry(0.0, pipe.name, a_slo, l_slo, 30.0)],
            drift=(DriftEvent(time=1.0, kind="bandwidth", link=(0, 1), factor=0.01),),
        )
        sim = _Sim(cfg)
        on_ready, epoch = sim.on_ready, sim.epoch
        readies = []  # ready event times
        at_ready = []  # (session candidates, pending candidates, replans) as the first ready's epoch starts

        def ready(t, qid):
            readies.append(t)
            on_ready(t, qid)

        def first_epoch(t):
            if readies and not at_ready:
                at_ready.append((sim.live["q0000"].candidates, sim.pending["q0000"][1], sim.records["q0000"].replans))
            epoch(t)

        sim.on_ready, sim.epoch = ready, first_epoch
        sim.run()
        (session, pending, replans_at_ready), = at_ready
        assert readies[0] > 1.0  # planned from 0 s, on the topology before the drift; ready after it

        def latency(plan):
            return pipeline_latency(plan, pipe, sim.topology, land.timings_for(plan.configuration))

        kept = [dataclasses.replace(c, latency_s=latency(c.plan)) for c in session.plans if latency(c.plan) <= l_slo]
        assert len(kept) < len(session)  # the drift dropped a candidate
        assert pending == CandidateSet.build(kept)
        assert (len(pending) == 0) == (slo_scale != 1.0)
        if not kept:
            assert replans_at_ready == 0 and sim.records["q0000"].replans == 1
            assert len(readies) == 2  # the replan's own ready event


ENDED = ("completed", "rejected", "degraded")

# configs built from the small_world fixture: two with drift and replans, one plain trace
WORLD_CONFIGS = {
    "tight-cluster": lambda world: tight_cluster_config(),
    "bandwidth-drift": lambda world: bandwidth_drift_config(),
    "small-world": lambda world: make_config(world, [entry(world, t=float(i), lifespan=12.0) for i in range(3)]),
}
WORLDS = pytest.mark.parametrize("world_config", list(WORLD_CONFIGS.values()), ids=list(WORLD_CONFIGS))


def check_invariants(sim):
    """The simulator's admission state against a fresh recount."""
    topo = sim.topology

    def latency(qid, plan):
        rec = sim.records[qid]
        timings = sim.landscapes[rec.template].timings_for(plan.configuration)
        return pipeline_latency(plan, sim.cfg.pipelines[rec.template], topo, timings)

    # no plan is held while it misses an SLO on the current topology and landscape
    for qid, a in sim.state.assignments.items():
        rec = sim.records[qid]
        accuracy = sim.landscapes[rec.template].accuracy_mean(a.plan.plan.configuration)
        assert latency(qid, a.plan.plan) <= rec.l_slo and accuracy >= rec.a_slo

    for qid, (_, current) in sim.pending.items():
        l_slo = sim.records[qid].l_slo
        lats = [(c, latency(qid, c.plan)) for c in sim.live[qid].candidates.plans]
        fresh = CandidateSet.build([dataclasses.replace(c, latency_s=lat) for c, lat in lats if lat <= l_slo])
        assert current == fresh

    held = [[0] * len(row) for row in sim.state.units]
    for a in sim.state.assignments.values():
        for (tier, machine), (_, demand) in zip(a.machines, op_demands(a.plan.plan)):
            held[tier][machine] += demand
    for free, used in zip(sim.state.units, held):
        for f, u in zip(free, used):
            assert f + u == GRID and f >= 0

    # a query is planning, pending, running or ended; its status says how it ended
    for qid, rec in sim.records.items():
        assert not (qid in sim.pending and qid in sim.state.assignments)
        if qid in sim.pending or qid in sim.state.assignments:
            assert qid in sim.live
        assert rec.status == "" if qid in sim.live else rec.status in ENDED


class TestSimInvariants:
    @pytest.mark.parametrize("make_config", [tight_cluster_config, bandwidth_drift_config])
    def test_admission_state_matches_a_recount_after_every_event(self, make_config):
        sim = _Sim(make_config())
        handled = []
        for name in ("on_arrival", "on_ready", "on_release", "on_drift"):

            def checked(t, payload, handler=getattr(sim, name), name=name):
                handler(t, payload)
                handled.append(name)
                check_invariants(sim)

            setattr(sim, name, checked)
        report = sim.run()
        assert set(handled) == {"on_arrival", "on_ready", "on_release", "on_drift"}
        assert any(q.replans for q in report.queries)

    @pytest.mark.parametrize("make_config", [tight_cluster_config, bandwidth_drift_config])
    def test_admission_rows_rebuild_the_running_set_after_every_event(self, make_config, tmp_path):
        # deployment.csv holds one row per admission; the rows whose
        # [admitted_s, released_s) covers a handled event's time are the
        # assignments the simulator held after the last event at that time
        sim = _Sim(make_config())
        running = {}  # event time -> {query: (placement, resources, hourly cost)}
        for name in ("on_arrival", "on_ready", "on_release", "on_drift"):

            def recorded(t, payload, handler=getattr(sim, name)):
                handler(t, payload)
                running[t] = {
                    qid: (
                        "|".join(f"{tier}:{m}" for tier, m in a.machines),
                        "|".join(str(f) for f in a.plan.plan.resources),
                        str(a.plan.hourly_cost),
                    )
                    for qid, a in sim.state.assignments.items()
                }

            setattr(sim, name, recorded)
        admitted = []
        push = sim.push

        def counted(time, handler, payload):
            if handler is sim.on_release:
                admitted.append(payload)
            push(time, handler, payload)

        sim.push = counted
        report = sim.run()
        write_report(report, str(tmp_path))
        with open(tmp_path / "deployment.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))

        assert [(r["query"], float(r["admitted_s"])) for r in rows] == sorted(admitted, key=lambda a: (a[1], a[0]))
        # a drift release writes its row too
        assert {float(r["released_s"]) for r in rows} & {event.time for event in sim.cfg.drift}
        for t, assignments in running.items():
            rebuilt = {
                r["query"]: (r["placement"], r["resources"], r["hourly_cost"])
                for r in rows
                if float(r["admitted_s"]) <= t < float(r["released_s"] or "inf")
            }
            assert rebuilt == assignments

    @WORLDS
    def test_every_admission_ends_at_its_release(self, world_config, small_world, tmp_path):
        # each admission pushes its release at a finite time and the run
        # drains the heap, so nothing is held at the end and every query ended
        sim = _Sim(world_config(small_world))
        write_report(sim.run(), str(tmp_path))
        with open(tmp_path / "deployment.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert not sim.state.assignments
        assert rows and all(r["released_s"] != "" for r in rows)
        assert all(rec.status in ENDED + ("pending-at-end",) for rec in sim.records.values())

    @WORLDS
    def test_the_series_keep_one_point_per_time_the_state_after_its_events(self, world_config, small_world):
        sim = _Sim(world_config(small_world))
        handled = []
        for name in ("on_arrival", "on_ready", "on_release", "on_drift"):

            def checked(t, payload, handler=getattr(sim, name), name=name):
                handler(t, payload)
                handled.append(name)
                for series in (sim.goodput_series, sim.cost_series):
                    times = [time for time, _ in series]
                    assert all(a < b for a, b in zip(times, times[1:]))
                assert sim.goodput_series[-1][1] == len(sim.state.assignments)
                assert sim.cost_series[-1][1] == sim.state.hourly_cost()

            setattr(sim, name, checked)
        sim.run()
        assert {"on_arrival", "on_ready", "on_release"} <= set(handled)

    def test_the_horizon_is_the_last_event_that_is_not_a_stale_release(self):
        # q0000 is freed by the 3 s drift; its first release event, at
        # 12.02 s, is stale and ends the run, but neither sets the horizon
        # nor adds a series point
        sim = _Sim(tight_cluster_config())
        times, stale = [], []
        for name in ("on_arrival", "on_ready", "on_release", "on_drift"):

            def recorded(t, payload, handler=getattr(sim, name), name=name):
                if name == "on_release":
                    qid, admitted_at = payload
                    if qid not in sim.state.assignments or sim.records[qid].admitted_at != admitted_at:
                        stale.append(t)
                        return handler(t, payload)
                times.append(t)
                handler(t, payload)

            setattr(sim, name, recorded)
        report = sim.run()
        horizon = report.totals["horizon_s"]
        assert horizon == max(times) == pytest.approx(10.21625, abs=1e-5)
        assert stale and max(stale) > horizon
        assert report.goodput_series[-1][0] == report.cost_series[-1][0] == horizon
        assert report.totals["avg_goodput"] == pytest.approx(0.09616, abs=1e-5)

    @pytest.mark.parametrize(
        "world_config",
        [*WORLD_CONFIGS.values(), lambda world: accuracy_drift_config()],
        ids=[*WORLD_CONFIGS, "accuracy-drift"],
    )
    def test_goodput_is_the_count_of_admission_rows_covering_each_point(self, world_config, small_world, tmp_path):
        # every held plan meets its SLOs, so at every point of the goodput
        # series goodput is the number of deployment.csv rows whose
        # [admitted_s, released_s) covers the point's time
        write_report(run(world_config(small_world)), str(tmp_path))
        with open(tmp_path / "deployment.csv", newline="") as fh:
            rows = [(float(r["admitted_s"]), float(r["released_s"])) for r in csv.DictReader(fh)]
        with open(tmp_path / "goodput.csv", newline="") as fh:
            points = [(float(r["time_s"]), int(r["goodput"])) for r in csv.DictReader(fh)]
        assert [g for _, g in points] == [sum(a <= t < b for a, b in rows) for t, _ in points]

    @pytest.mark.parametrize("make_config", [tight_cluster_config, bandwidth_drift_config])
    def test_a_query_record_keeps_its_last_admission(self, make_config, tmp_path):
        # drift releases included: a drift-released query that replans to
        # nothing reads its release time and the empty candidate set
        cfg = make_config()
        report = run(cfg)
        write_report(report, str(tmp_path))
        with open(tmp_path / "deployment.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {float(r["released_s"]) for r in rows} & {event.time for event in cfg.drift}
        last = {r["query"]: r for r in rows}  # rows are in admission order
        for q in report.queries:
            row = last.get(q.id)
            if row is None:
                assert q.admitted_at is q.released_at is q.hourly_cost is None
            else:
                assert q.admitted_at == float(row["admitted_s"]) and q.released_at == float(row["released_s"])
                assert q.hourly_cost == float(row["hourly_cost"])
            if q.status in ("rejected", "degraded"):
                assert q.candidate_count == 0


class TestCompare:
    def test_identical_variants_factor_exactly_one(self, small_world):
        cfg = make_config(small_world, [entry(small_world, t=float(i), lifespan=15.0) for i in range(3)])
        result = compare(cfg, {"full": {}, "also-full": {}})
        rows = result["rows"]
        assert rows[0]["goodput_factor"] == 1.0
        assert rows[1]["goodput_factor"] == 1.0
        assert rows[0]["avg_goodput"] == rows[1]["avg_goodput"]

    def test_variants_share_trace_and_seed(self, small_world):
        cfg = make_config(small_world, [entry(small_world, lifespan=15.0)])
        result = compare(cfg, {"full": {}, "fixed": {"profiler": "fixed", "fixed_n": 252}})
        full, fixed = result["rows"]
        assert fixed["profiling_gpu_seconds"] != full["profiling_gpu_seconds"]


TRACE_ROW = {"arrival_time": 1.0, "template": "code-generation", "a_slo": 0.5, "l_slo": 0.2, "lifespan": 30.0}
BANDWIDTH = {"time": 1.0, "kind": "bandwidth", "link": [0, 1], "factor": 0.5}
TIER = {"name": "cloud", "machine_count": 2, "capacity": 1.0, "unit_cost": 3.0}
TOPOLOGY = {
    "schema_version": SCHEMA_VERSION,
    "tiers": [TIER, TIER],
    "bandwidth_mbps": [[1000, 200], [200, 1000]],
    "link_latency_s": [[0.0, 0.01], [0.01, 0.0]],
}


#: Files a config may name, written beside it by the tests that load it.
SIDE_FILES = {
    "huge-tier.json": dict(TOPOLOGY, tiers=[dict(TIER, machine_count=10**400), TIER]),
    "generator-trace.json": {"schema_version": SCHEMA_VERSION, "generator": {"load": 1.0}, "entries": [TRACE_ROW]},
}


class TestConfigFile:
    def _write(self, tmp_path, obj):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        example = readme.split("A minimal simulate config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        cfg = sim_config_from_file(self._write(tmp_path, json.loads(example)))
        assert list(cfg.pipelines) == ["visual-tracking"]
        assert cfg.landscapes["visual-tracking"].k_true == 4
        assert len(cfg.drift) == 1 and cfg.search.fixed_n == 356

    def test_minimal_config_loads(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "schema_version": SCHEMA_VERSION,
                "seed": 1,
                "pipelines": ["code-generation"],
                "trace": {"generator": {"duration_s": 20.0, "load": 0.5}},
            },
        )
        cfg = sim_config_from_file(path)
        assert cfg.seed == 1
        assert "code-generation" in cfg.pipelines

    def test_a_topology_of_n_tiers_gets_the_tier_speed_rule(self, tmp_path):
        # the last n of (8, 2.5, 1) up to three tiers, then 3x per tier
        expected = [(1.0,), (2.5, 1.0), (8.0, 2.5, 1.0), (27.0, 9.0, 3.0, 1.0), (81.0, 27.0, 9.0, 3.0, 1.0)]
        for n, factors in enumerate(expected, start=1):
            assert speed_factors_for(n) == factors
            topology = {
                "schema_version": SCHEMA_VERSION,
                "tiers": [TIER] * n,
                "bandwidth_mbps": [[1000] * n] * n,
                "link_latency_s": [[0.0] * n] * n,
            }
            obj = {
                "schema_version": SCHEMA_VERSION,
                "topology": topology,
                "pipelines": ["code-generation", "visual-tracking"],
                "trace": {"schema_version": SCHEMA_VERSION, "entries": [TRACE_ROW]},
            }
            cfg = sim_config_from_file(self._write(tmp_path, obj))
            assert [land.tier_speed_factors for land in cfg.landscapes.values()] == [factors, factors]

    def test_missing_version_rejected(self, tmp_path):
        path = self._write(tmp_path, {"pipelines": ["code-generation"]})
        with pytest.raises(SchemaError, match="schema_version"):
            sim_config_from_file(path)

    def test_unknown_pipeline_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            {"schema_version": SCHEMA_VERSION, "pipelines": ["no-such-pipeline"]},
        )
        with pytest.raises((SchemaError, ValueError), match="no-such-pipeline"):
            sim_config_from_file(path)

    def test_trace_template_must_have_landscape(self, small_world):
        topo, pipe, land, a_slo, l_slo = small_world
        trace = ArrivalTrace(entries=(TraceEntry(0.0, "other", a_slo, l_slo, 10.0),))
        with pytest.raises(SchemaError, match="other"):
            SimConfig(
                topology=topo,
                pipelines={pipe.name: pipe},
                landscapes={pipe.name: land},
                trace=trace,
                planning_budget_s=2.0,
            )


    @pytest.mark.parametrize(
        "ablations, message",
        [
            ({"profiler": "guidd"}, "guidd"),
            ({"profiler": "fixed", "fixed_n": 0}, "fixed_n"),
            ({"profiler": "fixed", "fixed_n": 1001}, "fixed_n must be >= 1 and <= DEFAULT_N_MAX"),
        ],
        ids=["unknown-profiler", "fixed-n-zero", "fixed-n-above-n-max"],
    )
    def test_invalid_profiler_options_rejected_at_load(self, tmp_path, capsys, ablations, message):
        path = self._write(
            tmp_path,
            {
                "schema_version": SCHEMA_VERSION,
                "pipelines": ["code-generation"],
                "trace": {"generator": {"duration_s": 5.0, "load": 0.2}},
                "ablations": ablations,
            },
        )
        with pytest.raises(SchemaError, match=message):
            sim_config_from_file(path)
        assert cli_main(["simulate", "--config", path]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_time", float("nan")),
            ("arrival_time", float("inf")),
            ("arrival_time", -1.0),
            ("a_slo", 0.0),
            ("a_slo", 1.5),
            ("l_slo", 0.0),
            ("lifespan", -5.0),
            ("lifespan", float("inf")),
            ("weight", 0.0),
            ("weight", float("inf")),
            ("l_slo", float("inf")),
        ],
    )
    def test_invalid_trace_entry_rejected_at_load(self, tmp_path, capsys, field, value):
        row = dict(TRACE_ROW)
        row[field] = value
        trace = {"schema_version": SCHEMA_VERSION, "entries": [row]}
        with pytest.raises(SchemaError, match=field):
            ArrivalTrace.from_dict(trace)
        path = self._write(
            tmp_path, {"schema_version": SCHEMA_VERSION, "pipelines": ["code-generation"], "trace": trace}
        )
        # inf as the number literal 1e999, not the constant Infinity
        Path(path).write_text(Path(path).read_text().replace("Infinity", "1e999"))
        assert cli_main(["simulate", "--config", path]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"drift": [{"time": 1.0, "kind": "bandwidth", "link": [1, 5], "factor": 0.5}]}, "link"),
            ({"drift": [{"time": 1.0, "kind": "bandwidth", "link": [1], "factor": 0.5}]}, "link"),
            ({"drift": [{"time": 1.0, "kind": "accuracy", "template": "wide-search", "delta": -0.1}]}, "wide-search"),
            ({"drift": [{"kind": "bandwidth", "link": [1, 2], "factor": 0.5}]}, "time"),
            ({"drift": [{"time": -1.0, "kind": "bandwidth", "link": [1, 2], "factor": 0.5}]}, "time"),
            ({"drift": [{"time": 1.0, "kind": "bandwidth", "link": [1, 2], "factor": 0.0}]}, "factor"),
            ({"drift": [{"time": 1.0, "kind": "accuracy", "template": "code-generation", "delta": float("nan")}]}, "delta"),
            ({"drift": [{"time": 1.0, "kind": "bandwidth", "link": [1, 2], "factr": 0.5}]}, "factr"),
            ({"drift": [{"time": 1.0, "kind": "bandwidth", "link": [0, 1], "factor": 0.5, "template": "nope"}]}, "template"),
            ({"drift": [{"time": 1.0, "kind": "bandwidth", "link": [0, 1], "factor": 0.5, "delta": 3}]}, "delta"),
            ({"drift": [{"time": 1.0, "kind": "accuracy", "template": "code-generation", "delta": -0.1, "link": [0, 1]}]}, "link"),
            ({"drift": [{"time": 1.0, "kind": "accuracy", "template": "code-generation", "delta": -0.1, "factor": 0.5}]}, "factor"),
            ({"schedular": "fcfs"}, "schedular"),
            ({"ablations": {"profilr": "fixed"}}, "profilr"),
            ({"trace": {"generator": {"duration_s": 5.0, "lod": 0.2}}}, "lod"),
            ({"trace": {"generatr": {"duration_s": 5.0}}}, "generatr"),
            ({"landscape": {"k_tru": 3}}, "k_tru"),
            ({"planning_budget_s": -1.0}, "planning_budget_s"),
            ({"planning_budget_s": None, "planning_budget_gpuh": 0.0}, "planning_budget_gpuh"),
            ({"replan_budget_s": 0.0}, "replan_budget_s"),
            ({"landscape": {"k_true": 0}}, "k_true"),
            ({"trace": {"generator": {"duration_s": -5.0, "load": 0.2}}}, "duration_s"),
            ({"trace": {"generator": {"duration_s": 5.0, "load": 0.0}}}, "load"),
            ({"trace": {"generator": {"duration_s": 5.0, "mean_lifespan_s": 0.0}}}, "mean_lifespan_s"),
            ({"trace": {"generator": {"duration_s": 5.0, "burst_factor": -1.0}}}, "burst_factor"),
            ({"aging_beta": -5.0}, "aging_beta"),
            ({"trace": {"schema_version": SCHEMA_VERSION, "entries": [dict(TRACE_ROW, wieght=2.0)]}}, "wieght"),
            ({"trace": {"schema_version": SCHEMA_VERSION, "entries": [TRACE_ROW], "notes": "x"}}, "notes"),
            ({"ablations": {"warm_start": "no"}}, "warm_start"),
            ({"ablations": {"prefix_cache": 0}}, "prefix_cache"),
            ({"seed": 7.0}, "seed"),
            ({"seed": -5, "trace": {"schema_version": SCHEMA_VERSION, "entries": [TRACE_ROW]}}, "seed"),
            ({"landscape": {"k_true": 2.7}}, "k_true"),
            ({"ablations": {"fixed_n": True}}, "fixed_n"),
            ({"pipelines": 5}, "pipelines"),
            ({"pipelines": "visual-tracking"}, "pipelines"),
            ({"pipelines": []}, "pipelines"),
            ({"pipelines": ["bogus"]}, "unknown pipeline template 'bogus'"),
            ({"pipelines": ["code-generation", "wide-search", "code-generation"]},
             "'code-generation'] are named more than once"),
            ({"drift": [BANDWIDTH, dict(BANDWIDTH, link=[2, 2])]}, "joins a tier to itself"),
            ({"drift": 5}, "drift"),
            ({"output_dir": 5}, "output_dir"),
            ({"landscape": {"noise_scale": float("nan")}}, "noise_scale"),
            ({"landscape": {"noise_scale": 1e999}}, "#landscape: noise_scale"),
            ({"landscape": {"noise_scale": -0.1}}, "#landscape: noise_scale"),
            ({"planning_budget_s": True}, "planning_budget_s"),
            ({"aging_beta": True}, "aging_beta"),
            ({"aging_beta": 10**400}, "aging_beta is out of range"),
            ({"landscape": {"difficulty": True}}, "difficulty"),
            ({"landscape": {"noise_scale": "0.1"}}, "noise_scale"),
            ({"trace": {"generator": {"duration_s": "20"}}}, "duration_s"),
            ({"replan_budget_s": "3"}, "replan_budget_s"),
            ({"drift": [{"time": 1.0, "kind": "bandwidth", "link": [True, 2], "factor": 0.5}]}, "link"),
            ({"drift": [{"time": "1", "kind": "bandwidth", "link": [0, 1], "factor": 0.5}]}, "time"),
            ({"trace": {"schema_version": SCHEMA_VERSION, "entries": [dict(TRACE_ROW, a_slo=True)]}}, "a_slo"),
            ({"topology": dict(TOPOLOGY, tiers=[dict(TIER, machine_count=True), TIER])}, "machine_count"),
            ({"topology": {**TOPOLOGY, "bandwidth_mbps": [[1000, "200"], [200, 1000]]}}, "bandwidth_mbps"),
            ({"drift": [{"time": 1.0, "kind": "bandwidth", "link": [1, 2], "factor": float("inf")}]}, "factor"),
            ({"topology": dict(TOPOLOGY, tiers=[dict(TIER, unit_cost=float("inf")), TIER])}, "unit_cost"),
            ({"topology": {**TOPOLOGY, "bandwidth_mbps": [[1000, float("inf")], [200, 1000]]}}, "bandwidth_mbps"),
            ({"trace": {"schema_version": SCHEMA_VERSION, "entries": [dict(TRACE_ROW, weight=float("inf"))]}}, "weight"),
            ({"trace": {"schema_version": SCHEMA_VERSION, "entries": [dict(TRACE_ROW, l_slo=float("inf"))]}}, "l_slo"),
            ({"drift": [{"time": 1.0, "kind": "accuracy", "template": ["code-generation"], "delta": -0.1}]},
             "template must be a string"),
            ({"topology": {**TOPOLOGY, "link_latency": [[0.0]]}}, "'link_latency'"),
            ({"topology": dict(TOPOLOGY, tiers=[dict(TIER, unit_csot=3.0), TIER])}, "'unit_csot'"),
            ({"topology": dict(TOPOLOGY, tiers=[dict(TIER, name=7), TIER])}, "name must be a string"),
            ({"trace": {"schema_version": SCHEMA_VERSION, "entries": {}}}, "entries must be a list"),
            ({"trace": {"schema_version": SCHEMA_VERSION, "entries": ""}}, "entries must be a list"),
            ({"trace": {"schema_version": SCHEMA_VERSION, "entries": [TRACE_ROW], "generator": [[0, 1]]}},
             "'generator']; allowed"),
            (
                {
                    "trace": {
                        "schema_version": SCHEMA_VERSION,
                        "entries": [TRACE_ROW],
                        "generator": {"duration_s": -5, "nonsense": [1, 2]},
                    }
                },
                "'generator']; allowed",
            ),
            ({"trace": "generator-trace.json"}, "'generator']; allowed"),
            ({"topology": dict(TOPOLOGY, tiers=[dict(TIER, machine_count=10**400), TIER])},
             "machine_count is out of range"),
            ({"topology": "huge-tier.json"}, "machine_count is out of range"),
            ({"topology": dict(TOPOLOGY, tiers=[dict(TIER, machine_count=10**308)] * 2)}, "expects inf arrivals"),
            ({"topology": dict(TOPOLOGY, tiers=[dict(TIER, machine_count=10**12), TIER])},
             "more than MAX_TRACE_ARRIVALS"),
        ],
        ids=[
            "drift-link-out-of-range",
            "drift-link-not-a-pair",
            "drift-template-without-landscape",
            "drift-without-time",
            "drift-negative-time",
            "drift-zero-factor",
            "drift-nan-delta",
            "drift-unknown-key",
            "bandwidth-drift-with-template",
            "bandwidth-drift-with-delta",
            "accuracy-drift-with-link",
            "accuracy-drift-with-factor",
            "unknown-top-level-key",
            "unknown-ablation-key",
            "unknown-generator-key",
            "unknown-trace-key",
            "unknown-landscape-key",
            "negative-planning-budget",
            "zero-gpuh-budget",
            "zero-replan-budget",
            "zero-k-true",
            "negative-duration",
            "zero-load",
            "zero-mean-lifespan",
            "negative-burst-factor",
            "negative-aging-beta",
            "unknown-trace-entry-key",
            "unknown-trace-top-level-key",
            "string-warm-start",
            "integer-prefix-cache",
            "float-seed",
            "negative-seed",
            "float-k-true",
            "boolean-fixed-n",
            "integer-pipelines",
            "string-pipelines",
            "empty-pipelines",
            "unknown-pipeline",
            "repeated-pipelines",
            "drift-link-from-a-tier-to-itself",
            "integer-drift",
            "integer-output-dir",
            "nan-literal",
            "overflowing-noise-scale",
            "negative-noise-scale",
            "boolean-planning-budget",
            "boolean-aging-beta",
            "huge-integer-aging-beta",
            "boolean-difficulty",
            "string-noise-scale",
            "string-duration",
            "string-replan-budget",
            "boolean-drift-link",
            "string-drift-time",
            "boolean-trace-a-slo",
            "boolean-machine-count",
            "string-bandwidth",
            "overflowing-drift-factor",
            "overflowing-unit-cost",
            "overflowing-bandwidth",
            "overflowing-trace-weight",
            "overflowing-trace-l-slo",
            "list-drift-template",
            "unknown-topology-key",
            "unknown-tier-key",
            "integer-tier-name",
            "object-trace-entries",
            "string-trace-entries",
            "list-trace-generator",
            "listed-trace-with-generator",
            "trace-file-with-generator",
            "huge-integer-machine-count",
            "huge-integer-machine-count-in-topology-file",
            "machine-counts-summing-past-the-float-range",
            "machine-count-expecting-too-many-arrivals",
        ],
    )
    def test_invalid_config_rejected_at_load(self, tmp_path, capsys, overrides, message):
        obj = {
            "schema_version": SCHEMA_VERSION,
            "pipelines": ["code-generation"],
            "trace": {"generator": {"duration_s": 5.0, "load": 0.2}},
        }
        obj.update(overrides)
        for name, side in SIDE_FILES.items():
            (tmp_path / name).write_text(json.dumps(side))
        path = self._write(tmp_path, {k: v for k, v in obj.items() if v is not None})
        # json.dumps spells inf as the constant Infinity; write it as the
        # number literal 1e999, which json parses to inf
        Path(path).write_text(Path(path).read_text().replace("Infinity", "1e999"))
        with pytest.raises(SchemaError, match=message):
            sim_config_from_file(path)
        assert cli_main(["simulate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "trace",
        [{"generator": {"duration_s": 5.0, "load": 0.2}}, {"schema_version": SCHEMA_VERSION, "entries": [TRACE_ROW]}],
        ids=["generated-trace", "listed-trace"],
    )
    def test_negative_seed_is_reported_at_the_config(self, tmp_path, capsys, trace):
        # checked where the seed is read, before the trace generator sees it
        path = self._write(
            tmp_path, {"schema_version": SCHEMA_VERSION, "seed": -3, "pipelines": ["code-generation"], "trace": trace}
        )
        assert cli_main(["simulate", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {path}: seed must be >= 0, got -3\n"

    def test_oversized_search_pool_is_refused_at_load(self, tmp_path, capsys, monkeypatch):
        # wide-search on 30 tiers: 648 configurations x C(32, 3) = 4,960
        # placements; a listed trace runs no frontier, so the load refuses it
        # before any landscape is generated, not the first arrival
        generated = []
        monkeypatch.setattr(presets, "generate_landscape", lambda *args, **kwargs: generated.append(args))
        topology = {
            "schema_version": SCHEMA_VERSION,
            "tiers": [TIER] * 30,
            "bandwidth_mbps": [[1000] * 30] * 30,
            "link_latency_s": [[0.0] * 30] * 30,
        }
        trace = {"schema_version": SCHEMA_VERSION, "entries": [dict(TRACE_ROW, template="wide-search")]}
        obj = {"schema_version": SCHEMA_VERSION, "topology": topology, "pipelines": ["wide-search"], "trace": trace}
        path = self._write(tmp_path, obj)
        with pytest.raises(SpaceTooLargeError, match="search pool has 3214080 plans"):
            sim_config_from_file(path)
        assert cli_main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"refused: {path}: pipeline 'wide-search': search pool has 3214080 plans")
        assert generated == []

    @pytest.mark.parametrize(
        "overrides, where, message",
        [
            (
                {"drift": [BANDWIDTH, dict(BANDWIDTH, link=[0, 9])]},
                "#drift[1]",
                "drift link [0, 9] is not a pair of tiers in 0..2",
            ),
            (
                {"drift": [BANDWIDTH, dict(BANDWIDTH, link=[1, 1])]},
                "#drift[1]",
                "drift link [1, 1] joins a tier to itself, whose transfers are free",
            ),
            (
                {"drift": [{"time": 1.0, "kind": "accuracy", "template": "bogus", "delta": -0.1}]},
                "#drift[0]",
                "accuracy drift names pipeline 'bogus', which has no landscape",
            ),
            (
                {"trace": {"schema_version": SCHEMA_VERSION, "entries": [dict(TRACE_ROW, template="wide-search")]}},
                "#trace",
                "trace references unknown pipeline 'wide-search'",
            ),
        ],
        ids=["drift-link", "drift-link-to-itself", "drift-template", "trace-template"],
    )
    def test_reference_errors_name_their_place_in_the_config(self, tmp_path, capsys, overrides, where, message):
        obj = {
            "schema_version": SCHEMA_VERSION,
            "pipelines": ["code-generation"],
            "trace": {"generator": {"duration_s": 5.0, "load": 0.2}},
            **overrides,
        }
        path = self._write(tmp_path, obj)
        assert cli_main(["simulate", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {path}{where}: {message}\n"


# every key a sim config can hold, each set; the trace is short, so that a
# substituted in-range value never generates a long one
SWEEP_BASE = {
    "schema_version": SCHEMA_VERSION,
    "seed": 3,
    "topology": TOPOLOGY,
    "pipelines": ["code-generation", "visual-tracking"],
    "landscape": {"difficulty": "rugged", "k_true": 3, "noise_scale": 0.05},
    "trace": {
        "generator": {"duration_s": 5.0, "load": 0.5, "burst_factor": 1.5, "hardness": "easy", "mean_lifespan_s": 20.0}
    },
    "drift": [BANDWIDTH, {"time": 2.0, "kind": "accuracy", "template": "code-generation", "delta": -0.1}],
    "ablations": {"warm_start": False, "prefix_cache": True, "profiler": "fixed", "fixed_n": 50},
    "planning_budget_s": None,
    "planning_budget_gpuh": 0.001,
    "replan_budget_s": 2.0,
    "aging_beta": 0.5,
    "scheduler": "fcfs",
    "output_dir": "out",
}
SWEEP_LISTED = dict(
    SWEEP_BASE,
    trace={"schema_version": SCHEMA_VERSION, "entries": [dict(TRACE_ROW, weight=2.0)]},
)
SWEEP_VALUES = (None, True, False, 0, -1, 2.5, float("inf"), "", "x", [], [0, 1], [[0, 1]], {}, {"x": 1})


def _key_paths(obj, path=()):
    """Every key path into nested JSON objects and arrays, parents first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _key_paths(value, path + (key,))


class TestConfigSweep:
    def test_every_single_value_substitution_loads_or_is_refused(self, tmp_path):
        # each value of SWEEP_VALUES at each key path of both bases: the load
        # either succeeds or raises SchemaError or SpaceTooLargeError, and
        # every other exception is collected, so one run reports them all
        path = tmp_path / "sim.json"
        escapes = []
        for base in (SWEEP_BASE, SWEEP_LISTED):
            path.write_text(json.dumps(base))
            assert sim_config_from_file(str(path)).planning_budget_gpuh == 0.001  # the base itself loads
            for keys in _key_paths(base):
                for value in SWEEP_VALUES:
                    obj = json.loads(json.dumps(base))
                    parent = obj
                    for key in keys[:-1]:
                        parent = parent[key]
                    parent[keys[-1]] = value
                    # inf as the number literal 1e999, not the constant Infinity
                    path.write_text(json.dumps(obj).replace("Infinity", "1e999"))
                    try:
                        sim_config_from_file(str(path))
                    except (SchemaError, SpaceTooLargeError):
                        pass
                    except Exception as e:  # any other exception escapes the load: collect them all
                        escapes.append((keys, value, repr(e)))
        assert escapes == []


class TestCli:
    def test_plan_prints_candidates(self, capsys, tmp_path):
        telemetry = tmp_path / "steps.jsonl"
        audit = tmp_path / "profiling.jsonl"
        rc = cli_main(
            [
                "plan",
                "--pipeline",
                "code-generation",
                "--a-slo",
                "0.5",
                "--l-slo",
                "0.2",
                "--budget-s",
                "1.0",
                "--seed",
                "3",
                "--telemetry",
                str(telemetry),
                "--profiling-log",
                str(audit),
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "candidates" in out and out["steps"] >= 1
        steps = [json.loads(line) for line in telemetry.read_text().splitlines()]
        assert len(steps) == out["steps"]
        audit_rows = [json.loads(line) for line in audit.read_text().splitlines()]
        assert len(audit_rows) == out["steps"]
        assert {"configuration", "n", "verdict", "gpu_seconds"} <= set(audit_rows[0])
        # the audit log is the step log projected onto its keys, two of them renamed
        renamed = {"n": "samples", "gpu_seconds": "profiling_gpu_s"}
        assert audit_rows == [{k: step[renamed.get(k, k)] for k in audit_rows[0]} for step in steps]

    def test_plan_options_left_unset_take_the_constructor_defaults(self, capsys):
        # --difficulty, --noise-scale and --fixed-n restate no default: left
        # unset, the plan is the one with generate_landscape's and
        # SearchConfig's defaults spelled out
        landscape = inspect.signature(generate_landscape).parameters
        spelled = [
            "--difficulty", landscape["difficulty"].default,
            "--noise-scale", str(landscape["noise_scale"].default),
            "--fixed-n", str(SearchConfig().fixed_n),
        ]
        outputs = []
        for extra in ([], spelled):
            argv = ["plan", "--pipeline", "code-generation", "--a-slo", "0.5", "--l-slo", "0.2", "--budget-s", "0.5"]
            assert cli_main(argv + ["--profiler", "fixed", "--seed", "4"] + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and json.loads(outputs[0])["steps"] >= 1

    def test_simulate_and_compare(self, tmp_path, capsys):
        cfg = {
            "schema_version": SCHEMA_VERSION,
            "seed": 2,
            "pipelines": ["code-generation"],
            "planning_budget_s": 1.0,
            "trace": {"generator": {"duration_s": 10.0, "load": 0.3, "mean_lifespan_s": 20.0}},
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        rc = cli_main(["simulate", "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        totals = json.loads(capsys.readouterr().out)
        assert "avg_goodput" in totals
        assert (tmp_path / "out" / "metrics.json").exists()

        rc = cli_main(
            [
                "compare",
                "--config",
                str(path),
                "--variants",
                "full,fcfs",
                "--output",
                str(tmp_path / "cmp.csv"),
            ]
        )
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)  # each row's keys sorted
        with open(tmp_path / "cmp.csv", newline="") as fh:
            header, *written = list(csv.reader(fh))
        # the header is the row keys in the order compare builds them, and
        # each CSV row is a printed row (None as an empty field)
        assert header == [
            "variant",
            "avg_goodput",
            "goodput_factor",
            "deployment_dollars",
            "profiling_dollars",
            "profiling_gpu_seconds",
            "mean_response_time_s",
            "completed",
        ]
        assert [r["variant"] for r in printed] == ["full", "fcfs"]
        assert written == [["" if row[k] is None else str(row[k]) for k in header] for row in printed]

    def test_compare_variants_ignore_the_config_switches(self, tmp_path, capsys, monkeypatch):
        # a config that turns every switch away from the full planner: full
        # still runs the full planner and each other variant changes one
        # switch; the config's fixed_n still sets the fixed-n sample size
        cfg = {
            "schema_version": SCHEMA_VERSION,
            "pipelines": ["code-generation"],
            "scheduler": "fcfs",
            "ablations": {"warm_start": False, "prefix_cache": False, "profiler": "fixed", "fixed_n": 40},
            "trace": {"generator": {"duration_s": 5.0, "load": 0.2}},
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        ran = []
        totals = dict.fromkeys(("avg_goodput", "deployment_dollars", "profiling_dollars", "profiling_gpu_seconds"), 1.0)
        report = simmod.MetricsReport((), (), (), totals | {"mean_response_time_s": 1.0, "completed": 1})
        monkeypatch.setattr(simmod, "run", lambda config: ran.append(config) or report)
        variants = ["full", "fixed-n", "no-warm-start", "no-cache", "fcfs"]
        assert cli_main(["compare", "--config", str(path), "--variants", ",".join(variants)]) == 0
        capsys.readouterr()
        full = SearchConfig(warm_start=True, prefix_cache=True, profiler="guided", fixed_n=40)
        want = {
            "full": (full, "greedy"),
            "fixed-n": (dataclasses.replace(full, profiler="fixed"), "greedy"),
            "no-warm-start": (dataclasses.replace(full, warm_start=False), "greedy"),
            "no-cache": (dataclasses.replace(full, prefix_cache=False), "greedy"),
            "fcfs": (full, "fcfs"),
        }
        assert {name: (c.search, c.scheduler) for name, c in zip(variants, ran)} == want

    def test_compare_rejects_a_repeated_variant_before_loading_the_config(self, capsys, monkeypatch):
        loaded = []
        monkeypatch.setattr(simmod, "sim_config_from_file", loaded.append)
        assert cli_main(["compare", "--config", "sim.json", "--variants", "full,fcfs,full"]) == 1
        assert capsys.readouterr().err == "error: variants ['full'] are named more than once\n"
        assert loaded == []

    def test_compare_rejects_unknown_variant(self, tmp_path, capsys):
        cfg = {
            "schema_version": SCHEMA_VERSION,
            "pipelines": ["code-generation"],
            "trace": {"generator": {"duration_s": 5.0, "load": 0.2}},
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        rc = cli_main(["compare", "--config", str(path), "--variants", "full,bogus"])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err
        for variants in ("", ","):  # no variant at all: name the presets
            assert cli_main(["compare", "--config", str(path), "--variants", variants]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "no-warm-start" in err

    @pytest.mark.parametrize("budget", [["--budget-s", "nan"], ["--budget-s", "-3"], ["--budget-gpuh", "inf"]])
    def test_plan_rejects_a_budget_that_is_not_finite_and_non_negative(self, capsys, budget):
        rc = cli_main(["plan", "--pipeline", "code-generation", "--a-slo", "0.5", "--l-slo", "0.5", *budget])
        assert rc == 1
        assert "budget must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--a-slo", "1.5"], "a_slo must be in (0, 1]"),
            (["--difficulty", "bogus"], "unknown difficulty 'bogus'"),
            (["--noise-scale", "-1"], "noise_scale must be finite and >= 0"),
            (["--profiler", "fixed", "--fixed-n", "0"], "fixed_n must be >= 1"),
            (["--profiler", "fixed", "--fixed-n", "1001"], "fixed_n must be >= 1 and <= DEFAULT_N_MAX (1000), got 1001"),
            (["--seed", "-1"], "--seed must be at least 0, got -1"),
        ],
        ids=[
            "a-slo-above-one",
            "unknown-difficulty",
            "negative-noise-scale",
            "zero-fixed-n",
            "fixed-n-above-n-max",
            "negative-seed",
        ],
    )
    def test_plan_argument_errors_exit_1(self, capsys, args, message):
        argv = ["plan", "--pipeline", "code-generation", "--a-slo", "0.5", "--l-slo", "0.5", "--budget-s", "1"]
        assert cli_main(argv + args) == 1  # argparse keeps the last --a-slo
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_a_value_error_mid_run_is_not_reported_as_an_input_error(self, tmp_path, capsys, monkeypatch):
        cfg = {
            "schema_version": SCHEMA_VERSION,
            "pipelines": ["code-generation"],
            "trace": {"generator": {"duration_s": 20.0, "load": 0.5, "hardness": "easy"}},
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["simulate", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 1  # the scheduler admitted it

        def broken(*args, **kwargs):
            raise ValueError("scheduler bug")

        monkeypatch.setattr(simmod, "greedy_goodput", broken)
        with pytest.raises(ValueError, match="scheduler bug"):
            cli_main(["simulate", "--config", str(path), "--output-dir", str(tmp_path / "out")])

    def test_plan_rejects_a_pipeline_with_a_string_is_batching(self, tmp_path, capsys):
        pipeline = {
            "schema_version": SCHEMA_VERSION,
            "name": "one",
            "operators": [{"id": 0, "knob_domain": ["a", "b"], "is_batching": "no"}],
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(pipeline))
        rc = cli_main(["plan", "--pipeline", str(path), "--a-slo", "0.5", "--l-slo", "0.5"])
        assert rc == 1
        assert "is_batching must be true or false" in capsys.readouterr().err

    def test_plan_refuses_an_oversized_resource_lattice_before_profiling(self, tmp_path, capsys, monkeypatch):
        profiled = []
        monkeypatch.setattr(search, "profile_plan", lambda *args, **kwargs: profiled.append(args))
        m = search.MAX_LATTICE_OPERATORS + 1
        pipeline = {
            "schema_version": SCHEMA_VERSION,
            "name": "long-chain",
            "operators": [{"id": i, "knob_domain": ["x"]} for i in range(m)],
            "edges": [[i, i + 1] for i in range(m - 1)],
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(pipeline))
        log = tmp_path / "profiling.jsonl"
        argv = ["plan", "--pipeline", str(path), "--a-slo", "0.5", "--l-slo", "100", "--profiling-log", str(log)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("refused:")
        assert not log.exists() or log.read_text() == ""
        assert profiled == []

    def test_plan_refuses_an_oversized_search_pool_before_building_a_plan(self, tmp_path, capsys, monkeypatch):
        # 5^6 configurations x C(3 + 6 - 1, 6) = 28 placements = 437,500 plans
        built = []
        monkeypatch.setattr(PlanPoint, "__post_init__", lambda self: built.append(self))
        pipeline = {
            "schema_version": SCHEMA_VERSION,
            "name": "chain-6x5",
            "operators": [{"id": i, "knob_domain": list("abcde")} for i in range(6)],
            "edges": [[i, i + 1] for i in range(5)],
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(pipeline))
        argv = ["plan", "--pipeline", str(path), "--a-slo", "0.5", "--l-slo", "0.5", "--budget-s", "0.01"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        cap = SEARCH_POOL_MAX_PLANS
        assert err == f"refused: pipeline 'chain-6x5': search pool has 437500 plans, exhaustive cap is {cap}\n"
        assert built == []

    def test_oracle_mode_and_refusal(self, capsys):
        rc = cli_main(["oracle", "--mode", "goodput", "--random", "3", "--queries", "4"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3 and all(r["ratio"] <= 1.5 for r in rows)

        rc = cli_main(["oracle", "--mode", "goodput", "--random", "1", "--queries", "9"])
        assert rc == 2
        assert "refused" in capsys.readouterr().err

    def test_oracle_defaults_bound_the_greedy_in_both_modes(self, capsys):
        # the oracles pack per operator, as the greedy does, so the optimum
        # bounds the greedy: goodput ratio at most 1, cost ratio at least 1
        assert cli_main(["oracle", "--mode", "goodput"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 10 and all(r["ratio"] <= 1 + 1e-9 for r in rows)
        assert cli_main(["oracle", "--mode", "cost"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 10 and all(r["ratio"] >= 1 - 1e-9 for r in rows)

    @pytest.mark.parametrize("flag, value", [("--random", "-1"), ("--random", "0"), ("--queries", "0"), ("--plans", "0")])
    def test_oracle_counts_below_one_are_schema_errors(self, capsys, flag, value):
        assert cli_main(["oracle", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flag} must be at least 1, got {value}" in err

    def test_plan_rejects_a_pipeline_with_a_misspelt_operator_key(self, tmp_path, capsys):
        pipeline = {
            "schema_version": SCHEMA_VERSION,
            "name": "one",
            "operators": [{"id": 0, "knob_domain": ["a", "b"], "is_batchng": True}],
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(pipeline))
        rc = cli_main(["plan", "--pipeline", str(path), "--a-slo", "0.5", "--l-slo", "0.5"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}#operators[0]: unknown keys ['is_batchng']")

    def test_oracle_negative_seed_is_a_schema_error(self, capsys):
        assert cli_main(["oracle", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed must be at least 0, got -1" in err

    def test_simulate_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{notjson", encoding="utf-8")
        rc = cli_main(["simulate", "--config", str(path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err
        path.write_text("[1, 2]", encoding="utf-8")  # JSON, but not an object
        assert cli_main(["simulate", "--config", str(path)]) == 1
        assert "expected a JSON object" in capsys.readouterr().err
        path.write_bytes(b'\xff\xfe{"a":1}')  # not UTF-8
        with pytest.raises(SchemaError, match="not UTF-8"):
            sim_config_from_file(str(path))
        assert cli_main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not UTF-8" in err
