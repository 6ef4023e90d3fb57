"""Discrete-event simulation driver.

Arrivals from a trace flow through single-query planning (charged in
simulated seconds), join the pending queue, and get admitted by scheduler
epochs that re-run the greedy over all pending queries with starvation
aging. Completions release machines; drift events mutate the topology or a
landscape, violated running queries release their resources and replan
warm-started from their own observations (not models).

The event loop is single-threaded and fully deterministic for a fixed
config: per-query seeds derive from (sim seed, arrival index), so replays
are byte-identical. Drift monitoring is event-granular. No plan is held
while it misses an SLO on the current topology and landscape: a violating
admission is undone before anything records it, a running plan that a
drift breaks is freed, and either way the query replans, so goodput is the
number of held plans. A pending query's candidates are re-validated
against the latency SLO on the current topology when it becomes ready and
at every drift; their accuracy is checked at admission. Latencies come
from the topology's memo, which a drift starts afresh.

Each fact is kept once. A live query has one entry (query, candidates,
observations), a pending one another (enqueue time, revalidated
candidates), a running one its admission in the deployment state; a
query's status records only how it ended. An admission is freed by its
release event or by a drift that violates its plan, and the run drains
every release event, so none is held at the end. Freeing writes its one
``deployment.csv`` row; the rows whose [admitted_s, released_s) covers a
time are the running set then. Each heap event carries its handler. The
goodput and cost series keep one point per event time, the state after
that time's events, up to the last event that changed state (the
horizon), and both totals are folds of them by ``_integral``.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import latency as latmod
from .landscape import ArrivalTrace, GroundTruthLandscape, generate_trace
from .model import (
    SCHEMA_VERSION,
    PipelineSpec,
    PlanPoint,
    Query,
    SchemaError,
    SpaceTooLargeError,
    TierTopology,
    _read,
    _schema_errors,
    _typed,
    check_search_pool_size,
    load_json_file,
    topology_from_dict,
)
from .presets import default_topology, get_pipeline, run_landscapes
from .scheduler import (
    DEFAULT_AGING_BETA,
    DeploymentState,
    age_weights,
    greedy_goodput,
    replan,
)
from .search import CandidateSet, HistoryStore, Observations, SearchConfig, SearchResult, single_query_search


@dataclass(frozen=True)
class DriftEvent:
    time: float
    kind: str  # "bandwidth" or "accuracy"
    link: tuple[int, int] | None = None
    factor: float | None = None
    template: str | None = None
    delta: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"drift time must be finite and >= 0, got {self.time}")
        if self.kind == "bandwidth":
            if self.link is None or self.factor is None:
                raise ValueError("bandwidth drift needs link and factor")
            if not self.factor > 0:
                raise ValueError(f"bandwidth drift factor must be > 0, got {self.factor}")
            other_kind = ("template", "delta")
        elif self.kind == "accuracy":
            if self.template is None or self.delta is None:
                raise ValueError("accuracy drift needs template and delta")
            if not math.isfinite(self.delta):
                raise ValueError(f"accuracy drift delta must be finite, got {self.delta}")
            other_kind = ("link", "factor")
        else:
            raise ValueError(f"unknown drift kind {self.kind!r}")
        for name in other_kind:
            if getattr(self, name) is not None:
                raise ValueError(f"{self.kind} drift takes no {name}")


@dataclass
class SimConfig:
    topology: TierTopology
    pipelines: dict[str, PipelineSpec]
    landscapes: dict[str, GroundTruthLandscape]
    trace: ArrivalTrace
    seed: int = 0
    planning_budget_s: float | None = 5.0
    planning_budget_gpuh: float | None = None
    replan_budget_s: float = 5.0
    aging_beta: float = DEFAULT_AGING_BETA
    scheduler: str = "greedy"  # or "fcfs"
    search: SearchConfig = field(default_factory=SearchConfig)
    drift: tuple[DriftEvent, ...] = ()
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise SchemaError(f"seed must be >= 0, got {self.seed}")
        if (self.planning_budget_s is None) == (self.planning_budget_gpuh is None):
            raise ValueError("exactly one planning budget form must be set")
        for name in ("planning_budget_s", "planning_budget_gpuh", "replan_budget_s"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (math.isfinite(self.aging_beta) and self.aging_beta >= 0):
            raise ValueError(f"aging_beta must be finite and >= 0, got {self.aging_beta}")
        if self.scheduler not in ("greedy", "fcfs"):
            raise ValueError(f"unknown scheduler mode {self.scheduler!r}")
        _check_references(self.trace, self.drift, self.pipelines, self.landscapes, self.topology, "SimConfig")


def _check_references(trace, drift, pipelines, landscapes, topology, where: str) -> None:
    """Raise SchemaError, at ``where``#trace or ``where``#drift[i], for a trace
    entry or drift event naming a pipeline, landscape or tier the config
    lacks, or a bandwidth drift on a link from a tier to itself."""
    for entry in trace.entries:
        if entry.template not in pipelines:
            raise SchemaError(f"{where}#trace: trace references unknown pipeline {entry.template!r}")
        if entry.template not in landscapes:
            raise SchemaError(f"{where}#trace: no landscape for pipeline {entry.template!r}")
    tiers = range(topology.num_tiers)
    for i, event in enumerate(drift):
        loc = f"{where}#drift[{i}]"
        if event.kind == "bandwidth" and not (
            len(event.link) == 2 and all(isinstance(m, int) and m in tiers for m in event.link)
        ):
            raise SchemaError(f"{loc}: drift link {list(event.link)} is not a pair of tiers in 0..{len(tiers) - 1}")
        if event.kind == "bandwidth" and event.link[0] == event.link[1]:
            raise SchemaError(f"{loc}: drift link {list(event.link)} joins a tier to itself, whose transfers are free")
        if event.kind == "accuracy" and event.template not in landscapes:
            raise SchemaError(f"{loc}: accuracy drift names pipeline {event.template!r}, which has no landscape")


def search_config_from_ablations(ablations: dict, base: SearchConfig, where: str = "ablations") -> SearchConfig:
    """``base`` with the planner switches named in an ablation mapping
    (warm_start, prefix_cache, profiler, fixed_n) applied."""
    fields = _read(ablations, {"warm_start": bool, "prefix_cache": bool, "profiler": str, "fixed_n": int}, where)
    with _schema_errors(where):
        return replace(base, **fields)


def sim_config_from_file(path: str) -> SimConfig:
    """Build a SimConfig from a JSON file; all validation happens here,
    before any simulation starts. A key the file leaves out takes the
    default of the constructor it feeds."""
    kinds = {
        "seed": int, "topology": (str, dict), "pipelines": list, "landscape": dict, "trace": (str, dict),
        "drift": list, "ablations": dict, "planning_budget_s": (float, None), "planning_budget_gpuh": (float, None),
        "replan_budget_s": float, "aging_beta": float, "scheduler": str, "output_dir": str,
    }
    fields = _read(load_json_file(path), kinds, path, versioned=True)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    topology = fields.pop("topology", None)
    if isinstance(topology, str):
        topology = topology_from_dict(load_json_file(resolve(topology)), where=topology)
    else:
        topology = default_topology() if topology is None else topology_from_dict(topology, where=f"{path}#topology")

    names = fields.pop("pipelines", ["visual-tracking"])
    if not names or not all(type(name) is str for name in names):
        raise SchemaError(f"{path}: pipelines must be a non-empty list of pipeline names, got {names!r}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise SchemaError(f"{path}: pipelines {repeated} are named more than once")
    with _schema_errors(path):
        pipelines = {name: get_pipeline(name) for name in names}
    for pipe in pipelines.values():  # at load, whether or not a trace generator enumerates it
        try:
            check_search_pool_size(pipe, topology.num_tiers)
        except SpaceTooLargeError as e:
            raise SpaceTooLargeError(f"{path}: {e}") from e

    seed = fields.get("seed", SimConfig.seed)
    if seed < 0:  # before the trace generator sees it
        raise SchemaError(f"{path}: seed must be >= 0, got {seed}")
    where = f"{path}#landscape"
    land = _read(fields.pop("landscape", {}), {"difficulty": (str, float), "k_true": int, "noise_scale": float}, where)
    with _schema_errors(where):
        landscapes = run_landscapes(seed, pipelines, topology.num_tiers, **land)

    trace = fields.pop("trace", {})
    if isinstance(trace, str):
        trace = ArrivalTrace.from_dict(load_json_file(resolve(trace)), where=trace)
    elif "entries" in trace:
        trace = ArrivalTrace.from_dict(trace, where=f"{path}#trace")
    else:
        where = f"{path}#trace.generator"
        gen = _read(trace, {"generator": dict}, f"{path}#trace").get("generator", {})
        kinds = dict.fromkeys(("duration_s", "load", "burst_factor", "mean_lifespan_s"), float) | {"hardness": str}
        gen = _read(gen, kinds, where)
        with _schema_errors(where):
            trace = generate_trace(landscapes=landscapes, topology=topology, seed=seed, **gen)

    drift = []
    kinds = {"time": float, "kind": str, "link": list, "factor": float, "template": str, "delta": float}
    for i, event in enumerate(fields.pop("drift", [])):
        where = f"{path}#drift[{i}]"
        event = _read(event, kinds, where)
        with _schema_errors(where):
            if "link" in event:
                event["link"] = tuple(_typed(m, "link", int, where) for m in event["link"])
            drift.append(DriftEvent(**event))

    search = search_config_from_ablations(fields.pop("ablations", {}), SearchConfig(), f"{path}#ablations")
    if "planning_budget_gpuh" in fields:  # a GPU-hour budget replaces the default time budget
        fields.setdefault("planning_budget_s", None)
    _check_references(trace, drift, pipelines, landscapes, topology, path)
    with _schema_errors(path):
        return SimConfig(
            topology=topology,
            pipelines=pipelines,
            landscapes=landscapes,
            trace=trace,
            search=search,
            drift=tuple(drift),
            **fields,
        )


@dataclass
class QueryRecord:
    id: str
    template: str
    arrival_time: float
    a_slo: float
    l_slo: float
    lifespan: float
    #: How the query ended: "completed", "rejected", "degraded" or
    #: "pending-at-end"; empty while it is live.
    status: str = ""
    time_to_first_feasible_s: float | None = None
    planning_time_s: float = 0.0
    gpu_seconds: float = 0.0
    profiling_dollars: float = 0.0
    search_steps: int = 0
    candidate_count: int = 0
    admitted_at: float | None = None
    released_at: float | None = None
    hourly_cost: float | None = None
    replans: int = 0


@dataclass
class MetricsReport:
    goodput_series: tuple[tuple[float, int], ...]
    cost_series: tuple[tuple[float, float], ...]
    queries: tuple[QueryRecord, ...]
    totals: dict
    # deployment.csv: one row per admission, in admission order, ties by query id
    admissions: tuple[tuple, ...] = ()

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "goodput_series": [[t, g] for t, g in self.goodput_series],
            "cost_series": [[t, c] for t, c in self.cost_series],
            "queries": [asdict(q) for q in self.queries],
            "totals": self.totals,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _integral(series, per: float = 1.0) -> float:
    """Integral of a right-continuous step series up to its last point, each
    step's width counted in units of ``per`` seconds."""
    total = 0.0
    for (t0, v), (t1, _) in zip(series, series[1:]):
        total += v * (t1 - t0) / per
    return total


class _Live(NamedTuple):
    """A query that may still be admitted or replan, and its latest session's output."""

    query: Query
    candidates: CandidateSet
    observations: Observations


class _Sim:
    def __init__(self, config: SimConfig):
        self.cfg = config
        self.topology = config.topology
        self.landscapes = dict(config.landscapes)
        self.state = DeploymentState.fresh(config.topology)
        self.records: dict[str, QueryRecord] = {}
        # dropped once the query completes, is rejected or ends degraded
        self.live: dict[str, _Live] = {}
        # query id -> (time it became pending, its candidates within its
        # latency SLO on the current topology, at their current latency)
        self.pending: dict[str, tuple[float, CandidateSet]] = {}
        self.goodput_series: list[tuple[float, int]] = [(0.0, 0)]
        self.cost_series: list[tuple[float, float]] = [(0.0, 0.0)]
        self.history = HistoryStore()
        self.admissions: list[tuple] = []  # one deployment.csv row per freed admission
        self._seq = 0
        self.heap: list = []

    def push(self, time: float, handler, payload) -> None:
        """Queue ``handler(time, payload)``; the unique seq orders ties, so handlers are never compared."""
        self._seq += 1
        heapq.heappush(self.heap, (time, self._seq, handler, payload))

    def query_seed(self, idx: int, salt: int = 0) -> int:
        return int(np.random.SeedSequence((self.cfg.seed, idx, salt)).generate_state(1)[0])

    def _mark(self, t: float) -> None:
        """Record cost and goodput, the number of held plans, at ``t``, in
        place of a point already at ``t``."""
        start = len(self.goodput_series) - (self.goodput_series[-1][0] == t)
        self.goodput_series[start:] = [(t, len(self.state.assignments))]
        self.cost_series[start:] = [(t, self.state.hourly_cost())]

    # -- event handlers ----------------------------------------------------

    def on_arrival(self, t: float, idx: int) -> None:
        entry = self.cfg.trace.entries[idx]
        qid = f"q{idx:04d}"
        query = Query(
            id=qid,
            pipeline=self.cfg.pipelines[entry.template],
            a_slo=entry.a_slo,
            l_slo=entry.l_slo,
            response_budget_s=self.cfg.planning_budget_s,
            profiling_budget_gpuh=self.cfg.planning_budget_gpuh,
            weight=entry.weight,
        )
        rec = QueryRecord(
            id=qid,
            template=entry.template,
            arrival_time=t,
            a_slo=entry.a_slo,
            l_slo=entry.l_slo,
            lifespan=entry.lifespan,
        )
        self.records[qid] = rec
        result = single_query_search(
            query,
            self.landscapes[entry.template],
            self.topology,
            history=self.history,
            seed=self.query_seed(idx),
            config=self.cfg.search,
        )
        rec.time_to_first_feasible_s = result.time_to_first_feasible_s
        self._charge(t, query, result)

    def on_ready(self, t: float, qid: str) -> None:
        rec = self.records[qid]
        if len(self.live[qid].candidates) == 0:
            rec.status = "rejected" if rec.replans == 0 else "degraded"
            del self.live[qid]
            self._mark(t)
            return
        self.pending[qid] = (t, self._revalidate(qid))
        self.epoch(t)

    def on_release(self, t: float, payload) -> None:
        qid, admitted_at = payload
        rec = self.records[qid]
        if qid not in self.state.assignments or rec.admitted_at != admitted_at:
            return  # stale release (query was drift-released and replanned)
        self._free(t, qid)
        rec.status = "completed"
        del self.live[qid]
        self.epoch(t)

    def on_drift(self, t: float, event: DriftEvent) -> None:
        if event.kind == "bandwidth":
            self.topology = self.topology.with_bandwidth_scaled(event.link, event.factor)
        else:
            self.landscapes[event.template] = self.landscapes[event.template].with_accuracy_shift(event.delta)
        for qid in [qid for qid, a in self.state.assignments.items() if self._violates(qid, a.plan.plan)]:
            self._free(t, qid)
            self._start_replan(t, qid)
        for qid, (since, _) in self.pending.items():
            self.pending[qid] = (since, self._revalidate(qid))
        self.epoch(t)

    def _free(self, t: float, qid: str) -> None:
        """Release query ``qid``'s admission at time ``t``, at its release
        event or a drift that violates its plan, and record its release time
        and deployment row."""
        a = self.state.assignments[qid]
        self.state.release(qid)
        self.records[qid].released_at = t
        placement = "|".join(f"{tier}:{m}" for tier, m in a.machines)
        resources = "|".join(str(f) for f in a.plan.plan.resources)
        self.admissions.append((qid, self.records[qid].admitted_at, t, placement, resources, a.plan.hourly_cost))

    def _charge(self, t: float, query: Query, result: SearchResult) -> None:
        """Charge a finished planning session to its query, keep its
        candidates and observations, and queue the query's ready event."""
        rec = self.records[query.id]
        rec.planning_time_s += result.charged_time_s
        rec.gpu_seconds += result.gpu_seconds
        rec.profiling_dollars += result.dollars
        rec.search_steps += len(result.telemetry)
        rec.candidate_count = len(result.candidates)
        self.live[query.id] = _Live(query, result.candidates, result.observations)
        self.push(t + result.charged_time_s, self.on_ready, query.id)

    def _latency(self, qid: str, plan: PlanPoint) -> float:
        """Modelled latency of ``plan`` for query ``qid`` on the current topology."""
        rec = self.records[qid]
        timings = self.landscapes[rec.template].timings_for(plan.configuration)
        return latmod.plan_latency(plan, self.cfg.pipelines[rec.template], self.topology, timings)

    def _violates(self, qid: str, plan: PlanPoint) -> bool:
        """Whether ``plan`` misses an SLO of query ``qid`` on the current
        topology and landscape."""
        rec = self.records[qid]
        land = self.landscapes[rec.template]
        return self._latency(qid, plan) > rec.l_slo or land.accuracy_mean(plan.configuration) < rec.a_slo

    def _revalidate(self, qid: str) -> CandidateSet:
        """Query ``qid``'s candidates within its latency SLO on the current
        topology, at their current latency."""
        rec = self.records[qid]
        kept = []
        for cand in self.live[qid].candidates.plans:
            lat = self._latency(qid, cand.plan)
            if lat <= rec.l_slo:
                kept.append(replace(cand, latency_s=lat))
        return CandidateSet.build(kept)

    def _start_replan(self, t: float, qid: str) -> None:
        rec = self.records[qid]
        rec.replans += 1
        live = self.live[qid]
        result = replan(
            live.query,
            self.landscapes[rec.template],
            self.topology,
            prior=live.observations,
            history=self.history,
            seed=self.query_seed(int(qid[1:]), salt=rec.replans),
            config=self.cfg.search,
            budget_s=self.cfg.replan_budget_s,
        )
        self._charge(t, live.query, result)

    # -- scheduling --------------------------------------------------------

    def epoch(self, t: float) -> None:
        live: list[tuple[Query, CandidateSet]] = []
        for qid in sorted(self.pending, key=lambda q: self.records[q].arrival_time):
            cset = self.pending[qid][1]
            if len(cset) > 0:
                live.append((self.live[qid].query, cset))
                continue
            # a drift left no candidate within the latency SLO
            del self.pending[qid]
            self._start_replan(t, qid)

        before = set(self.state.assignments)
        if self.cfg.scheduler == "fcfs":
            for query, cset in live:
                if not self.state.place(query.id, cset.cheapest(), query.weight):
                    break  # strict head-of-line blocking
        elif live:
            aged = age_weights(
                [(q.id, q.weight, self.pending[q.id][0]) for q, _ in live], t, self.cfg.aging_beta
            )
            greedy_goodput(live, self.topology, state=self.state, weights=aged)

        for qid in sorted(set(self.state.assignments) - before):
            del self.pending[qid]
            plan = self.state.assignments[qid].plan
            if self._violates(qid, plan.plan):
                # undone before anything records it; the freed units are offered at the next event
                self.state.release(qid)
                self._start_replan(t, qid)
                continue
            rec = self.records[qid]
            rec.admitted_at = t
            rec.hourly_cost = plan.hourly_cost
            self.push(t + rec.lifespan, self.on_release, (qid, t))
        self._mark(t)

    # -- main loop ----------------------------------------------------------

    def run(self) -> MetricsReport:
        for idx, entry in enumerate(self.cfg.trace.entries):
            self.push(entry.arrival_time, self.on_arrival, idx)
        for event in self.cfg.drift:
            self.push(event.time, self.on_drift, event)
        while self.heap:
            t, _, handler, payload = heapq.heappop(self.heap)
            handler(t, payload)
        for qid in self.pending:
            self.records[qid].status = "pending-at-end"
        # the last event that changed state; a stale release marks nothing
        horizon = self.goodput_series[-1][0]
        records = tuple(self.records[q] for q in sorted(self.records))
        statuses = [r.status for r in records]
        totals = {
            "arrived": len(records),
            "completed": statuses.count("completed"),
            "degraded": statuses.count("degraded"),
            "rejected": statuses.count("rejected"),
            "pending_at_end": statuses.count("pending-at-end"),
            "avg_goodput": _integral(self.goodput_series) / horizon if horizon > 0 else 0.0,
            "deployment_dollars": _integral(self.cost_series, 3600.0),
            "profiling_dollars": float(sum(r.profiling_dollars for r in records)),
            "profiling_gpu_seconds": float(sum(r.gpu_seconds for r in records)),
            "horizon_s": horizon,
        }
        ttff = [r.time_to_first_feasible_s for r in records if r.time_to_first_feasible_s is not None]
        totals["mean_response_time_s"] = float(np.mean(ttff)) if ttff else None
        return MetricsReport(
            goodput_series=tuple(self.goodput_series),
            cost_series=tuple(self.cost_series),
            queries=records,
            totals=totals,
            admissions=tuple(sorted(self.admissions, key=lambda row: (row[1], row[0]))),
        )


def run(config: SimConfig) -> MetricsReport:
    """Run the full simulation; deterministic for a fixed config."""
    report = _Sim(config).run()
    if config.output_dir:
        write_report(report, config.output_dir)
    return report


def write_report(report: MetricsReport, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "metrics.json"), "w") as fh:
        fh.write(report.to_json())
    tables = {
        "goodput.csv": (["time_s", "goodput"], report.goodput_series),
        "cost.csv": (["time_s", "dollars_per_hour"], report.cost_series),
        "queries.csv": ([f.name for f in fields(QueryRecord)], [astuple(q) for q in report.queries]),
        "deployment.csv": (
            ["query", "admitted_s", "released_s", "placement", "resources", "hourly_cost"],
            report.admissions,
        ),
    }
    for name, (header, rows) in tables.items():
        with open(os.path.join(outdir, name), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


def compare(config: SimConfig, variants: dict[str, dict]) -> dict:
    """Run planner variants on identical seeds and trace; emit side-by-side
    metrics and improvement factors relative to the first variant."""
    results = {}
    for name, overrides in variants.items():
        ablations = {k: v for k, v in overrides.items() if k != "scheduler"}
        search = search_config_from_ablations(ablations, config.search)
        cfg = replace(config, search=search, scheduler=overrides.get("scheduler", config.scheduler), output_dir=None)
        results[name] = run(cfg)
    names = list(variants)
    base = results[names[0]]
    base_goodput = base.totals["avg_goodput"]
    rows = []
    for name in names:
        r = results[name]
        g = r.totals["avg_goodput"]
        rows.append(
            {
                "variant": name,
                "avg_goodput": g,
                "goodput_factor": (g / base_goodput) if base_goodput > 0 else (1.0 if g == base_goodput else None),
                "deployment_dollars": r.totals["deployment_dollars"],
                "profiling_dollars": r.totals["profiling_dollars"],
                "profiling_gpu_seconds": r.totals["profiling_gpu_seconds"],
                "mean_response_time_s": r.totals["mean_response_time_s"],
                "completed": r.totals["completed"],
            }
        )
    return {"rows": rows, "reports": results}


def write_compare_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
