"""Span and counter registry for the traced benchmark pass.

The benchmark measures layers from the outside: :func:`install` rebinds
the public entry points of ``profiler``, ``search``, ``model``, ``latency``,
``scheduler`` and ``sim`` to timing wrappers, in the module that calls each
one (``sim`` and ``search`` import their callees by name, so patching the
defining module alone would time nothing). Nothing under ``src/`` is
edited; wrappers only observe arguments and return values, so a traced
run must write the same ``metrics.json`` bytes as an untraced one.

A span's self time is its duration minus the time its child spans cover.
Spans live in memory and are summarised by :meth:`Tracer.layer_metrics`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

SESSION = "search.single_query_search"


class Tracer:
    """Per-name call counts, total and self seconds, plus free counters."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span called ``name``."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return wrapped

    # -- summary -------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers of one traced simulation (see README.md)."""
        c = self.counts
        out: dict[str, float] = {}

        def spans(name: str, *fields: str) -> None:
            for f in fields:
                if f == "calls":
                    out[f"{name}.calls"] = self.calls[name]
                elif f == "self_s":
                    out[f"{name}.self_s"] = self.self_s[name]
                else:
                    out[f"{name}.total_s"] = self.total_s[name]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        spans("profiler.profile_plan", "calls", "self_s")
        out["profiler.samples_per_verdict"] = ratio(c["profiler.samples"], self.calls["profiler.profile_plan"])
        out["profiler.inconclusive_frac"] = ratio(c["profiler.inconclusive"], self.calls["profiler.profile_plan"])
        out["profiler.cache_saved_frac"] = 1.0 - ratio(c["profiler.charged_s"], c["profiler.uncached_s"])
        spans("profiler.stratify", "calls", "self_s")

        spans(SESSION, "calls", "self_s")
        spans("search.gp_predict", "calls", "self_s")
        out["search.gp_predict.rows"] = c["search.gp_predict.rows"]
        spans("search.gp_fit", "calls", "self_s")
        spans("search.history_update_gaps", "calls", "self_s")
        spans("search.history_vote", "calls", "self_s")
        out["search.history_entries"] = ratio(c["search.history_entries"], self.calls[SESSION])
        spans("search.pareto_optimize", "calls", "self_s")
        out["search.pareto_optimize.variants"] = c["search.pareto_variants"]
        out["search.steps"] = c["search.steps"]
        out["search.feasible_step_frac"] = ratio(c["search.feasible_steps"], c["search.steps"])
        for branch in ("history", "cmbo", "cold"):
            out[f"search.branch_{branch}_frac"] = ratio(c[f"search.branch_{branch}"], c["search.steps"])

        spans("model.enumerate_search_pool", "calls", "self_s")

        out["latency.pipeline_latency.self_s"] = self.self_s["latency.pipeline_latency"]
        out["latency.pipeline_latency.calls_search"] = c["latency.calls_search"]
        out["latency.pipeline_latency.calls_sim"] = c["latency.calls_sim"]

        spans("scheduler.greedy_goodput", "calls", "self_s")
        out["scheduler.greedy_goodput.plans_ranked"] = c["scheduler.plans_ranked"]
        out["scheduler.admit_frac"] = ratio(c["scheduler.admitted"], c["scheduler.offered"])
        spans("scheduler.replan", "calls", "total_s")
        out["scheduler.queue_wait_s"] = ratio(c["scheduler.queue_wait_s"], c["scheduler.admitted"])

        out["sim.run.self_s"] = self.self_s["sim.run"]
        out["sim.events"] = c["sim.events"]
        out["sim.host_ms_per_event"] = ratio(1000.0 * wall_s, c["sim.events"])
        return out


def install(tracer: Tracer, tp) -> None:
    """Rebind every traced entry point of the ``tierplan`` package ``tp``.

    ``tp`` is passed in (rather than imported here) so that the caller
    decides where the package is imported from.
    """
    sim, search, scheduler, latency = tp.sim, tp.search, tp.scheduler, tp.latency
    c = tracer.counts

    # profiler: called by name from search
    profile_span = tracer.span("profiler.profile_plan", search.profile_plan)

    def profile_plan(plan, land, *args, **kwargs):
        outcome = profile_span(plan, land, *args, **kwargs)
        c["profiler.samples"] += outcome.samples_used
        c["profiler.inconclusive"] += outcome.verdict is tp.model.Verdict.INCONCLUSIVE
        c["profiler.charged_s"] += outcome.profiling_cost
        c["profiler.uncached_s"] += outcome.samples_used * sum(land.timings_for(plan.configuration).base_compute_s)
        return outcome

    search.profile_plan = profile_plan
    search.stratify = tracer.span("profiler.stratify", search.stratify)

    # model: pool enumeration, called by name from search
    search.enumerate_search_pool = tracer.span("model.enumerate_search_pool", search.enumerate_search_pool)

    # search: GP surrogate methods, history session methods, Pareto pruning
    predict_span = tracer.span("search.gp_predict", search.GaussianProcess.predict)

    def gp_predict(self, xq):
        c["search.gp_predict.rows"] += len(xq) if getattr(xq, "ndim", 1) > 1 else 1
        return predict_span(self, xq)

    search.GaussianProcess.predict = gp_predict
    search.GaussianProcess.fit = tracer.span("search.gp_fit", search.GaussianProcess.fit)
    search.HistorySession.update_gaps = tracer.span("search.history_update_gaps", search.HistorySession.update_gaps)
    search.HistorySession.vote_indices = tracer.span("search.history_vote", search.HistorySession.vote_indices)
    history_session = search.HistoryStore.session

    def session(self, *args, **kwargs):
        snapshot = history_session(self, *args, **kwargs)
        c["search.history_entries"] += len(snapshot)
        return snapshot

    search.HistoryStore.session = session
    pareto_span = tracer.span("search.pareto_optimize", search.pareto_optimize)

    def pareto_optimize(*args, **kwargs):
        variants = pareto_span(*args, **kwargs)
        c["search.pareto_variants"] += len(variants)
        return variants

    search.pareto_optimize = pareto_optimize

    # the planning session itself, called by name from sim and scheduler
    session_span = tracer.span(SESSION, search.single_query_search)

    def single_query_search(*args, **kwargs):
        result = session_span(*args, **kwargs)
        c["sim.events"] += 1  # each session schedules one "ready" event
        for step in result.telemetry:
            c["search.steps"] += 1
            c["search.feasible_steps"] += bool(step["feasible"])
            c[f"search.branch_{step['branch']}"] += 1
        return result

    sim.single_query_search = single_query_search
    scheduler.single_query_search = single_query_search

    # latency model, called through the module object everywhere
    latency_span = tracer.span("latency.pipeline_latency", latency.pipeline_latency)

    def pipeline_latency(*args, **kwargs):
        c["latency.calls_search" if tracer.in_span(SESSION) else "latency.calls_sim"] += 1
        return latency_span(*args, **kwargs)

    latency.pipeline_latency = pipeline_latency

    # scheduler: greedy admission and warm replans, called by name from sim
    age_weights = sim.age_weights
    waited: dict[str, float] = {}  # pending seconds at the latest epoch

    def aged(pending, now, *args, **kwargs):
        waited.clear()
        waited.update((qid, now - since) for qid, _, since in pending)
        return age_weights(pending, now, *args, **kwargs)

    sim.age_weights = aged
    greedy_span = tracer.span("scheduler.greedy_goodput", sim.greedy_goodput)

    def greedy_goodput(candidates, topology, state=None, weights=None):
        before = set(state.assignments) if state is not None else set()
        result = greedy_span(candidates, topology, state=state, weights=weights)
        admitted = set(result.assignments) - before
        c["scheduler.offered"] += len(candidates)
        c["scheduler.plans_ranked"] += sum(len(cset) for _, cset in candidates)
        c["scheduler.admitted"] += len(admitted)
        c["scheduler.queue_wait_s"] += sum(waited[qid] for qid in admitted)
        c["sim.events"] += len(admitted)  # each admission schedules one "release" event
        return result

    sim.greedy_goodput = greedy_goodput
    sim.replan = tracer.span("scheduler.replan", sim.replan)
