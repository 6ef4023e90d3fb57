"""Span coverage: every traced layer fires on the workload chosen for it.

``sim``, ``search`` and ``scheduler`` import their callees by name, so the
tracer rebinds each name in the module that calls it. If a later change
renames or re-routes one of those calls, the span would silently report
zero; these tests fail instead. Each case runs a shortened trace in a
fresh worker process, exactly as the benchmark does.

    python3 -m pytest perfbench/test_spans.py -q
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SHORT_S = {"mixed": 60.0, "wide-cluster": 40.0, "contended-drift": 120.0}

COMMON = [
    "profiler.profile_plan",
    "profiler.stratify",
    "search.single_query_search",
    "search.gp_predict",
    "search.gp_fit",
    "search.pareto_optimize",
    "model.enumerate_search_pool",
    "scheduler.greedy_goodput",
]
HISTORY = ["search.history_update_gaps", "search.history_vote"]
FIRES = {
    "mixed": COMMON + HISTORY,
    "wide-cluster": COMMON + HISTORY,
    "contended-drift": COMMON + ["scheduler.replan"],
}
SILENT = {
    "mixed": ["scheduler.replan"],
    "wide-cluster": ["scheduler.replan"],
    "contended-drift": HISTORY,
}


@functools.lru_cache(maxsize=None)
def worker(workload: str, trace: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    cmd += ["--duration-s", str(SHORT_S[workload]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(FIRES))
def test_expected_spans_fire(workload):
    layers = worker(workload, 1)["layers"]
    assert [s for s in FIRES[workload] if layers[f"{s}.calls"] == 0] == []
    assert [s for s in SILENT[workload] if layers[f"{s}.calls"] != 0] == []
    assert layers["latency.pipeline_latency.calls_search"] > 0
    assert layers["latency.pipeline_latency.calls_sim"] > 0
    assert layers["sim.run.self_s"] > 0


@pytest.mark.parametrize("workload", sorted(FIRES))
def test_tracing_changes_no_output(workload):
    untraced, traced = worker(workload, 0), worker(workload, 1)
    assert traced["sha256"] == untraced["sha256"]
    assert untraced["failed_checks"] == traced["failed_checks"] == []
    assert len(untraced["plan_s"]) == traced["layers"]["search.single_query_search.calls"]
