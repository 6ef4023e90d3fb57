"""Repository benchmark: pinned ``tierplan simulate`` workloads.

    python3 perfbench/run.py --workload mixed --seed 7 --seconds 55 --trace 0

Runs the workload's replicas in fresh worker processes, one after
another, in whole rounds until ``--seconds`` are used up, checks every
output, and prints as its last line one JSON object with ``correct``,
``attempted`` (the simulations run), ``failed`` (simulations whose outputs
failed a check) and ``metrics``. ``--trace 0`` reports the end-to-end metrics of
untraced runs; ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics plus the tracing overhead. A line before
the result carries an informational block that is not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
REPLICA_STRIDE = 1000
CHILD_ENV = {
    # one BLAS thread, on every commit measured, so GP predict does not
    # compete with the interpreter for the cores
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "plan_ms_p50": "ms",
    "plan_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "avg_goodput": "queries",
    "profiling_gpu_s": "s",
    "response_s": "s",
    "served_frac": "ratio",
    "dollars_per_goodput_h": "USD/query-h",
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(untraced: list[dict], replicas: int) -> dict[str, float]:
    """Host metrics over every untraced simulation of the run; simulated
    metrics over the first ``replicas`` ones, so they repeat exactly."""
    plan_ms = [1000.0 * s for r in untraced for s in r["plan_s"]]
    totals = [r["totals"] for r in untraced[:replicas]]
    goodput_h = sum(t["avg_goodput"] * t["horizon_s"] / 3600.0 for t in totals)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "plan_ms_p50": statistics.median(plan_ms),
        "plan_ms_p90": statistics.quantiles(plan_ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(s for r in untraced for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "avg_goodput": statistics.mean(t["avg_goodput"] for t in totals),
        "profiling_gpu_s": statistics.mean(t["profiling_gpu_seconds"] for t in totals),
        "response_s": statistics.mean(t["mean_response_time_s"] for t in totals),
        "served_frac": sum(t["completed"] for t in totals) / sum(t["arrived"] for t in totals),
        "dollars_per_goodput_h": sum(t["deployment_dollars"] for t in totals) / goodput_h,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced simulations; untraced[i] ran traced[i]'s seed."""
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    totals = [r["totals"] for r in traced]
    failed = sum(t["rejected"] + t["degraded"] + t["pending_at_end"] for t in totals)
    out["failed_frac"] = failed / sum(t["arrived"] for t in totals)
    out["trace.overhead_frac"] = statistics.median(t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)) - 1.0
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_per_event"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def src_lines() -> int:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's pinned seed")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tierplan" / "__init__.py").is_file():
        return fail(f"no tierplan sources under {ROOT / 'src'}")
    with open(HERE / "workloads.json") as fh:
        table = json.load(fh)["workloads"]
    if args.workload not in table:
        return fail(f"unknown workload {args.workload!r}; have {sorted(table)}")
    workload = table[args.workload]
    seed = args.seed if args.seed is not None else workload["seed"]
    replicas = 1 if args.trace else workload["replicas"]

    # Replica i plans with seed + REPLICA_STRIDE * i. A run makes whole
    # rounds of the same replicas while the next round still fits, so every
    # commit times the same simulations, however many rounds it fits. In a
    # traced run each replica runs untraced, then traced.
    seeds = [seed + REPLICA_STRIDE * i for i in range(replicas)]
    kinds = [False, True] if args.trace else [False]
    results: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while not results or time.perf_counter() - start + longest <= args.seconds:
        t0 = time.perf_counter()
        for replica_seed in seeds:
            for traced in kinds:
                timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - start))
                try:
                    results.append(run_worker(args.workload, replica_seed, traced, timeout))
                except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
                    return fail(f"{args.workload} seed {replica_seed}: {exc}")
        longest = max(longest, time.perf_counter() - t0)

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    failed = sum(1 for r in results if r["failed_checks"])
    problems = sorted({p for r in results for p in r["failed_checks"]})
    shas: dict[int, set[str]] = {}
    for r in results:
        shas.setdefault(r["seed"], set()).add(r["sha256"])
    if any(len(found) > 1 for found in shas.values()):
        problems.append("metrics.json sha256 differs between runs of one seed (traced or untraced)")

    if args.trace:
        metrics = {name: (value, layer_unit(name)) for name, value in per_layer(untraced, traced).items()}
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end(untraced, replicas).items()}

    info = {
        "workload": args.workload,
        "seed": seed,
        "duration_s": results[0]["duration_s"],
        "simulations": {"untraced": len(untraced), "traced": len(traced)},
        "plan_sessions": sum(len(r["plan_s"]) for r in untraced),
        "arrived": results[0]["totals"]["arrived"],
        "pool_sizes": results[0]["pool_sizes"],
        "metrics_sha256": [r["sha256"] for r in untraced],
        "sim_wall_s": [r["wall_s"] for r in untraced],
        "problems": problems,
        "nproc": os.cpu_count(),
        **results[0]["env"],
        "commit": commit(),
        "src_lines": src_lines(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(results),
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
