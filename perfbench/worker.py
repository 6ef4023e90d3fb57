"""One benchmark simulation in a fresh process.

Loads a pinned workload config, times ``sim_config_from_file`` a few
times (the set-up), runs ``sim.run`` once, writing its report files to a
temp dir as ``tierplan simulate`` does, and prints one JSON object on
stdout: host timings, the simulated totals, the ``metrics.json`` sha256,
the output checks and, with ``--trace 1``, the per-layer numbers.
``run.py`` starts this script once per repetition.

    python3 perfbench/worker.py --workload mixed --seed 7 --duration-s 600

reproduces the full-length configuration the workload was pinned from.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # timed sim_config_from_file calls; setup_s is their median

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tierplan  # noqa: E402
from tierplan import scheduler, search, sim  # noqa: E402
from tierplan.model import enumerate_search_pool  # noqa: E402

from spans import Tracer, install  # noqa: E402


def write_config(workload: dict, duration_s: float, outdir: str) -> str:
    """The pinned config with the bench trace length, topology path made absolute."""
    src = HERE / workload["config"]
    with open(src) as fh:
        cfg = json.load(fh)
    cfg["trace"]["generator"]["duration_s"] = duration_s
    if isinstance(cfg.get("topology"), str):
        cfg["topology"] = str((src.parent / cfg["topology"]).resolve())
    path = os.path.join(outdir, "sim.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def timed_sessions(fn, sink: list):
    """``fn`` with one perf_counter pair per call, appended to ``sink``."""

    def wrapped(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        sink.append(time.perf_counter() - t0)
        return result

    return wrapped


def output_checks(report) -> list[str]:
    """Invariants of the simulator's outputs; returns the violated ones."""
    failed = []
    t = report.totals
    if t["completed"] + t["degraded"] + t["rejected"] + t["pending_at_end"] != t["arrived"]:
        failed.append("status counts do not sum to arrived")
    times = [time_s for time_s, _ in report.goodput_series]
    if any(b < a for a, b in zip(times, times[1:])):
        failed.append("goodput_series time decreases")
    return failed


def blas_info() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            out["threads"] = fn()
    return out


def main(argv=None) -> int:
    with open(HERE / "workloads.json") as fh:
        table = json.load(fh)["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(table))
    ap.add_argument("--seed", type=int, default=None, help="SimConfig.seed (default: the config's seed)")
    ap.add_argument("--duration-s", type=float, default=None, help="trace length (default: the bench length)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = table[args.workload]
    duration = args.duration_s if args.duration_s is not None else workload["duration_s"]

    # The temp dir sits inside the checkout: the benchmark writes nowhere else.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = write_config(workload, duration, tmp)
        setup_s = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            config = sim.sim_config_from_file(path)
            setup_s.append(time.perf_counter() - t0)
        if args.seed is not None:
            # The landscapes and the trace stay those of the pinned config seed;
            # the seed argument reseeds every query's planning stream.
            config.seed = args.seed
        # sim.run writes metrics.json and the CSVs, as `tierplan simulate` does.
        config.output_dir = os.path.join(tmp, "out")

        sessions: list[float] = []
        tracer = None
        run = sim.run
        if args.trace:
            tracer = Tracer()
            install(tracer, tierplan)
            tracer.counts["sim.events"] += len(config.trace.entries) + len(config.drift)
            run = tracer.span("sim.run", sim.run)
        else:
            for module in (sim, scheduler):
                module.single_query_search = timed_sessions(module.single_query_search, sessions)

        t0 = time.perf_counter()
        report = run(config)
        wall_s = time.perf_counter() - t0

        with open(os.path.join(config.output_dir, "metrics.json"), "rb") as fh:
            sha256 = hashlib.sha256(fh.read()).hexdigest()

    out = {
        "workload": args.workload,
        "seed": config.seed,
        "duration_s": duration,
        "traced": bool(args.trace),
        "wall_s": wall_s,
        "setup_s": setup_s,
        "plan_s": sessions,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": sha256,
        "failed_checks": output_checks(report),
        "totals": report.totals,
        "pool_sizes": {
            name: len(enumerate_search_pool(pipe, config.topology)) for name, pipe in sorted(config.pipelines.items())
        },
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
        },
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
