"""Command-line interface.

Subcommands: ``plan`` (single-query search, prints the candidate set),
``simulate`` (full trace-driven run), ``compare`` (ablation variants on
identical seeds), ``oracle`` (exhaustive scheduling verification; gated
behind this explicit subcommand because of its exponential cost).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import sim as simmod
from .model import Query, SchemaError, SpaceTooLargeError, _schema_errors, load_pipeline, load_topology
from .presets import PIPELINE_TEMPLATES, default_topology, get_pipeline, run_landscapes
from .scheduler import (
    greedy_cost,
    greedy_goodput,
    ilp_oracle_limited,
    ilp_oracle_unlimited,
    oracle_instance_from_candidates,
    random_scheduling_instance,
)
from .search import SearchConfig, single_query_search

#: ``full`` states every switch, so no config's ablations leak into a variant
_FULL = {"warm_start": True, "prefix_cache": True, "profiler": "guided", "scheduler": "greedy"}
ABLATION_PRESETS = {
    "full": _FULL,
    "fixed-n": _FULL | {"profiler": "fixed"},
    "no-warm-start": _FULL | {"warm_start": False},
    "no-cache": _FULL | {"prefix_cache": False},
    "fcfs": _FULL | {"scheduler": "fcfs"},
}


def _add_plan_parser(sub) -> None:
    p = sub.add_parser("plan", help="search one query and print its candidate set")
    p.add_argument("--pipeline", default="visual-tracking", help="template name or pipeline JSON path")
    p.add_argument("--topology", default=None, help="topology JSON path (default: built-in 3-tier)")
    p.add_argument("--a-slo", type=float, required=True)
    p.add_argument("--l-slo", type=float, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--budget-s", type=float, default=5.0, help="response budget, simulated seconds")
    group.add_argument("--budget-gpuh", type=float, default=None, help="profiling budget, GPU-hours")
    p.add_argument("--seed", type=int, default=0)
    # left unset, --difficulty, --noise-scale and --fixed-n take the defaults
    # of generate_landscape and SearchConfig
    p.add_argument("--difficulty", default=None)
    p.add_argument("--noise-scale", type=float, default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--profiler", choices=["guided", "fixed"], default="guided")
    p.add_argument("--fixed-n", type=int, default=None)
    p.add_argument("--telemetry", default=None, help="write per-step telemetry JSON lines here")
    p.add_argument("--profiling-log", default=None, help="write per-plan profiling audit JSON lines here")


def _given(args, *names: str) -> dict:
    """The options among ``names`` set on the command line, by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_plan(args) -> int:
    if args.seed < 0:
        raise SchemaError(f"--seed must be at least 0, got {args.seed}")
    if args.pipeline in PIPELINE_TEMPLATES:
        pipeline = get_pipeline(args.pipeline)
    else:
        pipeline = load_pipeline(args.pipeline)
    topology = load_topology(args.topology) if args.topology else default_topology()
    with _schema_errors("invalid plan arguments"):
        options = _given(args, "difficulty", "noise_scale")
        land = run_landscapes(args.seed, {pipeline.name: pipeline}, topology.num_tiers, **options)[pipeline.name]
        query = Query(
            id="cli",
            pipeline=pipeline,
            a_slo=args.a_slo,
            l_slo=args.l_slo,
            response_budget_s=args.budget_s if args.budget_gpuh is None else None,
            profiling_budget_gpuh=args.budget_gpuh,
        )
        config = SearchConfig(prefix_cache=not args.no_cache, profiler=args.profiler, **_given(args, "fixed_n"))
    result = single_query_search(query, land, topology, seed=args.seed, config=config)
    # a --profiling-log row is its step row's audit keys, two of them renamed
    audit_rows = [
        {k: row[k] for k in ("configuration", "placement", "verdict", "accuracy_estimate")}
        | {"n": row["samples"], "gpu_seconds": row["profiling_gpu_s"]}
        for row in result.telemetry
    ]
    for path, rows in ((args.telemetry, result.telemetry), (args.profiling_log, audit_rows)):
        if path:
            with open(path, "w") as fh:
                fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    out = {
        "steps": len(result.telemetry),
        "charged_time_s": result.charged_time_s,
        "gpu_seconds": result.gpu_seconds,
        "profiling_dollars": result.dollars,
        "time_to_first_feasible_s": result.time_to_first_feasible_s,
        "candidates": [c.to_dict() for c in result.candidates.plans],
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    config = simmod.sim_config_from_file(args.config)
    if args.output_dir:
        config.output_dir = args.output_dir
    report = simmod.run(config)
    print(json.dumps(report.totals, sort_keys=True, indent=2))
    return 0


def _cmd_compare(args) -> int:
    names = [v.strip() for v in args.variants.split(",") if v.strip()]
    unknown = [n for n in names if n not in ABLATION_PRESETS]
    if unknown or not names:
        raise SchemaError(f"unknown or no variants {unknown}; have {sorted(ABLATION_PRESETS)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise SchemaError(f"variants {repeated} are named more than once")
    config = simmod.sim_config_from_file(args.config)
    result = simmod.compare(config, {n: ABLATION_PRESETS[n] for n in names})
    if args.output:
        simmod.write_compare_csv(result["rows"], args.output)
    print(json.dumps(result["rows"], sort_keys=True, indent=2))
    return 0


def _cmd_oracle(args) -> int:
    for flag, least in (("random", 1), ("queries", 1), ("plans", 1), ("seed", 0)):
        if getattr(args, flag) < least:
            raise SchemaError(f"--{flag} must be at least {least}, got {getattr(args, flag)}")
    if args.topology:
        topology = load_topology(args.topology)
    else:
        # oracle-scale default: 2 tiers x 2 machines
        from .model import Tier, TierTopology

        topology = TierTopology(
            tiers=(
                Tier(name="device", machine_count=2, capacity=1.0, unit_cost=0.05),
                Tier(name="cloud", machine_count=2, capacity=1.0, unit_cost=3.67),
            ),
            bandwidth_mbps=((25_000.0, 400.0), (400.0, 3_000.0)),
            link_latency_s=((0.001, 0.005), (0.005, 0.001)),
        )
    rows = []
    for i in range(args.random):
        candidates = random_scheduling_instance(
            seed=args.seed + i,
            topology=topology,
            n_queries=args.queries,
            max_plans=args.plans,
        )
        inst = oracle_instance_from_candidates(candidates, topology)
        if args.mode == "goodput":
            greedy_val = greedy_goodput(candidates, topology).admitted_weight()
            opt = ilp_oracle_limited(inst)
            rows.append({"instance": i, "greedy": greedy_val, "optimal": opt, "ratio": greedy_val / opt if opt else 1.0})
        else:
            dep = greedy_cost(candidates, topology)
            opt = ilp_oracle_unlimited(inst)
            rows.append(
                {
                    "instance": i,
                    "greedy_dollars": dep.hourly_dollars,
                    "optimal_dollars": opt,
                    "ratio": dep.hourly_dollars / opt if opt else 1.0,
                }
            )
    print(json.dumps(rows, sort_keys=True, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tierplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_plan_parser(sub)

    p = sub.add_parser("simulate", help="run a full trace-driven simulation")
    p.add_argument("--config", required=True, help="SimConfig JSON path")
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("compare", help="run planner ablation variants on identical seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--variants", default="full,fixed-n,no-warm-start,fcfs")
    p.add_argument("--output", default=None, help="side-by-side CSV path")

    p = sub.add_parser("oracle", help="exhaustive scheduling oracles (exponential; small instances only)")
    p.add_argument("--mode", choices=["goodput", "cost"], default="goodput")
    p.add_argument("--random", type=int, default=10, help="number of random instances")
    p.add_argument("--queries", type=int, default=6)
    p.add_argument("--plans", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--topology", default=None)

    args = parser.parse_args(argv)
    commands = {"plan": _cmd_plan, "simulate": _cmd_simulate, "compare": _cmd_compare, "oracle": _cmd_oracle}
    try:
        return commands[args.command](args)
    except SpaceTooLargeError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except (SchemaError, OSError) as e:
        # a malformed input or an unreadable or unwritable file; any other
        # exception is a bug and propagates with its traceback
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
