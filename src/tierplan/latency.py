"""Deterministic end-to-end latency and deployment-cost estimation.

Pipeline latency is the longest path of the operator DAG where nodes carry
compute time (scaled by tier speed and resource fraction) and edges carry
transfer time L/B + T0. Operators placed on the same tier are treated as
co-located, so their edges transfer for free; Appendix-grade in-cluster
fabrics contribute negligibly and the within-tier bandwidth entries are
kept for schema completeness only.

All functions are pure and freely concurrent; :func:`plan_latency` keeps
its pure result in the topology's memo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PipelineSpec, PlanPoint, TierTopology

#: Default profiling price, dollars per GPU-hour on the reference tier.
DEFAULT_GPU_PRICE_PER_HOUR = 3.67


def transfer_time(size_bytes, bandwidth_mbps: float, t0_s: float = 0.0, co_located: bool = False):
    """Seconds to move ``size_bytes`` over a link: L/B + T0.

    Co-located operators (same machine) transfer for free. ``size_bytes``
    may be an array, which gives an array of the same elementwise values.
    The topology, pipeline and landscape check these inputs when built.
    """
    if co_located:
        return 0.0
    return (size_bytes * 8.0 / 1e6) / bandwidth_mbps + t0_s


def compute_time(base_s, fraction: float, speed_factor: float, is_batching: bool = False):
    """Operator compute seconds under a resource fraction and tier speed.

    Non-batching work gets ``fraction`` of the FLOPS, so time scales by
    1/fraction. Batching work shares the machine through batching and keeps
    full FLOPS: the fraction affects cost, not latency. ``fraction`` is a
    grid value, which :class:`PlanPoint` checks at construction, as the
    landscape checks the others. ``base_s`` may be an array, which gives an
    array of the same elementwise values.
    """
    if is_batching:
        return base_s * speed_factor
    return base_s * speed_factor / fraction


@dataclass(frozen=True)
class OperatorTimings:
    """Configuration-resolved performance inputs for one plan.

    ``base_compute_s[i]``: compute seconds of operator i at full resource on
    the reference tier. ``output_bytes[i]``: bytes operator i emits per item.
    ``tier_speed_factors[m]``: compute-time multiplier of tier m relative to
    the reference tier. :func:`longest_path` also takes ``output_bytes``
    entries that are arrays, one entry per configuration.
    """

    base_compute_s: tuple[float, ...]
    output_bytes: tuple[float, ...]
    tier_speed_factors: tuple[float, ...]


def pipeline_latency(
    plan: PlanPoint,
    pipeline: PipelineSpec,
    topology: TierTopology,
    timings: OperatorTimings,
) -> float:
    """Longest-path latency, in seconds, of a placed, configured, resourced pipeline."""
    speed = timings.tier_speed_factors
    node_w = [
        compute_time(base, frac, speed[tier], op.is_batching)
        for base, frac, tier, op in zip(timings.base_compute_s, plan.resources, plan.placement, pipeline.operators)
    ]
    return float(longest_path(node_w, plan.placement, pipeline, topology, timings))


def plan_latency(
    plan: PlanPoint,
    pipeline: PipelineSpec,
    topology: TierTopology,
    timings: OperatorTimings,
) -> float:
    """:func:`pipeline_latency`, computed once per topology and kept in its
    memo under the plan, pipeline and timings values."""
    key = ("latency", plan, pipeline, timings)
    hit = topology._memo.get(key)
    if hit is None:
        hit = topology._memo[key] = pipeline_latency(plan, pipeline, topology, timings)
    return hit


def longest_path(
    node_w: list, placement: tuple[int, ...], pipeline: PipelineSpec, topology: TierTopology, timings: OperatorTimings
):
    """Heaviest source->sink path sum of a placed pipeline whose operator i
    computes for ``node_w[i]`` seconds.

    Node and edge weights are accumulated in topological order by dynamic
    programming, so the result exactly equals the heaviest path sum.
    ``PipelineSpec`` guarantees that edges point forward and that every
    operator is reachable from a source, so operator order is a topological
    order. Node weights and ``timings.output_bytes`` entries are floats, or
    arrays that broadcast together (one entry per resource allocation or per
    configuration), which give an array whose entries are summed in the
    same order as the float path sums.
    """
    n, out = len(pipeline), timings.output_bytes
    if len(timings.base_compute_s) != n or len(out) != n:
        raise ValueError("timings do not match pipeline size")
    bw, link = topology.bandwidth_mbps, topology.link_latency_s
    ready = []
    for v, preds in enumerate(pipeline.preds):
        tv = placement[v]
        if not preds:  # raw input originates on the device tier; off-device sources pay ingress
            arrival = transfer_time(pipeline.input_bytes, bw[0][tv], link[0][tv], tv == 0 or pipeline.input_bytes == 0)
        else:
            arrivals = []
            for u in preds:
                tu = placement[u]
                arrivals.append(ready[u] + transfer_time(out[u], bw[tu][tv], link[tu][tv], tu == tv))
            arrival = arrivals[0] if len(arrivals) == 1 else np.maximum.reduce(np.broadcast_arrays(*arrivals))
        ready.append(arrival + node_w[v])
    return ready[pipeline.sink]


def plan_hourly_cost(plan: PlanPoint, topology: TierTopology) -> float:
    """Dollars per hour to hold the plan's resource slices."""
    total = 0.0
    for frac, tier_idx in zip(plan.resources, plan.placement):
        tier = topology.tiers[tier_idx]
        total += frac * tier.capacity * tier.unit_cost
    return total
