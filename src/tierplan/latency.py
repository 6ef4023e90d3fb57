"""Deterministic end-to-end latency and deployment-cost estimation.

Pipeline latency is the longest path of the operator DAG where nodes carry
compute time (scaled by tier speed and resource fraction) and edges carry
transfer time L/B + T0. Operators placed on the same tier are treated as
co-located, so their edges transfer for free; Appendix-grade in-cluster
fabrics contribute negligibly and the within-tier bandwidth entries are
kept for schema completeness only.

All functions are pure and freely concurrent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import RESOURCE_FRACTIONS, PipelineSpec, PlanPoint, TierTopology

#: Default profiling price, dollars per GPU-hour on the reference tier.
DEFAULT_GPU_PRICE_PER_HOUR = 3.67


def transfer_time(size_bytes: float, bandwidth_mbps: float, t0_s: float = 0.0, co_located: bool = False) -> float:
    """Seconds to move ``size_bytes`` over a link: L/B + T0.

    Co-located operators (same machine) transfer for free.
    """
    if co_located:
        return 0.0
    if bandwidth_mbps <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth_mbps}")
    if size_bytes < 0 or t0_s < 0:
        raise ValueError("size and fixed latency must be >= 0")
    return (size_bytes * 8.0 / 1e6) / bandwidth_mbps + t0_s


def compute_time(base_s: float, fraction: float, speed_factor: float, is_batching: bool = False) -> float:
    """Operator compute seconds under a resource fraction and tier speed.

    Non-batching work gets ``fraction`` of the FLOPS, so time scales by
    1/fraction. Batching work shares the machine through batching and keeps
    full FLOPS: the fraction affects cost, not latency.
    """
    if fraction not in RESOURCE_FRACTIONS:
        raise ValueError(f"resource fraction {fraction} not in grid {RESOURCE_FRACTIONS}")
    if speed_factor <= 0:
        raise ValueError("speed factor must be > 0")
    if base_s < 0:
        raise ValueError("base compute time must be >= 0")
    if is_batching:
        return base_s * speed_factor
    return base_s * speed_factor / fraction


@dataclass(frozen=True)
class OperatorTimings:
    """Configuration-resolved performance inputs for one plan.

    ``base_compute_s[i]``: compute seconds of operator i at full resource on
    the reference tier. ``output_bytes[i]``: bytes operator i emits per item.
    ``tier_speed_factors[m]``: compute-time multiplier of tier m relative to
    the reference tier.
    """

    base_compute_s: tuple[float, ...]
    output_bytes: tuple[float, ...]
    tier_speed_factors: tuple[float, ...]


@dataclass(frozen=True)
class LatencyBreakdown:
    node_compute_s: tuple[float, ...]
    edge_transfer_s: dict[tuple[int, int], float]
    critical_path: tuple[str, ...]
    total_s: float

    def to_dict(self) -> dict:
        return {
            "node_compute_s": list(self.node_compute_s),
            "edge_transfer_s": {f"{u}->{v}": s for (u, v), s in sorted(self.edge_transfer_s.items())},
            "critical_path": list(self.critical_path),
            "total_s": self.total_s,
        }


def pipeline_latency(
    plan: PlanPoint,
    pipeline: PipelineSpec,
    topology: TierTopology,
    timings: OperatorTimings,
) -> LatencyBreakdown:
    """Longest-path latency of a placed, configured, resourced pipeline.

    Node and edge weights are accumulated in topological order by dynamic
    programming, so the result is deterministic and exactly equals the
    heaviest source->sink path sum.
    """
    n = len(pipeline)
    if len(timings.base_compute_s) != n or len(timings.output_bytes) != n:
        raise ValueError("timings do not match pipeline size")
    node_w = tuple(
        compute_time(
            timings.base_compute_s[i],
            plan.resources[i],
            timings.tier_speed_factors[plan.placement[i]],
            pipeline.operators[i].is_batching,
        )
        for i in range(n)
    )
    edge_w: dict[tuple[int, int], float] = {}
    for u, v in pipeline.edges:
        tu, tv = plan.placement[u], plan.placement[v]
        edge_w[(u, v)] = transfer_time(
            timings.output_bytes[u],
            topology.bandwidth_mbps[tu][tv],
            topology.link_latency_s[tu][tv],
            co_located=(tu == tv),
        )
    # Raw input originates on the device tier; off-device sources pay ingress.
    for i in pipeline.sources():
        ti = plan.placement[i]
        edge_w[(-1, i)] = transfer_time(
            pipeline.input_bytes,
            topology.bandwidth_mbps[0][ti],
            topology.link_latency_s[0][ti],
            co_located=(ti == 0 or pipeline.input_bytes == 0),
        )

    ready = [0.0] * n
    best_pred: list[int | None] = [None] * n
    seen_any = [False] * n
    for i in pipeline.sources():
        ready[i] = edge_w[(-1, i)] + node_w[i]
        seen_any[i] = True
    for v in range(n):
        preds = pipeline.predecessors(v)
        if not preds:
            continue
        if not all(seen_any[u] for u in preds):
            raise ValueError("pipeline graph is disconnected")
        arrivals = [(ready[u] + edge_w[(u, v)], u) for u in preds]
        arrival, pred = max(arrivals, key=lambda t: (t[0], -t[1]))
        ready[v] = arrival + node_w[v]
        best_pred[v] = pred
        seen_any[v] = True

    path: list[str] = []
    v: int | None = pipeline.sink
    while v is not None:
        path.append(f"op{v}")
        u = best_pred[v]
        if u is not None:
            path.append(f"link{u}->{v}")
        elif edge_w.get((-1, v), 0.0) > 0:
            path.append(f"ingress->{v}")
        v = u
    path.reverse()
    return LatencyBreakdown(
        node_compute_s=node_w,
        edge_transfer_s=edge_w,
        critical_path=tuple(path),
        total_s=ready[pipeline.sink],
    )


def plan_hourly_cost(plan: PlanPoint, topology: TierTopology) -> float:
    """Dollars per hour to hold the plan's resource slices."""
    total = 0.0
    for frac, tier_idx in zip(plan.resources, plan.placement):
        tier = topology.tiers[tier_idx]
        total += frac * tier.capacity * tier.unit_cost
    return total
