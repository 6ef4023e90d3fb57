"""Stage-two global planning across concurrent queries.

Under fixed capacity the greedy admits plans by benefit-to-resource ratio
(w/cr) with first-fit-decreasing machine packing; under elastic capacity it
serves everyone with the best benefit-to-dollar plan and bin-packs machines
per tier. Both are validated against exhaustive integer-program oracles on
small instances (the oracles are test/CLI equipment, never the fast path).

The scheduler is invoked serially by the simulation loop and owns its
DeploymentState exclusively; admitted queries run to completion (no
evictions on admission), though replanning may voluntarily release
resources.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .latency import plan_hourly_cost
from .model import (
    RESOURCE_FRACTIONS,
    OperatorSpec,
    PipelineSpec,
    PlanPoint,
    Query,
    SpaceTooLargeError,
    TierTopology,
)
from .search import (
    CandidatePlan,
    CandidateSet,
    HistoryStore,
    Observations,
    SearchConfig,
    SearchResult,
    single_query_search,
)

_EPS = 1e-9

DEFAULT_AGING_BETA = 0.01  # per second of pending time
RANDOM_MAX_OPS = 3  # operators per query in random_scheduling_instance


def op_demands(plan: PlanPoint, topology: TierTopology) -> tuple[tuple[int, float], ...]:
    """A plan's machine footprint: per operator, (tier, resource units).

    The operator is the packing unit, so each demand fits on a single
    machine by construction.
    """
    tiers = topology.tiers
    return tuple([(tier, frac * tiers[tier].capacity) for frac, tier in zip(plan.resources, plan.placement)])


@dataclass
class Assignment:
    plan: CandidatePlan
    weight: float
    demands: tuple[tuple[int, float], ...]
    machines: tuple[tuple[int, int], ...]  # (tier, machine index) per operator


@dataclass
class DeploymentState:
    """Per-machine residual capacity plus the admitted query->plan map.

    Of ``topology`` only the tiers' machine counts and capacities are read,
    which a drift never changes.
    """

    topology: TierTopology
    residual: list[list[float]]
    assignments: dict[str, Assignment] = field(default_factory=dict)

    @staticmethod
    def fresh(topology: TierTopology) -> "DeploymentState":
        return DeploymentState(topology, [[t.capacity] * t.machine_count for t in topology.tiers])

    def copy(self) -> "DeploymentState":
        return DeploymentState(self.topology, [list(r) for r in self.residual], dict(self.assignments))

    def place(self, query_id: str, plan: CandidatePlan, weight: float) -> bool:
        """Admit ``plan`` for ``query_id`` by first-fit-decreasing placement
        of every operator. The operators are placed on copies of their tiers'
        residual rows, which replace the rows only if every operator fits: a
        plan that does not fit leaves the state as it was, bit for bit."""
        if query_id in self.assignments:
            raise ValueError(f"query {query_id} already admitted")
        demands = op_demands(plan.plan, self.topology)
        rows: dict[int, list[float]] = {}  # tier -> a copy of its row, made as its first operator is placed
        machines: list = [None] * len(demands)
        # largest demand first; the sort is stable, so ties keep operator order
        for i in sorted(range(len(demands)), key=lambda i: -demands[i][1]):
            tier, demand = demands[i]
            row = rows.get(tier, self.residual[tier])
            for m, res in enumerate(row):
                if res >= demand - _EPS:
                    break
            else:
                return False
            if tier not in rows:
                row = rows[tier] = list(row)
            row[m] -= demand
            machines[i] = (tier, m)
        for tier, row in rows.items():
            self.residual[tier] = row
        self.assignments[query_id] = Assignment(plan, weight, demands, tuple(machines))
        return True

    def release(self, query_id: str) -> None:
        """Free the admission that ``query_id`` holds."""
        assignment = self.assignments.pop(query_id)
        for (tier, machine), (_, demand) in zip(assignment.machines, assignment.demands):
            self.residual[tier][machine] += demand

    def admitted_weight(self) -> float:
        return sum(a.weight for a in self.assignments.values())

    def hourly_cost(self) -> float:
        return sum(a.plan.hourly_cost for a in self.assignments.values())


def _admission_pass(ranked: list[tuple], st: DeploymentState) -> float:
    """Place each ranked (..., query id, plan, weight) whose query has no
    plan yet, and return the weight admitted."""
    gain = 0.0
    for *_, qid, cand, w in ranked:
        if qid not in st.assignments and st.place(qid, cand, w):
            gain += w
    return gain


def greedy_goodput(
    candidates: list[tuple[Query, CandidateSet]],
    topology: TierTopology,
    state: DeploymentState | None = None,
    weights: dict[str, float] | None = None,
) -> DeploymentState:
    """Admit plans greedily until nothing more fits, one plan per query.

    The primary pass ranks all plans across queries by descending w/cr,
    where cr is the plan's capacity-normalized aggregate demand (ties
    toward lower monetary cost, then input order). A fallback pass
    ranks them by raw weight. The fallback pass runs on a copy of the
    starting state and the primary pass on the state itself, which adopts
    the copy only if it admitted strictly more weight: ratio order alone can
    strand a heavyweight query at small instance sizes. Pass an existing
    ``state`` to admit incrementally against current residual capacities;
    unplaceable plans are skipped. Returns the state admitted into.
    """
    st = state if state is not None else DeploymentState.fresh(topology)
    ratio_order: list[tuple] = []
    weight_order: list[tuple] = []
    for order, (query, cset) in enumerate(candidates):
        w = weights.get(query.id, query.weight) if weights else query.weight
        for j, cand in enumerate(cset.plans):
            cr = sum(cand.plan.resources)
            # (order, j) is unique, so a sort never compares past it
            ratio_order.append((-(w / cr), cand.hourly_cost, order, j, query.id, cand, w))
            weight_order.append((-w, cr, cand.hourly_cost, order, j, query.id, cand, w))
    ratio_order.sort()
    weight_order.sort()

    trial = st.copy()
    gain_weight = _admission_pass(weight_order, trial)
    if _admission_pass(ratio_order, st) < gain_weight:
        st.residual, st.assignments = trial.residual, trial.assignments
    return st


@dataclass
class CostDeployment:
    chosen: dict[str, CandidatePlan]
    unserved: tuple[str, ...]
    machines_per_tier: tuple[int, ...]
    hourly_dollars: float


def ffd_bin_count(items: list[float], capacity: float) -> int:
    """First-fit-decreasing bin count; items must each fit one bin."""
    bins: list[float] = []
    for item in sorted(items, reverse=True):
        if item > capacity + _EPS:
            raise ValueError(f"item {item} exceeds bin capacity {capacity}")
        for i, used in enumerate(bins):
            if used + item <= capacity + _EPS:
                bins[i] = used + item
                break
        else:
            bins.append(item)
    return len(bins)


def greedy_cost(
    candidates: list[tuple[Query, CandidateSet]],
    topology: TierTopology,
) -> CostDeployment:
    """Serve every query with its best benefit-to-dollar plan, then provision
    machines per tier by first-fit-decreasing packing. A query's weight is
    fixed and positive, so its best weight-per-dollar plan is its
    :meth:`CandidateSet.cheapest` one.

    Queries with an empty candidate set are reported unserved and never
    block the others.
    """
    chosen: dict[str, CandidatePlan] = {}
    unserved: list[str] = []
    for query, cset in candidates:
        if len(cset) == 0:
            unserved.append(query.id)
            continue
        chosen[query.id] = cset.cheapest()
    per_tier_items: list[list[float]] = [[] for _ in topology.tiers]
    for cand in chosen.values():
        for tier, demand in op_demands(cand.plan, topology):
            per_tier_items[tier].append(demand)
    machines = []
    dollars = 0.0
    for tier_idx, items in enumerate(per_tier_items):
        tier = topology.tiers[tier_idx]
        k = ffd_bin_count(items, tier.capacity) if items else 0
        machines.append(k)
        dollars += k * tier.machine_hourly_cost
    return CostDeployment(
        chosen=chosen,
        unserved=tuple(unserved),
        machines_per_tier=tuple(machines),
        hourly_dollars=dollars,
    )


# ---------------------------------------------------------------------------
# Exhaustive oracles for the two integer programs (tests and --oracle mode)


@dataclass(frozen=True)
class OracleInstance:
    """Small scheduling instance in oracle form.

    ``queries``: per query, (weight, plan options), each plan a tuple of
    per-operator (tier, resource units). ``machine_caps``: per tier, the
    capacity of each machine. ``tier_prices``: per tier, dollars per
    machine-hour (used by the cost oracle).
    """

    queries: tuple[tuple[float, tuple[tuple[tuple[int, float], ...], ...]], ...]
    machine_caps: tuple[tuple[float, ...], ...]
    tier_prices: tuple[float, ...] = ()

    MAX_QUERIES = 8
    MAX_PLANS = 6
    MAX_MACHINES = 12


def _check_oracle_size(inst: OracleInstance) -> None:
    n = len(inst.queries)
    if n > OracleInstance.MAX_QUERIES:
        raise SpaceTooLargeError(f"oracle limited to {OracleInstance.MAX_QUERIES} queries, got {n}")
    if any(len(plans) > OracleInstance.MAX_PLANS for _, plans in inst.queries):
        raise SpaceTooLargeError(f"oracle limited to {OracleInstance.MAX_PLANS} plans per query")
    total_machines = sum(len(c) for c in inst.machine_caps)
    if total_machines > OracleInstance.MAX_MACHINES:
        raise SpaceTooLargeError(f"oracle limited to {OracleInstance.MAX_MACHINES} machines")


def _canonical(residual: tuple[tuple[float, ...], ...]) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(sorted(round(r, 9) for r in tier)) for tier in residual)


def _placements(
    items: tuple[tuple[int, float], ...],
    residual: tuple[tuple[float, ...], ...],
) -> list[tuple[tuple[float, ...], ...]]:
    """All distinct residual states after placing every item, with
    identical-machine symmetry pruning."""
    order = sorted(items, key=lambda td: -td[1])
    out: dict = {}

    def go(i: int, res: tuple[tuple[float, ...], ...]) -> None:
        if i == len(order):
            out[_canonical(res)] = res
            return
        tier, demand = order[i]
        tried = set()
        for m, avail in enumerate(res[tier]):
            key = round(avail, 9)
            if key in tried or avail < demand - _EPS:
                continue
            tried.add(key)
            tier_row = list(res[tier])
            tier_row[m] = avail - demand
            go(i + 1, res[:tier] + (tuple(tier_row),) + res[tier + 1 :])

    go(0, residual)
    return list(out.values())


def ilp_oracle_limited(inst: OracleInstance) -> float:
    """Exact maximum SLO-weighted goodput under fixed per-machine capacity.

    Each operator of a chosen plan lands on a machine of its tier, the
    granularity the greedy packs at. Enumerates admit/skip and plan/machine
    choices depth-first with weight-bound pruning and memoization on
    (query index, canonical residual state). Refuses oversized instances.
    """
    _check_oracle_size(inst)
    n = len(inst.queries)
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + inst.queries[i][0]
    memo: dict = {}

    def solve(i: int, residual: tuple[tuple[float, ...], ...]) -> float:
        if i == n:
            return 0.0
        key = (i, _canonical(residual))
        hit = memo.get(key)
        if hit is not None:
            return hit
        weight, plans = inst.queries[i]
        best = 0.0
        for plan in plans:
            for new_res in _placements(plan, residual):
                best = max(best, weight + solve(i + 1, new_res))
            if best >= weight + suffix[i + 1]:
                break
        best = max(best, solve(i + 1, residual))
        memo[key] = best
        return best

    return solve(0, tuple(tuple(c) for c in inst.machine_caps))


def _min_bins(items: list[float], capacity: float) -> int:
    """Exact minimum bin count by branch and bound (FFD upper bound,
    volume lower bound)."""
    items = sorted((x for x in items if x > _EPS), reverse=True)
    if not items:
        return 0
    best = ffd_bin_count(items, capacity)
    lower = math.ceil(sum(items) / capacity - 1e-12)
    if best == lower:
        return best

    def go(i: int, bins: list[float], used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if i == len(items):
            best = used
            return
        remaining_lb = used + max(0, math.ceil((sum(items[i:]) - sum(capacity - b for b in bins)) / capacity - 1e-12))
        if remaining_lb >= best:
            return
        item = items[i]
        seen = set()
        for b in range(len(bins)):
            key = round(bins[b], 9)
            if key in seen or bins[b] + item > capacity + _EPS:
                continue
            seen.add(key)
            bins[b] += item
            go(i + 1, bins, used)
            bins[b] -= item
        bins.append(item)
        go(i + 1, bins, used + 1)
        bins.pop()

    go(0, [], 0)
    return best


def ilp_oracle_unlimited(inst: OracleInstance) -> float:
    """Exact minimum machine dollars to serve every query (elastic tiers).

    Enumerates plan choices per query with a per-tier volume lower bound,
    then packs each tier's operator demands with exact bin packing, the
    granularity the greedy packs at.
    """
    _check_oracle_size(inst)
    if not inst.tier_prices:
        raise ValueError("cost oracle needs tier_prices")
    n = len(inst.queries)
    if n == 0:
        return 0.0
    num_tiers = len(inst.tier_prices)
    caps = [inst.machine_caps[t][0] if inst.machine_caps[t] else 1.0 for t in range(num_tiers)]
    usable: list[tuple[float, tuple]] = []
    for w, plans in inst.queries:
        ok = tuple(
            plan for plan in plans if all(d <= caps[t] + _EPS for t, d in plan)
        )
        if not ok:
            raise ValueError("cost oracle requires every query to have a machine-feasible plan")
        usable.append((w, ok))
    queries = tuple(usable)

    min_demand = []
    for _, plans in queries:
        per_tier = [min(sum(d for t2, d in plan if t2 == t) for plan in plans) for t in range(num_tiers)]
        min_demand.append(per_tier)
    suffix_min = [[0.0] * num_tiers for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for t in range(num_tiers):
            suffix_min[i][t] = suffix_min[i + 1][t] + min_demand[i][t]

    best = math.inf

    def lower_bound(placed: list[list[float]], i: int) -> float:
        lb = 0.0
        for t in range(num_tiers):
            vol = sum(placed[t]) + suffix_min[i][t]
            lb += math.ceil(vol / caps[t] - 1e-12) * inst.tier_prices[t]
        return lb

    def go(i: int, placed: list[list[float]]) -> None:
        nonlocal best
        if lower_bound(placed, i) >= best - 1e-12:
            return
        if i == n:
            total = 0.0
            for t in range(num_tiers):
                total += _min_bins(placed[t], caps[t]) * inst.tier_prices[t]
            best = min(best, total)
            return
        for plan in queries[i][1]:
            for t2, d in plan:
                placed[t2].append(d)
            go(i + 1, placed)
            for t2, _ in plan:
                placed[t2].pop()

    go(0, [[] for _ in range(num_tiers)])
    return best


def oracle_instance_from_candidates(
    candidates: list[tuple[Query, CandidateSet]],
    topology: TierTopology,
) -> OracleInstance:
    queries = []
    for query, cset in candidates:
        queries.append((query.weight, tuple(op_demands(cand.plan, topology) for cand in cset.plans)))
    return OracleInstance(
        queries=tuple(queries),
        machine_caps=tuple(tuple([t.capacity] * t.machine_count) for t in topology.tiers),
        tier_prices=tuple(t.machine_hourly_cost for t in topology.tiers),
    )


def random_scheduling_instance(
    seed: int,
    topology: TierTopology,
    n_queries: int = 8,
    max_plans: int = 4,
    weight_range: tuple[float, float] = (1.0, 1.0),
) -> list[tuple[Query, CandidateSet]]:
    """Random per-query candidate sets shaped like stage-one planner output.

    Each query gets a small Pareto-style trade-off: a cheap allocation on
    the low tiers plus progressively faster variants that move operators up
    the tier ladder and hold more resources (fractions drawn from the grid,
    skewed toward the pruned low end).
    """
    rng = np.random.default_rng(seed)
    frac_probs = (0.1, 0.15, 0.3, 0.45)  # 1, 1/2, 1/4, 1/8
    out: list[tuple[Query, CandidateSet]] = []
    for qi in range(n_queries):
        n_ops = int(rng.integers(1, RANDOM_MAX_OPS + 1))
        ops = tuple(OperatorSpec(i, (f"o{i}",)) for i in range(n_ops))
        pipe = PipelineSpec(
            name=f"rand-{seed}-{qi}",
            operators=ops,
            edges=tuple((i, i + 1) for i in range(n_ops - 1)),
        )
        weight = float(rng.uniform(*weight_range))
        n_plans = int(rng.integers(1, max_plans + 1))
        cands = []
        for j in range(n_plans):
            # later variants sit higher in the tier ladder and run hotter
            ceiling = min(topology.num_tiers - 1, j)
            placement = tuple(sorted(int(rng.integers(ceiling + 1)) for _ in range(n_ops)))
            resources = tuple(
                RESOURCE_FRACTIONS[int(rng.choice(len(RESOURCE_FRACTIONS), p=frac_probs))] for _ in range(n_ops)
            )
            point = PlanPoint(configuration=(0,) * n_ops, placement=placement, resources=resources)
            cost = plan_hourly_cost(point, topology)
            cands.append(
                CandidatePlan(
                    plan=point,
                    accuracy_estimate=float(rng.uniform(0.7, 0.99)),
                    latency_s=float(rng.uniform(0.05, 2.0)) / (1.0 + cost),
                    hourly_cost=cost,
                )
            )
        query = Query(
            id=f"q{qi}",
            pipeline=pipe,
            a_slo=0.5,
            l_slo=10.0,
            response_budget_s=5.0,
            weight=weight,
        )
        out.append((query, CandidateSet(plans=tuple(cands))))
    return out


# ---------------------------------------------------------------------------
# Starvation aging and drift replanning


def age_weights(
    pending: list[tuple[str, float, float]],
    now: float,
    beta: float = DEFAULT_AGING_BETA,
) -> dict[str, float]:
    """Aged weight per pending query: w0 * (1 + beta * pending seconds).

    ``pending`` entries are (query id, base weight, enqueue time).
    """
    out = {}
    for qid, w0, since in pending:
        waited = max(0.0, now - since)
        out[qid] = w0 * (1.0 + beta * waited)
    return out


def replan(
    query: Query,
    land,
    topology: TierTopology,
    prior: Observations | None,
    budget_s: float,
    history: HistoryStore | None = None,
    seed: int = 0,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Drift response: re-run the single-query search warm-started from the
    query's own prior observations (stale observations retained, trust
    inflated away), under a response budget of ``budget_s`` simulated
    seconds."""
    fresh = dataclasses.replace(query, response_budget_s=budget_s, profiling_budget_gpuh=None)
    return single_query_search(
        fresh,
        land,
        topology,
        history=history,
        seed=seed,
        config=config,
        warm=prior,
    )
