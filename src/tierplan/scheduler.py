"""Stage-two global planning across concurrent queries.

Under fixed capacity the greedy admits plans by benefit-to-resource ratio
(w/cr) with first-fit-decreasing machine packing; under elastic capacity it
serves everyone with the best benefit-to-dollar plan and bin-packs machines
per tier. Both are validated against exhaustive integer-program oracles on
small instances (the oracles are test/CLI equipment, never the fast path).

Capacity is counted in whole grid units: a machine holds ``GRID`` and every
resource fraction is a whole number of them on any tier, so admission,
packing and the oracles compare integers with no tolerance.

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
    GRID,
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

DEFAULT_AGING_BETA = 0.01  # per second of pending time
RANDOM_MAX_OPS = 3  # operators per query in random_scheduling_instance
_UNITS = {frac: int(frac * GRID) for frac in RESOURCE_FRACTIONS}  # exact: each fraction is whole units


def op_demands(plan: PlanPoint) -> tuple[tuple[int, int], ...]:
    """A plan's machine footprint: per operator, (tier, grid units).

    All machines of a tier share one capacity, so a fraction of a machine
    is the same number of units on every tier. The operator is the packing
    unit, so each demand fits on a single machine by construction.
    """
    return tuple([(tier, _UNITS[frac]) for frac, tier in zip(plan.resources, plan.placement)])


@dataclass
class Assignment:
    plan: CandidatePlan
    weight: float
    machines: tuple[tuple[int, int], ...]  # (tier, machine index) per operator


@dataclass
class DeploymentState:
    """Free grid units per machine plus the admitted query->plan map.

    Every count stays in [0, ``GRID``], and :meth:`release` is the exact
    inverse of :meth:`place`.
    """

    units: list[list[int]]
    assignments: dict[str, Assignment] = field(default_factory=dict)

    @staticmethod
    def fresh(topology: TierTopology) -> "DeploymentState":
        return DeploymentState([[GRID] * t.machine_count for t in topology.tiers])

    def copy(self) -> "DeploymentState":
        return DeploymentState([list(r) for r in self.units], dict(self.assignments))

    def place(self, query_id: str, plan: CandidatePlan, weight: float) -> bool:
        """Admit ``plan`` for ``query_id`` by first-fit-decreasing placement
        of every operator. The operators are placed on copies of their tiers'
        rows, which replace the rows only if every operator fits: a plan that
        does not fit leaves the state as it was."""
        if query_id in self.assignments:
            raise ValueError(f"query {query_id} already admitted")
        demands = op_demands(plan.plan)
        rows: dict[int, list[int]] = {}  # tier -> a copy of its row, made as its first operator is placed
        machines: list = [None] * len(demands)
        # largest demand first; the sort is stable, so ties keep operator order
        for i in sorted(range(len(demands)), key=lambda i: -demands[i][1]):
            tier, demand = demands[i]
            row = rows.get(tier, self.units[tier])
            for m, free in enumerate(row):
                if free >= demand:
                    break
            else:
                return False
            if tier not in rows:
                row = rows[tier] = list(row)
            row[m] -= demand
            machines[i] = (tier, m)
        for tier, row in rows.items():
            self.units[tier] = row
        self.assignments[query_id] = Assignment(plan, weight, tuple(machines))
        return True

    def release(self, query_id: str) -> None:
        """Free the admission that ``query_id`` holds."""
        assignment = self.assignments.pop(query_id)
        for (tier, machine), (_, demand) in zip(assignment.machines, op_demands(assignment.plan.plan)):
            self.units[tier][machine] += demand

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
    ``state`` to admit incrementally against its free units;
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
        st.units, st.assignments = trial.units, trial.assignments
    return st


@dataclass
class CostDeployment:
    chosen: dict[str, CandidatePlan]
    unserved: tuple[str, ...]
    machines_per_tier: tuple[int, ...]
    hourly_dollars: float


def ffd_bin_count(items: list[int], capacity: int = GRID) -> int:
    """First-fit-decreasing bin count of grid-unit items; items must each
    fit one bin. Optimal when the item sizes and the capacity form a
    divisible sequence, as 1, 2, 4 and 8 units in a machine of ``GRID`` do
    (Coffman, Garey & Johnson 1987)."""
    bins: list[int] = []
    for item in sorted(items, reverse=True):
        if item > capacity:
            raise ValueError(f"item {item} exceeds bin capacity {capacity}")
        for i, used in enumerate(bins):
            if used + item <= capacity:
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
    per_tier_items: list[list[int]] = [[] for _ in topology.tiers]
    for cand in chosen.values():
        for tier, demand in op_demands(cand.plan):
            per_tier_items[tier].append(demand)
    machines = tuple(ffd_bin_count(items) for items in per_tier_items)
    dollars = 0.0
    for k, tier in zip(machines, topology.tiers):
        dollars += k * tier.machine_hourly_cost
    return CostDeployment(
        chosen=chosen,
        unserved=tuple(unserved),
        machines_per_tier=machines,
        hourly_dollars=dollars,
    )


# ---------------------------------------------------------------------------
# Exhaustive oracles for the two integer programs (tests and --oracle mode)


@dataclass(frozen=True)
class OracleInstance:
    """Small scheduling instance in oracle form.

    ``queries``: per query, (weight, plan options), each plan a tuple of
    per-operator (tier, grid units). ``machine_caps``: per tier, the grid
    units of each machine. ``tier_prices``: per tier, dollars per
    machine-hour (used by the cost oracle). Units are integers, so the
    oracles compare them exactly.
    """

    queries: tuple[tuple[float, tuple[tuple[tuple[int, int], ...], ...]], ...]
    machine_caps: tuple[tuple[int, ...], ...]
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


def _canonical(free: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(tier)) for tier in free)


def _placements(
    items: tuple[tuple[int, int], ...],
    free: tuple[tuple[int, ...], ...],
) -> list[tuple[tuple[int, ...], ...]]:
    """All distinct free-unit states after placing every item, with
    identical-machine symmetry pruning."""
    order = sorted(items, key=lambda td: -td[1])
    out: dict = {}

    def go(i: int, res: tuple[tuple[int, ...], ...]) -> None:
        if i == len(order):
            out[_canonical(res)] = res
            return
        tier, demand = order[i]
        tried = set()
        for m, avail in enumerate(res[tier]):
            if avail in tried or avail < demand:
                continue
            tried.add(avail)
            tier_row = list(res[tier])
            tier_row[m] = avail - demand
            go(i + 1, res[:tier] + (tuple(tier_row),) + res[tier + 1 :])

    go(0, free)
    return list(out.values())


def ilp_oracle_limited(inst: OracleInstance) -> float:
    """Exact maximum SLO-weighted goodput under fixed per-machine capacity.

    Each operator of a chosen plan lands on a machine of its tier, the
    granularity the greedy packs at. Enumerates admit/skip and plan/machine
    choices depth-first with weight-bound pruning and memoization on
    (query index, canonical free-unit state). Refuses oversized instances.
    """
    _check_oracle_size(inst)
    n = len(inst.queries)
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + inst.queries[i][0]
    memo: dict = {}

    def solve(i: int, free: tuple[tuple[int, ...], ...]) -> float:
        if i == n:
            return 0.0
        key = (i, _canonical(free))
        hit = memo.get(key)
        if hit is not None:
            return hit
        weight, plans = inst.queries[i]
        best = 0.0
        for plan in plans:
            for new_res in _placements(plan, free):
                best = max(best, weight + solve(i + 1, new_res))
            if best >= weight + suffix[i + 1]:
                break
        best = max(best, solve(i + 1, free))
        memo[key] = best
        return best

    return solve(0, tuple(tuple(c) for c in inst.machine_caps))


def _min_bins(items: list[int], capacity: int) -> int:
    """Exact minimum bin count by branch and bound (FFD upper bound,
    volume lower bound)."""
    items = sorted(items, reverse=True)
    best = ffd_bin_count(items, capacity)
    if best == -(-sum(items) // capacity):
        return best

    def go(i: int, bins: list[int], used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if i == len(items):
            best = used
            return
        remaining_lb = used + max(0, -(-(sum(items[i:]) - sum(capacity - b for b in bins)) // capacity))
        if remaining_lb >= best:
            return
        item = items[i]
        seen = set()
        for b in range(len(bins)):
            if bins[b] in seen or bins[b] + item > capacity:
                continue
            seen.add(bins[b])
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
    caps = [inst.machine_caps[t][0] if inst.machine_caps[t] else GRID for t in range(num_tiers)]
    usable: list[tuple[float, tuple]] = []
    for w, plans in inst.queries:
        ok = tuple(plan for plan in plans if all(d <= caps[t] for t, d in plan))
        if not ok:
            raise ValueError("cost oracle requires every query to have a machine-feasible plan")
        usable.append((w, ok))
    queries = tuple(usable)

    min_demand = []
    for _, plans in queries:
        per_tier = [min(sum(d for t2, d in plan if t2 == t) for plan in plans) for t in range(num_tiers)]
        min_demand.append(per_tier)
    suffix_min = [[0] * num_tiers for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for t in range(num_tiers):
            suffix_min[i][t] = suffix_min[i + 1][t] + min_demand[i][t]

    best = math.inf

    def lower_bound(placed: list[list[int]], i: int) -> float:
        lb = 0.0
        for t in range(num_tiers):
            vol = sum(placed[t]) + suffix_min[i][t]
            lb += -(-vol // caps[t]) * inst.tier_prices[t]
        return lb

    def go(i: int, placed: list[list[int]]) -> None:
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
        queries.append((query.weight, tuple(op_demands(cand.plan) for cand in cset.plans)))
    return OracleInstance(
        queries=tuple(queries),
        machine_caps=tuple(tuple([GRID] * t.machine_count) for t in topology.tiers),
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
