"""Independent reference implementations used to check the real code paths.

Everything here is deliberately written the slow, obvious way (recursive
enumeration, explicit path walks, dict-of-dict tries) and must stay
decoupled from the package's own algorithms.
"""

from __future__ import annotations

import numpy as np

from tierplan.latency import compute_time, transfer_time
from tierplan.model import RESOURCE_FRACTIONS


def recursive_plan_count(knob_sizes, num_tiers, num_fractions, placement_prefix=()):
    """Count valid plans by recursing over operators: every knob choice,
    every non-decreasing tier continuation, every fraction."""
    i = len(placement_prefix)
    if i == len(knob_sizes):
        return 1
    lo = placement_prefix[-1] if placement_prefix else 0
    total = 0
    for tier in range(lo, num_tiers):
        total += knob_sizes[i] * num_fractions * recursive_plan_count(
            knob_sizes, num_tiers, num_fractions, placement_prefix + (tier,)
        )
    return total


def all_monotone_placements(m, t):
    out = []

    def go(prefix):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for tier in range((prefix[-1] if prefix else 0), t):
            go(prefix + [tier])

    go([])
    return out


def all_paths_latency(plan, pipeline, topology, timings):
    """Max over explicit source->sink paths, accumulating weights in path
    order (ingress + compute + transfers), matching the DP's float order."""
    n = len(pipeline)
    succ = {i: [] for i in range(n)}
    for u, v in pipeline.edges:
        succ[u].append(v)

    def node_w(i):
        return compute_time(
            timings.base_compute_s[i],
            plan.resources[i],
            timings.tier_speed_factors[plan.placement[i]],
            pipeline.operators[i].is_batching,
        )

    def edge_w(u, v):
        tu, tv = plan.placement[u], plan.placement[v]
        return transfer_time(
            timings.output_bytes[u],
            topology.bandwidth_mbps[tu][tv],
            topology.link_latency_s[tu][tv],
            co_located=(tu == tv),
        )

    def ingress_w(i):
        ti = plan.placement[i]
        return transfer_time(
            pipeline.input_bytes,
            topology.bandwidth_mbps[0][ti],
            topology.link_latency_s[0][ti],
            co_located=(ti == 0 or pipeline.input_bytes == 0),
        )

    best = -1.0
    sink = pipeline.sink

    def walk(v, acc):
        nonlocal best
        acc = acc + node_w(v)
        if v == sink:
            best = max(best, acc)
            return
        for w in succ[v]:
            walk(w, acc + edge_w(v, w))

    for s in pipeline.sources():
        walk(s, ingress_w(s))
    return best


class ReplayTrie:
    """Reference prefix-cache accounting: dict of (op, prefix) -> case set."""

    def __init__(self):
        self.seen = {}

    def charge(self, configuration, case_id, per_op_seconds):
        cfg = tuple(configuration)
        charged = 0.0
        for i in range(len(cfg)):
            key = (i, cfg[: i + 1])
            cases = self.seen.setdefault(key, set())
            if case_id not in cases:
                charged += per_op_seconds[i]
                cases.add(case_id)
        return charged


def mc_sample_mean_variance(p, mu, sigma, n, trials, rng, stratified):
    """Empirical variance of the sample mean under random or stratified
    draws, vectorized over trials."""
    p = np.asarray(p)
    mu = np.asarray(mu)
    sigma = np.asarray(sigma)
    if stratified:
        counts = np.round(p * n).astype(int)
        assert counts.sum() == n, "weights must make n*p_k integral"
        parts = []
        for k, c in enumerate(counts):
            if c:
                parts.append(rng.normal(mu[k], sigma[k], size=(trials, c)))
        draws = np.concatenate(parts, axis=1)
    else:
        strata = rng.choice(len(p), size=(trials, n), p=p)
        draws = rng.normal(mu[strata], sigma[strata])
    means = draws.mean(axis=1)
    return float(means.var(ddof=1))


def brute_force_goodput(queries, machine_caps):
    """Exact max weighted goodput by plain recursion (no memoization):
    queries = [(weight, [plan, ...])], plan = [(tier, demand), ...]."""

    def place(ops, residual):
        if not ops:
            yield residual
            return
        tier, demand = ops[0]
        for m in range(len(residual[tier])):
            if residual[tier][m] >= demand - 1e-9:
                nxt = [list(r) for r in residual]
                nxt[tier][m] -= demand
                yield from place(ops[1:], nxt)

    def go(i, residual):
        if i == len(queries):
            return 0.0
        weight, plans = queries[i]
        best = go(i + 1, residual)
        for plan in plans:
            for res in place(list(plan), residual):
                best = max(best, weight + go(i + 1, res))
        return best

    return go(0, [list(c) for c in machine_caps])


def brute_force_min_bins(items, capacity):
    """Exact bin count by trying every assignment (small inputs only)."""
    items = [x for x in items if x > 1e-9]
    if not items:
        return 0
    best = len(items)

    def go(i, bins):
        nonlocal best
        if len(bins) >= best:
            return
        if i == len(items):
            best = min(best, len(bins))
            return
        for b in range(len(bins)):
            if bins[b] + items[i] <= capacity + 1e-9:
                bins[b] += items[i]
                go(i + 1, bins)
                bins[b] -= items[i]
        bins.append(items[i])
        go(i + 1, bins)
        bins.pop()

    go(0, [])
    return best


def dominates(a, b):
    """Weak Pareto dominance on (cost, latency): a is no worse in both and
    strictly better in at least one."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def quadratic_pareto_filter(items, key):
    """Non-dominated subset under (cost, latency) minimization, stable order:
    every item checked against every other, exact duplicates after the first
    dropped."""
    keys = [key(it) for it in items]
    out = []
    for i, it in enumerate(items):
        if any(dominates(keys[j], keys[i]) for j in range(len(items)) if j != i):
            continue
        if any(keys[j] == keys[i] for j in range(i)):
            continue
        out.append(it)
    return out


def exhaustive_resource_frontier(plan, pipeline, topology, timings, l_slo, latency_fn, cost_fn):
    """Sweep the whole fraction grid; keep feasible allocations that admit no
    feasible single-coordinate reduction; Pareto-filter on (cost, latency)."""
    from itertools import product

    m = len(pipeline)
    grid = list(product(range(len(RESOURCE_FRACTIONS)), repeat=m))
    lat = {}
    for state in grid:
        p = plan.with_resources(tuple(RESOURCE_FRACTIONS[i] for i in state))
        lat[state] = latency_fn(p, pipeline, topology, timings)
    feasible = {s for s in grid if lat[s] <= l_slo}
    minimal = []
    for s in feasible:
        reducible = False
        for i in range(m):
            if s[i] + 1 < len(RESOURCE_FRACTIONS):
                child = s[:i] + (s[i] + 1,) + s[i + 1 :]
                if child in feasible:
                    reducible = True
                    break
        if not reducible:
            minimal.append(s)
    rows = []
    for s in minimal:
        p = plan.with_resources(tuple(RESOURCE_FRACTIONS[i] for i in s))
        rows.append((p, cost_fn(p, topology), lat[s]))
    keep = []
    for i, (p, c, l) in enumerate(rows):
        dominated = False
        for j, (_, c2, l2) in enumerate(rows):
            if j != i and c2 <= c and l2 <= l and (c2 < c or l2 < l):
                dominated = True
                break
        if not dominated and not any(c2 == c and l2 == l for _, c2, l2 in rows[:i]):
            keep.append(p)
    return keep
