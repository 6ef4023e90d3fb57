"""Independent reference implementations used to check the real code paths,
and the test equipment built on them.

The references are deliberately written the slow, obvious way (recursive
enumeration, explicit path walks, dict-of-dict tries) and must stay
decoupled from the package's own algorithms. The exhaustive Pareto oracle
sweeps the full plan grid through the package's latency model and Pareto
filter, which other tests check against the references here; the
per-plan frontier scores the search pool one plan at a time through the
scalar latency model and the scalar stratum mean; the sibling landscape
reuses the generator's case draw. The per-look profiler (deciding each
look by scipy's p-value, as before the critical-|t| table), the
column-at-a-time kernel row and the whole-pool vote are the planning step
as it was before its tables were built once, and the scalar stratum mean
is the ground truth as it was before it was built as arrays; the package
must match them bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import combinations_with_replacement, product

import numpy as np
from scipy.special import stdtr

from tierplan import latency as latmod
from tierplan.landscape import ACC_CENTER, ACC_SPAN, N_CASES, _CLIP_HI, _CLIP_LO, _draw_cases
from tierplan.latency import compute_time, transfer_time
from tierplan.model import (
    RESOURCE_FRACTIONS,
    PlanPoint,
    ProfileOutcome,
    SpaceTooLargeError,
    Verdict,
    enumerate_search_pool,
    pareto_filter,
)
from tierplan.profiler import CONFIDENCE, DEFAULT_N_MAX, allocation, look_schedule
from tierplan.search import GAP_EPS, HISTORY_TOP_K, acquisition


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


def enumerate_plan_space(pipeline, topology):
    """Lazily yield every valid PlanPoint exactly once: (product of knob
    domain sizes) x (monotone placements) x (fraction grid per operator),
    placements outer, then configurations, then allocations."""
    m = len(pipeline)
    config_axes = [range(len(op.knob_domain)) for op in pipeline.operators]
    allocations = list(product(RESOURCE_FRACTIONS, repeat=m))
    for placement in combinations_with_replacement(range(topology.num_tiers), m):
        for config in product(*config_axes):
            for resources in allocations:
                yield PlanPoint(config, placement, resources)


def one_hot(codes, sizes):
    """One-hot rows of integer code rows: code k in column c sets column
    sum(sizes[:c]) + k of its row, so each row has one 1 per code column."""
    codes = np.asarray(codes)
    out = np.zeros((len(codes), sum(sizes)))
    out[np.arange(len(codes))[:, None], np.cumsum([0, *sizes[:-1]]) + codes] = 1.0
    return out


def encode_pool(plans, pipeline, num_tiers):
    """The one-hot encoding the GP kernel is defined on, one row per plan:
    accuracy rows one-hot each operator's option; latency rows append a
    one-hot of each operator's tier."""
    dims = [len(op.knob_domain) for op in pipeline.operators]
    xa = one_hot([p.configuration for p in plans], dims)
    return xa, np.hstack([xa, one_hot([p.placement for p in plans], [num_tiers] * len(dims))])


def true_pareto_set(landscape, topology, query, max_plans=100_000):
    """Exhaustive oracle: all SLO-compliant plans of the full grid not
    dominated in (monetary cost, latency). Refuses oversized spaces outright."""
    knob_sizes = [len(op.knob_domain) for op in landscape.pipeline.operators]
    size = recursive_plan_count(knob_sizes, topology.num_tiers, len(RESOURCE_FRACTIONS))
    if size > max_plans:
        raise SpaceTooLargeError(f"plan space has {size} plans, exhaustive cap is {max_plans}")
    feasible = []
    for plan in enumerate_plan_space(landscape.pipeline, topology):
        if landscape.accuracy_mean(plan.configuration) < query.a_slo:
            continue
        lat = latmod.pipeline_latency(plan, landscape.pipeline, topology, landscape.timings_for(plan.configuration))
        if lat > query.l_slo:
            continue
        feasible.append((plan, (latmod.plan_hourly_cost(plan, topology), lat)))
    kept = pareto_filter(feasible, key=lambda t: t[1])
    return [plan for plan, _ in kept]


def sort_sweep_pareto_filter(items, key):
    """Non-dominated subset under (cost, latency) minimization, in input
    order, ties to the earlier item: a Python sort by (cost, latency, index)
    and a sweep that keeps an item iff its latency is below that of the
    last kept one."""
    keys = [key(it) for it in items]
    order = sorted(range(len(items)), key=lambda i: (*keys[i], i))
    kept = order[:1]
    for i in order[1:]:
        if keys[i][1] < keys[kept[-1]][1]:
            kept.append(i)
    return [items[i] for i in sorted(kept)]


def per_plan_frontier(landscape, topology):
    """The SLO-free quality-latency frontier scored plan by plan: every
    search-pool plan, its ``accuracy_mean`` and its scalar
    ``pipeline_latency``, through :func:`sort_sweep_pareto_filter` on
    (1 - accuracy, latency)."""
    rows = []
    for plan in enumerate_search_pool(landscape.pipeline, topology):
        lat = latmod.pipeline_latency(plan, landscape.pipeline, topology, landscape.timings_for(plan.configuration))
        rows.append((plan, scalar_accuracy_mean(landscape, plan.configuration), lat))
    return sort_sweep_pareto_filter(rows, key=lambda r: (1.0 - r[1], r[2]))


def scalar_stratum_mean(landscape, stratum, configuration):
    """True accuracy mean of one stratum at a configuration, one Python
    float at a time: the monotone and option sums operator by operator,
    the pair sums edge by edge, the tanh squash, the offset and the clip."""
    ops = landscape.pipeline.operators
    mono = 0.0
    rug = 0.0
    for i, c in enumerate(configuration):
        mono += landscape.monotone_weights[i] * (c + 1) / len(ops[i].knob_domain)
        rug += landscape.option_effects[i][stratum][c]
    for i in range(len(ops) - 1):
        rug += landscape.pair_effects[i][stratum][configuration[i]][configuration[i + 1]]
    t = landscape.monotone_tendency
    raw = landscape.stratum_base[stratum] + t * mono + (1.0 - t) * rug
    mu = ACC_CENTER + ACC_SPAN * math.tanh(raw) + landscape.accuracy_offset
    return min(max(mu, _CLIP_LO), _CLIP_HI)


def scalar_accuracy_mean(landscape, configuration):
    """The stratum-weighted mixture of :func:`scalar_stratum_mean`, added
    left to right from 0.0 (not ``sum()``, which compensates from Python
    3.12 on)."""
    mean = 0.0
    for k, p in enumerate(landscape.stratum_weights):
        mean += p * scalar_stratum_mean(landscape, k, configuration)
    return mean


def sibling_landscape(parent, seed, perturbation):
    """A landscape from ``parent``'s family, as history warm starts exploit:
    the parent's option and pair effects plus seeded N(0, perturbation/m)
    and N(0, perturbation/2m) noise, its stratum bases plus N(0,
    perturbation/10) noise when perturbation > 0, and a fresh draw of
    evaluation cases at its stratum weights. Everything else is the
    parent's; no accuracy drift carries over."""
    rng = np.random.default_rng(seed)
    m = len(parent.pipeline)
    option_effects = [[] for _ in parent.option_effects]
    pair_effects = [[] for _ in parent.pair_effects]
    for k in range(parent.k_true):
        for rows, table in zip(option_effects, parent.option_effects):
            rows.append(table[k] + perturbation * rng.normal(0.0, 1.0 / m, size=table.shape[1]))
        for rows, table in zip(pair_effects, parent.pair_effects):
            rows.append(table[k] + perturbation * rng.normal(0.0, 0.5 / m, size=table.shape[1:]))
    base = parent.stratum_base
    if perturbation > 0:
        base = base + perturbation * rng.normal(0.0, 0.1, size=parent.k_true)
    case_stratum, case_features, weights = _draw_cases(rng, parent.stratum_weights)
    return dataclasses.replace(
        parent,
        stratum_weights=weights,
        stratum_base=base,
        option_effects=tuple(map(np.stack, option_effects)),
        pair_effects=tuple(map(np.stack, pair_effects)),
        case_stratum=case_stratum,
        case_features=case_features,
        accuracy_offset=0.0,
    )


def _check_weights(p):
    if abs(sum(p) - 1.0) > 1e-9:
        raise ValueError(f"stratum weights must sum to 1, got {sum(p)!r}")


def variance_random(p, mu, sigma2, n):
    """Variance of the sample mean when each draw picks stratum k w.p. p_k."""
    _check_weights(p)
    if n <= 0:
        raise ValueError("sample size must be > 0")
    mix = sum(pk * mk for pk, mk in zip(p, mu))
    within = sum(pk * s2 for pk, s2 in zip(p, sigma2))
    between = sum(pk * (mk - mix) ** 2 for pk, mk in zip(p, mu))
    return (within + between) / n


def variance_stratified(p, sigma2, n):
    """Variance of the sample mean when exactly n*p_k draws hit stratum k."""
    _check_weights(p)
    if n <= 0:
        raise ValueError("sample size must be > 0")
    return sum(pk * s2 for pk, s2 in zip(p, sigma2)) / n


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
    queries = [(weight, [plan, ...])], plan = [(tier, units), ...], and
    machine_caps the grid units of each machine per tier."""

    def place(ops, free):
        if not ops:
            yield free
            return
        tier, demand = ops[0]
        for m in range(len(free[tier])):
            if free[tier][m] >= demand:
                nxt = [list(r) for r in free]
                nxt[tier][m] -= demand
                yield from place(ops[1:], nxt)

    def go(i, free):
        if i == len(queries):
            return 0.0
        weight, plans = queries[i]
        best = go(i + 1, free)
        for plan in plans:
            for res in place(list(plan), free):
                best = max(best, weight + go(i + 1, res))
        return best

    return go(0, [list(c) for c in machine_caps])


def brute_force_min_bins(items, capacity):
    """Exact bin count of grid-unit items by trying every assignment (small
    inputs only)."""
    best = len(items)

    def go(i, bins):
        nonlocal best
        if len(bins) >= best:
            return
        if i == len(items):
            best = min(best, len(bins))
            return
        for b in range(len(bins)):
            if bins[b] + items[i] <= capacity:
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


# ---------------------------------------------------------------------------
# The planning step, one look, one column and one whole pool at a time


def sample_cases(landscape, configuration, cases, rng):
    """One accuracy observation per entry of ``cases`` (case indices), each
    a normal at its true stratum's mean and sigma clipped to [0, 1]: the
    profilers' case-value draw as one out-of-place expression."""
    mu, sigma = landscape.case_rows(configuration)
    return np.clip(mu[cases] + sigma[cases] * rng.standard_normal(len(cases)), 0.0, 1.0)


def sample_strata(landscape, configuration, strata, rng):
    """One accuracy observation per entry of ``strata`` (true stratum ids),
    each a normal at its stratum's mean and sigma clipped to [0, 1]."""
    mu = np.array([scalar_stratum_mean(landscape, k, configuration) for k in range(landscape.k_true)])
    sigma = landscape.stratum_sigma
    return np.clip(mu[strata] + sigma[strata] * rng.standard_normal(len(strata)), 0.0, 1.0)


def strata_members(strat):
    """Every stratum's cases under ``strat``, in stratum order: its cases
    back to back, split at the sizes its weights give."""
    sizes = np.rint(np.asarray(strat.weights) * len(strat.members)).astype(np.intp)
    return np.split(strat.members, np.cumsum(sizes)[:-1])


def stratum_cases(strat, strata, rng):
    """One case per entry of ``strata`` (planner stratum ids), uniform within
    that stratum of ``strat``."""
    sizes = np.array([len(s) for s in strata_members(strat)])
    return strat.members[(np.cumsum(sizes) - sizes)[strata] + rng.integers(sizes[strata])]


def draw_cases(strat, lo, hi, rng):
    """The cases of a profiling session's draws ``lo`` to ``hi - 1``:
    :func:`stratum_cases` at the strata ``allocation`` gives those draws."""
    return stratum_cases(strat, allocation(strat.weights, DEFAULT_N_MAX)[lo:hi], rng)


class MaskPrefixCache:
    """Prefix-cache accounting with one boolean mask over the cases per
    (operator, configuration prefix)."""

    def __init__(self):
        self.entries = {}

    def charge(self, configuration, cases, per_op_seconds):
        cfg = tuple(configuration)
        drawn = np.zeros(N_CASES, dtype=bool)
        drawn[cases] = True
        charged = 0.0
        for i in range(len(cfg)):
            cached = self.entries.setdefault((i, cfg[: i + 1]), np.zeros(N_CASES, dtype=bool))
            charged += per_op_seconds[i] * int(np.count_nonzero(drawn & ~cached))
            cached |= drawn
        return charged


def two_sided_p_value(mean: float, variance: float, n: int, mu0: float) -> float:
    """p-value of the one-sample two-sided t-test of H0: population mean = mu0.

    A standard error of zero, from zero variance or from one so small that
    ``variance / n`` underflows, leaves no spread to test against: the
    p-value is 1 at ``mu0`` and 0 anywhere else."""
    if n < 2:
        return 1.0
    se = math.sqrt(variance / n) if variance > 0.0 else 0.0
    if se == 0.0:
        return 1.0 if mean == mu0 else 0.0
    t = (mean - mu0) / se
    return 2.0 * float(stdtr(n - 1, -abs(t)))


def per_look_profile_plan(plan, land, strat, cache, a_slo, rng):
    """The guided profiler drawing each look's block through
    :func:`stratum_cases` at the allocation's strata and
    :func:`sample_strata` at the cases' true strata, and deciding each look
    by scipy's t-test p-value at the Bonferroni-spent level."""
    looks = look_schedule()
    alpha = (1.0 - CONFIDENCE) / len(looks)
    order = allocation(strat.weights, DEFAULT_N_MAX)
    cases = np.empty(DEFAULT_N_MAX, dtype=np.intp)
    values = np.empty(DEFAULT_N_MAX)
    verdict = Verdict.INCONCLUSIVE
    n = 0
    for look in looks:
        cases[n:look] = stratum_cases(strat, order[n:look], rng)
        values[n:look] = sample_strata(land, plan.configuration, land.case_stratum[cases[n:look]], rng)
        n = look
        shifted = values[:n] - values[0]
        offset = float(shifted.sum()) / n
        deviations = shifted - offset
        mean = float(values[0]) + offset
        variance = float(deviations @ deviations) / (n - 1) if n > 1 else 0.0
        if two_sided_p_value(mean, variance, n, a_slo) < alpha:
            verdict = Verdict.PASS_ACCURACY if mean > a_slo else Verdict.FAIL_ACCURACY
            break
    charged = cache.charge(plan.configuration, cases[:n], land.timings_for(plan.configuration).base_compute_s)
    return ProfileOutcome(accuracy_estimate=mean, samples_used=n, verdict=verdict, profiling_cost=charged)


def strata_profile_plan_fixed_n(plan, land, n_samples, cache, a_slo, rng):
    """The fixed-size baseline drawing through :func:`sample_strata`."""
    cases = rng.integers(N_CASES, size=n_samples)
    mean = float(sample_strata(land, plan.configuration, land.case_stratum[cases], rng).mean())
    charged = cache.charge(plan.configuration, cases, land.timings_for(plan.configuration).base_compute_s)
    verdict = Verdict.PASS_ACCURACY if mean > a_slo else Verdict.FAIL_ACCURACY
    return ProfileOutcome(accuracy_estimate=mean, samples_used=n_samples, verdict=verdict, profiling_cost=charged)


def column_kernel_row(pool, j):
    """exp(-h) at every row of the integer code rows ``pool``, h its number
    of codes unlike row ``j``'s, counted a column at a time."""
    kernel = np.exp(-np.arange(pool.shape[1] + 1.0))
    h = np.zeros(len(pool), np.min_scalar_type(pool.shape[1]))
    for column, code in zip(pool.T, pool[j]):
        h += column != code
    return kernel[h]


def whole_pool_vote(session, idx):
    """A history session's vote at pool rows ``idx``: the top-K models'
    acquisition scores and costs, weighted by 1/(gap + eps) (uniformly
    before any gap), each summed over the whole pool in top-K order, then
    gathered at ``idx``."""
    top = np.argsort(session.gaps, kind="stable")[:HISTORY_TOP_K]
    raw = 1.0 / (session.gaps[top] + GAP_EPS) if session.gap_n else np.ones(len(top))
    weights = raw / raw.sum()
    n_pool = len(session.predicted[0].config)
    combined = np.zeros(n_pool)
    cost_acc = np.zeros(n_pool)
    for w, i in zip(weights, top):
        scores, costs = acquisition(session.predicted[i], session.a_slo, session.l_slo)
        combined += w * scores
        cost_acc += w * costs
    return combined[idx], cost_acc[idx]


def argmax_with_ties(scores, costs):
    """Index of the best score; ties go to the lowest cost, then index."""
    tied = np.flatnonzero(scores == scores.max())
    return int(tied[np.argmin(costs[tied])])


def moveaxis_reducible(feasible):
    """Lattice states with a feasible single-step reduction, one axis at a
    time through ``np.moveaxis``."""
    reducible = np.zeros_like(feasible)
    for axis in range(feasible.ndim):
        np.moveaxis(reducible, axis, 0)[:-1] |= np.moveaxis(feasible, axis, 0)[1:]
    return reducible
