"""Seeded synthetic oracle standing in for real pipelines and datasets.

A landscape defines, for every plan, the true per-stratum accuracy
distribution, per-operator reference compute times, and inter-operator
output sizes. Accuracy depends only on the configuration vector, never on
placement or resources; output sizes depend only on upstream configuration.
Everything is deterministic for a fixed seed, so every planner decision can
be checked against exhaustive sweeps.

Stratum accuracy means blend a monotone component (better options help)
with a rugged component (random per-option and pairwise effects) through a
tanh squash; the monotone_tendency knob controls how often costlier
configurations are actually more accurate.

A landscape holds its accuracy tables and its evaluation cases as
read-only numpy arrays, in the layout its readers index, and scores
configurations as arrays: one ``stratum_means`` pass gives the stratum
means of many configuration rows, each element bitwise the scalar
formula's, and the landscape caches each configuration's stratum-mean row
and accuracy mean once, for the frontier, the profilers' case rows and the
simulator's SLO checks alike. A drifted copy shares the tables and starts
with empty caches.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import latency as latmod
from .model import (
    PipelineSpec,
    PlanPoint,
    TierTopology,
    _read,
    _schema_errors,
    pareto_front,
    search_pool_codes,
)

ACC_CENTER = 0.5
ACC_SPAN = 0.42
_CLIP_LO, _CLIP_HI = 0.005, 0.995
#: Evaluation cases per landscape, and the std of their 2-D features around
#: their stratum's center.
N_CASES = 240
FEATURE_NOISE = 0.25
#: Most arrivals a generated trace may expect at its peak rate; the
#: thinning loop draws about that many candidates.
MAX_TRACE_ARRIVALS = 1_000_000


@dataclass(frozen=True, eq=False)
class GroundTruthLandscape:
    pipeline: PipelineSpec
    stratum_weights: tuple[float, ...]
    stratum_base: np.ndarray  # [stratum]
    stratum_sigma: np.ndarray  # [stratum]
    monotone_tendency: float
    monotone_weights: np.ndarray  # [op]
    option_effects: tuple[np.ndarray, ...]  # [op][stratum, option]
    pair_effects: tuple[np.ndarray, ...]  # [edge i -> i+1][stratum, option i, option i+1]
    op_base_time_s: tuple[tuple[float, ...], ...]  # [op][option]
    op_output_bytes: tuple[tuple[float, ...], ...]  # [op][option]
    tier_speed_factors: tuple[float, ...]
    case_stratum: np.ndarray  # [case], intp
    case_features: np.ndarray  # [case, feature]
    accuracy_offset: float = 0.0
    _means_cache: dict = field(default_factory=dict, init=False, repr=False)
    _rows_cache: dict = field(default_factory=dict, init=False, repr=False)
    _timings_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if abs(sum(self.stratum_weights) - 1.0) > 1e-9:
            raise ValueError("stratum weights must sum to 1")
        if any(s < 0 for s in self.stratum_sigma):
            raise ValueError("stratum sigmas must be >= 0")
        if not all(s > 0 for s in self.tier_speed_factors):
            raise ValueError(f"tier speed factors must be > 0, got {self.tier_speed_factors}")
        for name in ("op_base_time_s", "op_output_bytes"):
            if not all(x >= 0 for row in getattr(self, name) for x in row):
                raise ValueError(f"{name} must be >= 0")
        tables = (self.stratum_base, self.stratum_sigma, self.monotone_weights, self.case_stratum, self.case_features)
        for table in (*tables, *self.option_effects, *self.pair_effects):
            table.setflags(write=False)

    @property
    def k_true(self) -> int:
        return len(self.stratum_weights)

    def stratum_means(self, configurations: Sequence[Sequence[int]]) -> np.ndarray:
        """True stratum means of configuration rows, uncached: element
        ``[k, j]`` is stratum k's mean at ``configurations[j]``.

        Each element takes the scalar formula's operations in its order: the
        monotone sum of w_i (c_i + 1) / d_i from 0.0, operator by operator;
        the rugged sum of the option effects, then the pair effects; raw =
        base + t mono + (1 - t) rug; ``math.tanh`` per element (numpy's tanh
        need not match libm's bits); then 0.5 + 0.42 tanh + the accuracy
        offset, clipped to [_CLIP_LO, _CLIP_HI]."""
        codes = np.asarray(configurations, dtype=np.intp).reshape(-1, len(self.pipeline))
        mono = np.zeros(len(codes))
        rug = np.zeros((self.k_true, len(codes)))
        for i, op in enumerate(self.pipeline.operators):
            mono += self.monotone_weights[i] * (codes[:, i] + 1) / len(op.knob_domain)
            rug += self.option_effects[i][:, codes[:, i]]
        for i, table in enumerate(self.pair_effects):
            rug += table[:, codes[:, i], codes[:, i + 1]]
        t = self.monotone_tendency
        raw = self.stratum_base[:, None] + t * mono + (1.0 - t) * rug
        squashed = np.fromiter(map(math.tanh, raw.ravel().tolist()), float, raw.size).reshape(raw.shape)
        mu = ACC_CENTER + ACC_SPAN * squashed + self.accuracy_offset
        return np.minimum(np.maximum(mu, _CLIP_LO, out=mu), _CLIP_HI, out=mu)

    def accuracy_means(self, configurations: Sequence[Sequence[int]]) -> list[float]:
        """Population accuracy means of ``configurations``: the weighted
        mixture over strata, summed in stratum order. The uncached ones are
        scored in one :meth:`stratum_means` pass and cached with their
        stratum means under the configuration."""
        keys = list(map(tuple, configurations))
        missing = [key for key in dict.fromkeys(keys) if key not in self._means_cache]
        if missing:
            means = self.stratum_means(missing)
            accuracy = np.zeros(len(missing))
            for p, row in zip(self.stratum_weights, means):
                accuracy += p * row
            rows = means.T.copy()
            rows.setflags(write=False)
            self._means_cache.update(zip(missing, zip(rows, accuracy.tolist())))
        return [self._means_cache[key][1] for key in keys]

    def _means(self, configuration: Sequence[int]) -> tuple[np.ndarray, float]:
        """A configuration's cached stratum-mean row and accuracy mean."""
        key = tuple(configuration)
        hit = self._means_cache.get(key)
        if hit is None:
            self.accuracy_means([key])
            hit = self._means_cache[key]
        return hit

    def accuracy_mean(self, configuration: Sequence[int]) -> float:
        """Population accuracy mean at a configuration (see :meth:`accuracy_means`)."""
        return self._means(configuration)[1]

    def case_rows(self, configuration: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Each case's true stratum mean at a configuration, and each case's
        stratum sigma: read-only rows over the cases, the means cached under
        the configuration."""
        key = tuple(configuration)
        hit = self._rows_cache.get(key)
        if hit is None:
            mu = self._means(key)[0][self.case_stratum]
            mu.setflags(write=False)
            hit = self._rows_cache[key] = mu, self._case_sigma
        return hit

    @cached_property
    def _case_sigma(self) -> np.ndarray:
        sigma = self.stratum_sigma[self.case_stratum]
        sigma.setflags(write=False)
        return sigma

    def timings_for(self, configuration: Sequence[int]) -> latmod.OperatorTimings:
        key = tuple(configuration)
        hit = self._timings_cache.get(key)
        if hit is None:
            hit = self._timings_cache[key] = latmod.OperatorTimings(
                base_compute_s=tuple(self.op_base_time_s[i][c] for i, c in enumerate(key)),
                output_bytes=tuple(self.op_output_bytes[i][c] for i, c in enumerate(key)),
                tier_speed_factors=self.tier_speed_factors,
            )
        return hit

    def with_accuracy_shift(self, delta: float) -> "GroundTruthLandscape":
        """Drifted copy: every stratum mean moves by ``delta`` (then clipped).
        The copy shares the read-only tables and starts with empty caches."""
        return dataclasses.replace(self, accuracy_offset=self.accuracy_offset + delta)

_DIFFICULTY_TENDENCY = {"monotone": 1.0, "rugged": 0.15, "mixed": 0.5}


def generate_landscape(
    seed: int,
    pipeline: PipelineSpec,
    tier_speed_factors: Sequence[float],
    difficulty: str | float = "rugged",
    k_true: int = 4,
    noise_scale: float = 0.05,
) -> GroundTruthLandscape:
    """Build a deterministic synthetic landscape for one pipeline.

    ``difficulty`` is a preset name or a monotone-tendency float in [0, 1]:
    1.0 forces the most expensive configuration to be the most accurate,
    low values make accuracy rugged in the configuration vector. ``k_true``
    equal-weight strata each get a base accuracy and a sampling noise
    around ``noise_scale``. ``tier_speed_factors`` holds one compute-time
    multiplier per tier, so its length is the landscape's tier count.
    """
    if not 1 <= k_true <= N_CASES:
        raise ValueError(f"k_true must be in 1..{N_CASES}, got {k_true}")
    if not (math.isfinite(noise_scale) and noise_scale >= 0):
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale}")
    if isinstance(difficulty, str):
        if difficulty not in _DIFFICULTY_TENDENCY:
            raise ValueError(f"unknown difficulty {difficulty!r}")
        tendency = _DIFFICULTY_TENDENCY[difficulty]
    else:
        tendency = float(difficulty)
        if not (0.0 <= tendency <= 1.0):
            raise ValueError("monotone tendency must be in [0, 1]")

    rng = np.random.default_rng(seed)
    m = len(pipeline)
    domains = [len(op.knob_domain) for op in pipeline.operators]

    weights = np.full(k_true, 1.0 / k_true)
    base = rng.uniform(-0.3, 0.3, size=k_true)
    mono_w = rng.uniform(0.9, 1.8, size=m) / m
    sigmas = noise_scale * rng.uniform(0.6, 1.4, size=k_true)

    # Option effects share a component across strata (the config signal the
    # planner optimizes) plus a smaller per-stratum deviation; fully
    # independent strata would flatten the mixture mean toward 0.5.
    shared_opt = [rng.uniform(-1.7, 1.7, size=domains[i]) / m for i in range(m)]
    shared_pair = [rng.uniform(-0.6, 0.6, size=(domains[i], domains[i + 1])) / m for i in range(m - 1)]
    option_rows = [[] for _ in range(m)]
    pair_rows = [[] for _ in range(m - 1)]
    for _ in range(k_true):
        for i in range(m):
            option_rows[i].append(shared_opt[i] + rng.uniform(-0.5, 0.5, size=domains[i]) / m)
        for i in range(m - 1):
            pair_rows[i].append(shared_pair[i] + rng.uniform(-0.25, 0.25, size=(domains[i], domains[i + 1])) / m)

    op_times = []
    op_bytes = []
    for i, op in enumerate(pipeline.operators):
        t0 = rng.uniform(0.0003, 0.002)
        slope = rng.uniform(1.0, 2.5)
        d = domains[i]
        op_times.append(tuple(t0 * (1.0 + slope * j / max(d - 1, 1)) for j in range(d)))
        s_slope = rng.uniform(0.5, 1.5)
        op_bytes.append(tuple(op.base_output_size * (0.5 + s_slope * (j + 1) / d) for j in range(d)))

    case_stratum, case_features, empirical = _draw_cases(rng, weights)
    return GroundTruthLandscape(
        pipeline=pipeline,
        stratum_weights=empirical,
        stratum_base=base,
        stratum_sigma=sigmas,
        monotone_tendency=tendency,
        monotone_weights=mono_w,
        option_effects=tuple(map(np.stack, option_rows)),
        pair_effects=tuple(map(np.stack, pair_rows)),
        op_base_time_s=tuple(op_times),
        op_output_bytes=tuple(op_bytes),
        tier_speed_factors=tuple(float(s) for s in tier_speed_factors),
        case_stratum=case_stratum,
        case_features=case_features,
    )


def _draw_cases(rng: np.random.Generator, weights: Sequence[float]) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """``N_CASES`` evaluation cases for stratum weights ``weights``: the
    stratum of each case (counts rounded to sum to N_CASES, in a random
    order), its 2-D features around its stratum's center, and the empirical
    stratum weights those counts give."""
    weights = np.asarray(weights)
    k_true = len(weights)
    counts = np.floor(weights * N_CASES).astype(int)
    while counts.sum() < N_CASES:
        counts[int(np.argmax(weights * N_CASES - counts))] += 1
    strata = np.repeat(np.arange(k_true, dtype=np.intp), counts)[rng.permutation(N_CASES)]
    empirical = np.bincount(strata, minlength=k_true) / N_CASES

    angle = 2 * math.pi * np.arange(k_true) / k_true
    centers = np.stack([3.0 * np.cos(angle), 3.0 * np.sin(angle)], axis=1)
    feats = centers[strata] + rng.normal(0.0, FEATURE_NOISE, size=(N_CASES, 2))
    return strata, feats, tuple(empirical.tolist())


def quality_latency_frontier(
    landscape: GroundTruthLandscape, topology: TierTopology
) -> list[tuple[PlanPoint, float, float]]:
    """SLO-free Pareto trade-off between accuracy (max) and latency (min)
    over the over-provisioned (configuration, placement) search pool, used
    to draw per-query SLO requirements: the ``(plan, accuracy_mean,
    latency_s)`` rows of the non-dominated plans in pool order, ties to the
    earlier plan. An oversized pool is refused by :func:`search_pool_codes`
    before anything is scored.

    Per placement, one :func:`latency.longest_path` scores every
    configuration's compute and output-byte columns with the elementwise
    sums of :func:`latency.pipeline_latency`, so each latency is bitwise the
    scalar one. One :meth:`GroundTruthLandscape.accuracy_means` pass scores
    every configuration, which fills the landscape's mean cache. Only kept
    rows become plans.
    """
    pipeline = landscape.pipeline
    m, ops, speed = len(pipeline), pipeline.operators, landscape.tier_speed_factors
    configs, placements = search_pool_codes(pipeline, topology.num_tiers)
    base = [np.take(times, col) for times, col in zip(landscape.op_base_time_s, configs.T)]
    sizes = tuple(np.take(out, col) for out, col in zip(landscape.op_output_bytes, configs.T))
    timings = latmod.OperatorTimings(tuple(base), sizes, speed)
    configs, placements = list(map(tuple, configs.tolist())), list(map(tuple, placements.tolist()))
    accuracy = landscape.accuracy_means(configs)
    latency = []
    for placement in placements:
        node_w = [latmod.compute_time(b, 1.0, speed[tier], op.is_batching) for b, tier, op in zip(base, placement, ops)]
        latency.append(latmod.longest_path(node_w, placement, pipeline, topology, timings))
    latency = np.concatenate(latency)
    kept = pareto_front(1.0 - np.tile(accuracy, len(placements)), latency)
    c, ones = len(configs), (1.0,) * m
    return [
        (PlanPoint(configs[k % c], placements[k // c], ones), accuracy[k % c], float(latency[k])) for k in kept.tolist()
    ]


# ---------------------------------------------------------------------------
# Arrival traces

SLO_HARDNESS = {
    "easy": (2.0, 0.7),
    "medium": (1.5, 0.8),
    "hard": (1.1, 0.9),
}


@dataclass(frozen=True)
class TraceEntry:
    arrival_time: float
    template: str
    a_slo: float
    l_slo: float
    lifespan: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.arrival_time) and self.arrival_time >= 0):
            raise ValueError(f"arrival_time must be finite and >= 0, got {self.arrival_time}")
        if not (0 < self.a_slo <= 1):
            raise ValueError(f"a_slo must be in (0, 1], got {self.a_slo}")
        if not self.l_slo > 0:
            raise ValueError(f"l_slo must be > 0, got {self.l_slo}")
        if not (math.isfinite(self.lifespan) and self.lifespan > 0):
            raise ValueError(f"lifespan must be finite and > 0, got {self.lifespan}")
        if not self.weight > 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


@dataclass(frozen=True)
class ArrivalTrace:
    entries: tuple[TraceEntry, ...]

    def __post_init__(self) -> None:
        times = [e.arrival_time for e in self.entries]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("arrival times must be non-decreasing")

    @staticmethod
    def from_dict(obj: dict, where: str = "<trace>") -> "ArrivalTrace":
        fields = _read(obj, {"entries": list}, where, versioned=True)
        kinds = dict.fromkeys(("arrival_time", "a_slo", "l_slo", "lifespan", "weight"), float) | {"template": str}
        with _schema_errors(where):
            entries = [TraceEntry(**_read(e, kinds, f"{where}#entries[{i}]")) for i, e in enumerate(fields["entries"])]
            return ArrivalTrace(entries=tuple(entries))


def generate_trace(
    landscapes: dict[str, GroundTruthLandscape],
    topology: TierTopology,
    duration_s: float = 120.0,
    load: float = 1.0,
    burst_factor: float = 1.0,
    hardness: str = "medium",
    mean_lifespan_s: float = 60.0,
    seed: int = 0,
) -> ArrivalTrace:
    """Poisson-thinned diurnal arrivals, normalized so load 1.0 saturates
    the cluster (a new query arrives as the previous one finishes); each
    entry's SLOs come from the frontier of one of ``landscapes``. A trace
    that expects more than MAX_TRACE_ARRIVALS arrivals at its peak rate, or
    a rate beyond the float range, is refused with ValueError."""
    if hardness not in SLO_HARDNESS:
        raise ValueError(f"unknown hardness {hardness!r}")
    for name, value in (
        ("duration_s", duration_s),
        ("load", load),
        ("burst_factor", burst_factor),
        ("mean_lifespan_s", mean_lifespan_s),
    ):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    lat_mult, acc_mult = SLO_HARDNESS[hardness]
    rng = np.random.default_rng(seed)

    frontiers = {}
    demands = []
    for name, land in sorted(landscapes.items()):
        frontier = quality_latency_frontier(land, topology)
        frontiers[name] = frontier
        demands.extend(sum(plan.resources) for plan, _, _ in frontier)
    mean_demand = max(float(np.mean(demands)), 1e-9)
    # summed as floats: past the float range the rate is inf, refused below
    total_machines = sum(float(t.machine_count) for t in topology.tiers)
    base_rate = total_machines / (mean_demand * mean_lifespan_s)
    amp = 0.3
    burst_lo, burst_hi = 0.4 * duration_s, 0.5 * duration_s

    def rate_at(t: float) -> float:
        r = load * base_rate * (1.0 + amp * math.sin(2 * math.pi * t / max(duration_s, 1e-9)))
        if burst_lo <= t < burst_hi:
            r *= burst_factor
        return r

    lam_max = load * base_rate * (1.0 + amp) * max(burst_factor, 1.0)
    expected = lam_max * duration_s
    if not expected <= MAX_TRACE_ARRIVALS:
        raise ValueError(
            f"the trace expects {expected:.3g} arrivals at its peak rate over duration_s, "
            f"more than MAX_TRACE_ARRIVALS ({MAX_TRACE_ARRIVALS}); lower the machine count, load or duration"
        )
    names = sorted(landscapes)
    entries = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / lam_max)
        if t >= duration_s:
            break
        if rng.uniform() > rate_at(t) / lam_max:
            continue
        name = names[int(rng.integers(len(names)))]
        frontier = frontiers[name]
        _plan, acc, lat = frontier[int(rng.integers(len(frontier)))]
        lifespan = float(max(10.0, rng.exponential(mean_lifespan_s)))
        entries.append(
            TraceEntry(
                arrival_time=float(t),
                template=name,
                a_slo=float(min(1.0, acc_mult * acc)),
                l_slo=float(lat_mult * lat),
                lifespan=lifespan,
            )
        )
    return ArrivalTrace(entries=tuple(entries))
