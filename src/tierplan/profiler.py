"""Accuracy-SLO profiling that spends as few sampled cases as possible.

Cases are grouped once per planning session by one-shot K-means over input
features; draws then visit strata round-robin and sample uniformly within
the chosen stratum, which keeps the estimator mean while cutting its
variance (the between-strata term drops out). A two-sided one-sample t-test
against the accuracy SLO runs after every draw once the 50-sample minimum
is reached and stops the session as soon as the required confidence is
reached in either direction; the per-look level is Bonferroni-spent across
the eligible looks so the repeated peeking keeps the procedure's overall
size at its nominal 1%.

A query-scoped prefix cache tracks which (operator, upstream-configuration)
intermediate outputs already exist per case, so re-profiling a plan that
shares a configuration prefix is only charged for the downstream suffix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import stdtr

from .landscape import GroundTruthLandscape, sample_case
from .model import PlanPoint, ProfileOutcome, Verdict

DEFAULT_CONFIDENCE = 0.99
DEFAULT_MIN_SAMPLES = 50
DEFAULT_N_MAX = 1000
DEFAULT_PLANNER_STRATA = 4


# ---------------------------------------------------------------------------
# Theorem formulas: sample-mean variance under random vs stratified draws


def _check_weights(p: Sequence[float]) -> None:
    if abs(sum(p) - 1.0) > 1e-9:
        raise ValueError(f"stratum weights must sum to 1, got {sum(p)!r}")


def variance_random(p: Sequence[float], mu: Sequence[float], sigma2: Sequence[float], n: int) -> float:
    """Variance of the sample mean when each draw picks stratum k w.p. p_k."""
    _check_weights(p)
    if n <= 0:
        raise ValueError("sample size must be > 0")
    mix = sum(pk * mk for pk, mk in zip(p, mu))
    within = sum(pk * s2 for pk, s2 in zip(p, sigma2))
    between = sum(pk * (mk - mix) ** 2 for pk, mk in zip(p, mu))
    return (within + between) / n


def variance_stratified(p: Sequence[float], sigma2: Sequence[float], n: int) -> float:
    """Variance of the sample mean when exactly n*p_k draws hit stratum k."""
    _check_weights(p)
    if n <= 0:
        raise ValueError("sample size must be > 0")
    return sum(pk * s2 for pk, s2 in zip(p, sigma2)) / n


# ---------------------------------------------------------------------------
# One-shot K-means stratification


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator, iters: int = 100) -> np.ndarray:
    """Seeded k-means++ init plus Lloyd iterations; returns labels.

    Empty clusters are repaired by stealing the point farthest from its
    center, so every stratum is non-empty.
    """
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[int(rng.integers(n))]
        else:
            centers[j] = points[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    labels = np.full(n, -1, dtype=int)
    for it in range(iters):
        dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)
        for j in range(k):
            if np.any(new_labels == j):
                continue
            counts = np.bincount(new_labels, minlength=k)
            movable = counts[new_labels] > 1
            cand = np.where(movable, dists[np.arange(n), new_labels], -np.inf)
            new_labels[int(np.argmax(cand))] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
    return labels


@dataclass
class Stratification:
    """Case -> stratum map with round-robin draw state.

    Built once per planning session and never re-fit mid-session.
    """

    k: int
    assignment: tuple[int, ...]
    strata: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    cursor: int = 0

    def __post_init__(self) -> None:
        if any(len(s) == 0 for s in self.strata):
            raise ValueError("every stratum must be non-empty")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("empirical weights must sum to 1")


def stratify(case_features: Sequence[Sequence[float]], k: int, seed: int = 0) -> Stratification:
    """One-shot K-means over case features into ``k`` strata."""
    n = len(case_features)
    if k < 1 or k > n:
        raise ValueError(f"stratum count {k} must be in [1, {n}]")
    if k == 1:
        labels = np.zeros(n, dtype=int)
    else:
        pts = np.asarray(case_features, dtype=float)
        labels = _kmeans(pts, k, np.random.default_rng(seed))
    strata = tuple(tuple(int(i) for i in np.flatnonzero(labels == j)) for j in range(k))
    weights = tuple(len(s) / n for s in strata)
    return Stratification(k=k, assignment=tuple(int(x) for x in labels), strata=strata, weights=weights)


def next_case(strat: Stratification, rng: np.random.Generator) -> int:
    """Round-robin over strata, uniform within the chosen stratum."""
    members = strat.strata[strat.cursor]
    if not members:
        raise RuntimeError(f"stratum {strat.cursor} is empty")  # unreachable by construction
    strat.cursor = (strat.cursor + 1) % strat.k
    return members[int(rng.integers(len(members)))]


# ---------------------------------------------------------------------------
# Dependency-aware prefix cache


@dataclass
class PrefixCache:
    """Query-scoped cache of intermediate operator outputs.

    Keys are (operator index, configuration prefix through that operator);
    upstream configs fully determine the outputs, so downstream knob changes
    never invalidate an entry. Values track which sampled cases already have
    the output materialized. The cache is discarded when the planning
    session ends.
    """

    entries: dict[tuple[int, tuple[int, ...]], set[int]] = field(default_factory=dict)

    def charge_case(self, configuration: Sequence[int], case_id: int, per_op_seconds: Sequence[float]) -> float:
        """Compute seconds charged for running one case, reusing any cached
        prefix and caching the newly produced outputs."""
        cfg = tuple(configuration)
        charged = 0.0
        for i in range(len(cfg)):
            key = (i, cfg[: i + 1])
            entry = self.entries.setdefault(key, set())
            if case_id not in entry:
                charged += per_op_seconds[i]
                entry.add(case_id)
        return charged


class NullCache:
    """Cache stand-in that never hits: full compute is charged every case."""

    def charge_case(self, configuration, case_id, per_op_seconds) -> float:
        return float(sum(per_op_seconds))


# ---------------------------------------------------------------------------
# Sequential profiling session


def two_sided_p_value(mean: float, variance: float, n: int, mu0: float) -> float:
    """p-value of the one-sample two-sided t-test of H0: population mean = mu0."""
    if n < 2:
        return 1.0
    if variance <= 0.0:
        return 1.0 if mean == mu0 else 0.0
    t = (mean - mu0) / math.sqrt(variance / n)
    return 2.0 * float(stdtr(n - 1, -abs(t)))


@dataclass
class ProfilingSession:
    """Running Welford statistics and the sequential verdict for one plan.

    The t-test runs after every draw past ``min_samples``; the per-look
    significance level is Bonferroni-spent across the eligible looks so the
    whole sequential procedure keeps its nominal size (an uncorrected
    every-step test would stop spuriously far more often than 1% at the
    threshold).
    """

    plan: PlanPoint
    a_slo: float
    confidence: float = DEFAULT_CONFIDENCE
    min_samples: int = DEFAULT_MIN_SAMPLES
    n_max: int = DEFAULT_N_MAX
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    verdict: Verdict | None = None

    def __post_init__(self) -> None:
        if self.n_max < self.min_samples:
            raise ValueError("n_max must be >= min_samples")

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def step_alpha(self) -> float:
        return (1.0 - self.confidence) / max(1, self.n_max - self.min_samples + 1)

    def observe(self, value: float) -> None:
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (value - self.mean)

    def decide(self) -> Verdict | None:
        """Pass/Fail once significant past the minimum; Inconclusive at the cap."""
        if self.n >= self.min_samples:
            p = two_sided_p_value(self.mean, self.variance, self.n, self.a_slo)
            if p < self.step_alpha:
                self.verdict = (
                    Verdict.PASS_ACCURACY if self.mean > self.a_slo else Verdict.FAIL_ACCURACY
                )
                return self.verdict
        if self.n >= self.n_max:
            self.verdict = Verdict.INCONCLUSIVE
            return self.verdict
        return None


def _outcome(
    plan: PlanPoint,
    mean: float,
    n: int,
    verdict: Verdict,
    charged: float,
    log: Callable[[dict], None] | None,
) -> ProfileOutcome:
    """The profiled verdict, plus its audit row when ``log`` is given."""
    outcome = ProfileOutcome(accuracy_estimate=mean, samples_used=n, verdict=verdict, profiling_cost=charged)
    if log is not None:
        log(
            {
                "configuration": list(plan.configuration),
                "placement": list(plan.placement),
                "n": n,
                "verdict": verdict.value,
                "accuracy_estimate": mean,
                "gpu_seconds": charged,
            }
        )
    return outcome


def profile_plan(
    plan: PlanPoint,
    land: GroundTruthLandscape,
    strat: Stratification,
    cache: PrefixCache | NullCache,
    a_slo: float,
    rng: np.random.Generator,
    confidence: float = DEFAULT_CONFIDENCE,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    n_max: int = DEFAULT_N_MAX,
    log: Callable[[dict], None] | None = None,
) -> ProfileOutcome:
    """Guided-sampling accuracy check of one plan against its SLO.

    Draws cases round-robin across strata, updates running statistics, and
    stops at the first significant two-sided t-test after the sample-size
    floor. Charged GPU-seconds cover only cache-missing operators, at
    reference-tier full-resource compute.
    """
    session = ProfilingSession(
        plan=plan, a_slo=a_slo, confidence=confidence, min_samples=min_samples, n_max=n_max
    )
    timings = land.timings_for(plan.configuration)
    charged = 0.0
    while True:
        case = next_case(strat, rng)
        value = sample_case(land, plan, land.case_stratum[case], rng)
        session.observe(value)
        charged += cache.charge_case(plan.configuration, case, timings.base_compute_s)
        verdict = session.decide()
        if verdict is not None:
            break
    return _outcome(plan, session.mean, session.n, verdict, charged, log)


def profile_plan_fixed_n(
    plan: PlanPoint,
    land: GroundTruthLandscape,
    n_samples: int,
    cache: PrefixCache | NullCache,
    a_slo: float,
    rng: np.random.Generator,
    log: Callable[[dict], None] | None = None,
) -> ProfileOutcome:
    """Fixed-size random-sampling baseline: no strata, no early stopping.

    The verdict is a point comparison of the sample mean against the SLO.
    """
    if n_samples < 1:
        raise ValueError("fixed sample size must be >= 1")
    timings = land.timings_for(plan.configuration)
    charged = 0.0
    total = 0.0
    for _ in range(n_samples):
        case = int(rng.integers(land.n_cases))
        total += sample_case(land, plan, land.case_stratum[case], rng)
        charged += cache.charge_case(plan.configuration, case, timings.base_compute_s)
    mean = total / n_samples
    verdict = Verdict.PASS_ACCURACY if mean > a_slo else Verdict.FAIL_ACCURACY
    return _outcome(plan, mean, n_samples, verdict, charged, log)
