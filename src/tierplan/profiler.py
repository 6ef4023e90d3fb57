"""Accuracy-SLO profiling that spends as few sampled cases as possible.

Cases are grouped once per planning session by one-shot K-means over input
features. Draw j goes to the stratum with the largest deficit
p_k (j + 1) - count_k, so no stratum ever runs a full draw ahead of its
quota and every stratum k gets exactly n p_k of the first n draws whenever
those are integers; the case is uniform within its stratum. The plain
sample mean then estimates the population mean, and the between-strata
term drops out of that mean's variance. The t-test below still divides by
the plain sample variance, which keeps the between-strata spread, so the
strata do not make it stop sooner.

A two-sided one-sample t-test against the accuracy SLO runs only at the
geometric looks n_k = ceil(50 * 1.1^k), capped at 1000 (33 looks), and
stops the session at the first look that is significant in either
direction. The per-look level is the overall 1% Bonferroni-spent
over the schedule's looks, so the repeated peeking keeps the procedure's
size at most 1% (a group-sequential design: Pocock, Biometrika 1977; Lan &
DeMets, Biometrika 1983). The test is written as per-look critical values:
look k is significant when |t| exceeds ``T_CRIT[k]``, the two-sided
critical |t| of its n_k - 1 degrees of freedom at that level. Between looks the whole block of cases and
values is drawn at once, in place: a look makes only its two generator
calls and writes its gathers and clips into the look's slice, through the
one case-value draw that the fixed-size baseline shares.

A query-scoped prefix cache tracks which (operator, upstream-configuration)
intermediate outputs already exist per case, so re-profiling a plan that
shares a configuration prefix is only charged for the downstream suffix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .landscape import N_CASES, GroundTruthLandscape
from .model import PlanPoint, ProfileOutcome, Verdict

#: Family-wise confidence of the sequential test, spent evenly over its looks.
CONFIDENCE = 0.99
DEFAULT_MIN_SAMPLES = 50
DEFAULT_N_MAX = 1000
DEFAULT_PLANNER_STRATA = 4
KMEANS_ITERS = 100  # Lloyd iterations at most
#: Each look's sample size is LOOK_GROWTH times the previous one's.
LOOK_GROWTH = 1.1


# ---------------------------------------------------------------------------
# One-shot K-means stratification


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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
    for _ in range(KMEANS_ITERS):
        dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            movable = counts[new_labels] > 1
            cand = np.where(movable, dists[np.arange(n), new_labels], -np.inf)
            i = int(np.argmax(cand))
            counts[new_labels[i]] -= 1
            counts[j] += 1
            new_labels[i] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
    return labels


@dataclass(frozen=True, eq=False)
class Stratification:
    """Case -> stratum map, built once per planning session and never re-fit
    mid-session: the stratum weights, every stratum's cases back to back,
    and the start and the size of the stratum of each of the first
    DEFAULT_N_MAX draws of ``allocation``, so draw j is case
    ``members[starts[j] + u]``, u uniform below ``sizes[j]``."""

    weights: tuple[float, ...]
    members: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


def stratify(case_features: Sequence[Sequence[float]], k: int, seed: int = 0) -> Stratification:
    """One-shot K-means over case features into ``k`` strata, every one
    non-empty, whose weights are their shares of the cases."""
    n = len(case_features)
    if k < 1 or k > n:
        raise ValueError(f"stratum count {k} must be in [1, {n}]")
    labels = _kmeans(np.asarray(case_features, dtype=float), k, np.random.default_rng(seed))
    counts = np.bincount(labels, minlength=k)
    weights = tuple((counts / n).tolist())
    order = allocation(weights, DEFAULT_N_MAX)
    members = np.argsort(labels, kind="stable")
    return Stratification(weights, members, (np.cumsum(counts) - counts)[order], counts[order])


@lru_cache(maxsize=256)
def allocation(weights: tuple[float, ...], n: int) -> np.ndarray:
    """Stratum of each of the first ``n`` draws: draw j goes to the stratum
    with the largest deficit p_k (j + 1) - count_k, ties to the lower index.

    The picked stratum's deficit was positive (the deficits sum to 1), so
    no count ever reaches quota + 1; when every quota n p_k is an integer,
    the counts therefore equal the quotas. Equal weights give
    0, 1, ..., K-1, 0, 1, ...
    """
    counts = [0] * len(weights)
    order = np.empty(n, dtype=np.intp)
    for j in range(n):
        deficits = [p * (j + 1) - c for p, c in zip(weights, counts)]
        k = deficits.index(max(deficits))
        counts[k] += 1
        order[j] = k
    order.flags.writeable = False
    return order


# ---------------------------------------------------------------------------
# Dependency-aware prefix cache


@dataclass
class PrefixCache:
    """Query-scoped cache of intermediate operator outputs.

    Keys are (operator index, configuration prefix through that operator);
    upstream configs fully determine the outputs, so downstream knob changes
    never invalidate an entry. Each value is a bitset, a Python int whose
    bit c is set once case c's output is materialized. The cache is
    discarded when the planning session ends.
    """

    entries: dict[tuple[int, tuple[int, ...]], int] = field(default_factory=dict)

    def charge(self, configuration: Sequence[int], cases: np.ndarray, per_op_seconds: Sequence[float]) -> float:
        """Seconds charged for running ``cases`` (repeats allowed): each
        operator is charged once per case whose output is not cached yet,
        and those outputs are cached."""
        cfg = tuple(configuration)
        mask = np.zeros(N_CASES, dtype=bool)
        mask[cases] = True
        drawn = int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")
        charged = 0.0
        for i in range(len(cfg)):
            key = (i, cfg[: i + 1])
            cached = self.entries.get(key, 0)
            charged += per_op_seconds[i] * (drawn & ~cached).bit_count()
            self.entries[key] = cached | drawn
        return charged


class NullCache:
    """Cache stand-in that never hits: full compute is charged every draw."""

    def charge(self, configuration, cases, per_op_seconds) -> float:
        return len(cases) * float(sum(per_op_seconds))


# ---------------------------------------------------------------------------
# Group-sequential profiling


def look_schedule() -> tuple[int, ...]:
    """Sample sizes at which the t-test runs: ceil(DEFAULT_MIN_SAMPLES * 1.1^k),
    capped at (and ending with) DEFAULT_N_MAX."""
    looks = [DEFAULT_MIN_SAMPLES]
    while looks[-1] < DEFAULT_N_MAX:
        looks.append(min(math.ceil(DEFAULT_MIN_SAMPLES * LOOK_GROWTH ** len(looks)), DEFAULT_N_MAX))
    return tuple(looks)


_LOOKS = look_schedule()

#: Critical |t| of each look in ``look_schedule()``:
#: ``-scipy.special.stdtrit(n - 1, alpha / 2)`` at look size n and the
#: Bonferroni-spent level alpha = (1 - CONFIDENCE) / len(look_schedule()).
T_CRIT = (
    3.889203747383989, 3.857262705265939, 3.835783747824335, 3.8145117171663476, 3.794306170130424,
    3.7777769217295782, 3.7622224441746104, 3.7478907183380605, 3.7348779917837707, 3.7241499071684045,
    3.7135256258209606, 3.7040875108969002, 3.6957182535933906, 3.687852366623039, 3.6809785303821294,
    3.674645890091112, 3.66888610798, 3.663693045430148, 3.659037702728276, 3.654739141322122,
    3.650823555783213, 3.647289924485711, 3.644120530517123, 3.6412885533464125, 3.6386565337250922,
    3.6362914328609097, 3.6341385874474295, 3.632164869616181, 3.6303748546209125, 3.628763285131469,
    3.6273023426459234, 3.6259728663080715, 3.625439565193863,
)


def look_decides(mean: float, variance: float, n: int, t_crit: float, mu0: float) -> bool:
    """Whether the one-sample two-sided t-test of H0: population mean =
    mu0 rejects at critical |t| ``t_crit``, from ``n`` values' mean and
    sample variance.

    A standard error of zero, from zero variance or from one so small that
    ``variance / n`` underflows, leaves no spread to test against: the test
    rejects exactly when the mean is not mu0."""
    se = math.sqrt(variance / n) if variance > 0.0 else 0.0
    if se == 0.0:
        return mean != mu0
    return abs(mean - mu0) / se > t_crit


def _case_values(mu, sigma, cases, rng: np.random.Generator, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Accuracy draws of ``cases`` into ``out``: normals at the cases' entries
    of the configuration's :meth:`GroundTruthLandscape.case_rows` ``mu`` and
    ``sigma``, clipped to [0, 1]; ``work`` is scratch. Placement and
    resources never alter the draw stream."""
    rng.standard_normal(out=out)
    # every index is in range, so "clip" only skips the bounds check
    out *= sigma.take(cases, out=work, mode="clip")
    out += mu.take(cases, out=work, mode="clip")
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)
    return out


def profile_plan(
    plan: PlanPoint,
    land: GroundTruthLandscape,
    strat: Stratification,
    cache: PrefixCache | NullCache,
    a_slo: float,
    rng: np.random.Generator,
) -> ProfileOutcome:
    """Guided-sampling accuracy check of one plan against its SLO.

    Draws the cases up to each look in one block, stratified by
    ``allocation``, and stops at the first look whose two-sided t-test is
    significant at the Bonferroni-spent level, that is whose |t| exceeds
    the look's ``T_CRIT``; a session that reaches
    DEFAULT_N_MAX undecided is inconclusive. A look's block draws the cases
    the :class:`Stratification` gives and their :func:`_case_values` into
    the look's slice. Charged GPU-seconds cover only cache-missing
    operators, at reference-tier full-resource compute.
    """
    members, starts, sizes = strat.members, strat.starts, strat.sizes
    mu, sigma = land.case_rows(plan.configuration)
    cases = np.empty(DEFAULT_N_MAX, dtype=np.intp)
    values = np.empty(DEFAULT_N_MAX)
    work = np.empty(DEFAULT_N_MAX)
    verdict = Verdict.INCONCLUSIVE
    n = 0
    for look, t_crit in zip(_LOOKS, T_CRIT):
        # every index is in range, so "clip" only skips the bounds check
        members.take(starts[n:look] + rng.integers(sizes[n:look]), out=cases[n:look], mode="clip")
        _case_values(mu, sigma, cases[n:look], rng, values[n:look], work[n:look])
        n = look
        # shifted by the first value, so n equal values give exactly that
        # value and zero variance
        deviations = np.subtract(values[:n], values[0], out=work[:n])
        offset = float(np.add.reduce(deviations)) / n
        deviations -= offset
        mean = float(values[0]) + offset
        variance = float(np.dot(deviations, deviations)) / (n - 1)
        if look_decides(mean, variance, n, t_crit, a_slo):
            verdict = Verdict.PASS_ACCURACY if mean > a_slo else Verdict.FAIL_ACCURACY
            break
    charged = cache.charge(plan.configuration, cases[:n], land.timings_for(plan.configuration).base_compute_s)
    return ProfileOutcome(accuracy_estimate=mean, samples_used=n, verdict=verdict, profiling_cost=charged)


def profile_plan_fixed_n(
    plan: PlanPoint,
    land: GroundTruthLandscape,
    n_samples: int,
    cache: PrefixCache | NullCache,
    a_slo: float,
    rng: np.random.Generator,
) -> ProfileOutcome:
    """Fixed-size random-sampling baseline: no strata, no early stopping.

    Draws ``n_samples`` uniform cases and their :func:`_case_values` in one
    block; the verdict is a point comparison of the sample mean against the
    SLO.
    """
    if n_samples < 1:
        raise ValueError("fixed sample size must be >= 1")
    cases = rng.integers(N_CASES, size=n_samples)
    mu, sigma = land.case_rows(plan.configuration)
    mean = float(_case_values(mu, sigma, cases, rng, np.empty(n_samples), np.empty(n_samples)).mean())
    charged = cache.charge(plan.configuration, cases, land.timings_for(plan.configuration).base_compute_s)
    verdict = Verdict.PASS_ACCURACY if mean > a_slo else Verdict.FAIL_ACCURACY
    return ProfileOutcome(accuracy_estimate=mean, samples_used=n_samples, verdict=verdict, profiling_cost=charged)
