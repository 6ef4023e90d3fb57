"""Domain vocabulary shared by every subsystem.

Pipelines are small DAGs of operators (a linear chain plus optional fan-in
edges), deployed across an ordered list of infrastructure tiers. A concrete
deployment choice is a :class:`PlanPoint`: one configuration option per
operator, one tier per operator, and one resource fraction per operator.

All values here are immutable after construction and safe to share across
concurrent planning sessions; a topology's memo only caches results derived
from it.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb, isfinite, prod
from typing import Sequence

import numpy as np

SCHEMA_VERSION = 1

#: Discrete per-operator resource fractions (of one machine's capacity).
RESOURCE_FRACTIONS = (1.0, 0.5, 0.25, 0.125)
#: Grid units per machine: every fraction above is a whole number of them.
GRID = round(1 / min(RESOURCE_FRACTIONS))


class SchemaError(ValueError):
    """A file or dict violates the documented JSON schema."""


class SpaceTooLargeError(RuntimeError):
    """An exhaustive operation refused to run on an oversized instance."""


class Verdict(Enum):
    PASS_ACCURACY = "pass_accuracy"
    FAIL_ACCURACY = "fail_accuracy"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OperatorSpec:
    """One pipeline stage and its discrete configuration options.

    ``base_output_size`` is the bytes emitted per input item at the
    reference configuration; batching operators (LLM-style) share compute
    with co-batched requests instead of slicing FLOPS.
    """

    id: int
    knob_domain: tuple[str, ...]
    is_batching: bool = False
    base_output_size: float = 1_000_000.0

    def __post_init__(self) -> None:
        if not self.knob_domain:
            raise ValueError(f"operator {self.id}: knob_domain must be non-empty")
        if len(set(self.knob_domain)) != len(self.knob_domain):
            raise ValueError(f"operator {self.id}: duplicate knob option names")
        if self.base_output_size <= 0:
            raise ValueError(f"operator {self.id}: base_output_size must be > 0")


@dataclass(frozen=True)
class PipelineSpec:
    """Ordered operators plus directed (producer, consumer) edges.

    Operator ids are ordinal in pipeline order, so every edge must point
    forward; acyclicity follows. Exactly one sink is allowed and every
    operator must be reachable from a source.

    ``input_bytes``: size of the raw input item, which originates on the
    device tier; source operators placed off-device pay an ingress
    transfer. Zero means the input is negligible (or already wherever the
    source operator runs).
    """

    name: str
    operators: tuple[OperatorSpec, ...]
    edges: tuple[tuple[int, int], ...] = ()
    input_bytes: float = 0.0

    def __post_init__(self) -> None:
        if not self.operators:
            raise ValueError("pipeline must contain at least one operator")
        if self.input_bytes < 0:
            raise ValueError("input_bytes must be >= 0")
        for i, op in enumerate(self.operators):
            if op.id != i:
                raise ValueError(f"operator ids must be 0..{len(self.operators) - 1} in order")
        n = len(self.operators)
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) references unknown operator")
            if u >= v:
                raise ValueError(f"edge ({u},{v}) must point forward in pipeline order")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        sinks = [i for i in range(n) if not any(u == i for u, _ in self.edges)]
        if len(sinks) != 1:
            raise ValueError(f"pipeline must have exactly one sink, found {sinks}")
        if n > 1:
            reachable = set(self.sources())
            for u, v in sorted(self.edges):
                if u in reachable:
                    reachable.add(v)
            if reachable != set(range(n)):
                raise ValueError("every operator must be reachable from a source")

    @cached_property
    def preds(self) -> tuple[tuple[int, ...], ...]:
        """Each operator's producers, in edge order."""
        return tuple(tuple(u for u, v in self.edges if v == i) for i in range(len(self.operators)))

    def sources(self) -> list[int]:
        return [i for i, preds in enumerate(self.preds) if not preds]

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.operators, self.edges, self.input_bytes))

    def __hash__(self) -> int:
        """The generated field-tuple hash, computed once: memo keys hash the
        pipeline on every lookup. Equality is still by field values."""
        return self._hash

    @property
    def sink(self) -> int:
        return len(self.operators) - 1  # edges point forward, so the one sink is last

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class Tier:
    name: str
    machine_count: int
    capacity: float
    unit_cost: float

    def __post_init__(self) -> None:
        if self.machine_count < 1:
            raise ValueError(f"tier {self.name}: machine_count must be >= 1")
        if self.capacity <= 0 or self.unit_cost <= 0:
            raise ValueError(f"tier {self.name}: capacity and unit_cost must be > 0")

    @property
    def machine_hourly_cost(self) -> float:
        """Dollars per machine-hour (unit_cost is per resource-unit-hour)."""
        return self.capacity * self.unit_cost


@dataclass(frozen=True)
class TierTopology:
    """Ordered tiers (device -> cloud) with pairwise bandwidth and fixed
    per-transfer link latency. The bandwidth diagonal is the within-tier
    fabric; cross entries apply between tiers.

    ``_memo`` keeps plan-level results computed on this topology, keyed by
    value: ``("latency", plan, pipeline, timings)`` for
    :func:`latency.plan_latency` and ``("pareto", plan, pipeline, timings,
    l_slo)`` for :func:`search.pareto_optimize`. A drift builds a new
    topology, which starts with an empty memo, so no entry outlives the
    bandwidths it was computed on."""

    tiers: tuple[Tier, ...]
    bandwidth_mbps: tuple[tuple[float, ...], ...]
    link_latency_s: tuple[tuple[float, ...], ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = len(self.tiers)
        if t == 0:
            raise ValueError("topology needs at least one tier")
        for mat, name in ((self.bandwidth_mbps, "bandwidth"), (self.link_latency_s, "link latency")):
            if len(mat) != t or any(len(row) != t for row in mat):
                raise ValueError(f"{name} matrix must be {t}x{t}")
        for i in range(t):
            for j in range(t):
                if self.bandwidth_mbps[i][j] <= 0:
                    raise ValueError(f"bandwidth[{i}][{j}] must be > 0")
                if abs(self.bandwidth_mbps[i][j] - self.bandwidth_mbps[j][i]) > 1e-9:
                    raise ValueError("bandwidth matrix must be symmetric across a link")
                if self.link_latency_s[i][j] < 0:
                    raise ValueError("link latency must be >= 0")

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    def with_bandwidth_scaled(self, link: tuple[int, int], factor: float) -> "TierTopology":
        """New topology with one link's bandwidth multiplied by ``factor``,
        and an empty memo."""
        if factor <= 0:
            raise ValueError("bandwidth factor must be > 0")
        i, j = link
        rows = [list(r) for r in self.bandwidth_mbps]
        rows[i][j] *= factor
        if i != j:
            rows[j][i] *= factor
        return TierTopology(self.tiers, tuple(tuple(r) for r in rows), self.link_latency_s)


@dataclass(frozen=True)
class PlanPoint:
    """(configuration, placement, resources) for one pipeline.

    Placement is monotone non-decreasing along operator order: an operator
    never moves back toward the device once the pipeline moved cloudward.
    """

    configuration: tuple[int, ...]
    placement: tuple[int, ...]
    resources: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.configuration) == len(self.placement) == len(self.resources)):
            raise ValueError("configuration, placement and resources must align")
        if any(b < a for a, b in zip(self.placement, self.placement[1:])):
            raise ValueError(f"placement {self.placement} is not monotone device->cloud")
        for f in self.resources:
            if f not in RESOURCE_FRACTIONS:
                raise ValueError(f"resource fraction {f} not in grid {RESOURCE_FRACTIONS}")

    def with_resources(self, resources: Sequence[float]) -> "PlanPoint":
        return PlanPoint(self.configuration, self.placement, tuple(resources))


@dataclass(frozen=True)
class Query:
    """One serving request: a pipeline, its SLOs and its planning budget.

    Exactly one of ``response_budget_s`` (latency-critical, simulated
    seconds) or ``profiling_budget_gpuh`` (throughput-critical, GPU-hours)
    must be set.
    """

    id: str
    pipeline: PipelineSpec
    a_slo: float
    l_slo: float
    response_budget_s: float | None = None
    profiling_budget_gpuh: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.a_slo <= 1):
            raise ValueError(f"query {self.id}: a_slo must be in (0, 1]")
        if not self.l_slo > 0:
            raise ValueError(f"query {self.id}: l_slo must be > 0, got {self.l_slo}")
        if (self.response_budget_s is None) == (self.profiling_budget_gpuh is None):
            raise ValueError(f"query {self.id}: exactly one budget form must be set")
        budget = self.profiling_budget_gpuh if self.response_budget_s is None else self.response_budget_s
        if not (isfinite(budget) and budget >= 0):
            raise ValueError(f"query {self.id}: the budget must be finite and >= 0, got {budget}")
        if not self.weight > 0:
            raise ValueError(f"query {self.id}: weight must be > 0, got {self.weight}")


@dataclass(frozen=True)
class ProfileOutcome:
    accuracy_estimate: float
    samples_used: int
    verdict: Verdict
    profiling_cost: float  # GPU-seconds charged for this plan


# ---------------------------------------------------------------------------
# Search-pool enumeration

SEARCH_POOL_MAX_PLANS = 100_000  # most plans a search pool may hold


def check_search_pool_size(pipeline: PipelineSpec, num_tiers: int) -> None:
    """Raise SpaceTooLargeError if the search pool, Π|knob domain| configurations
    times C(T + m - 1, m) monotone placements, exceeds SEARCH_POOL_MAX_PLANS."""
    m = len(pipeline)
    size = prod(len(op.knob_domain) for op in pipeline.operators) * comb(num_tiers + m - 1, m)
    if size > SEARCH_POOL_MAX_PLANS:
        raise SpaceTooLargeError(
            f"pipeline '{pipeline.name}': search pool has {size} plans, exhaustive cap is {SEARCH_POOL_MAX_PLANS}"
        )


def search_pool_codes(pipeline: PipelineSpec, num_tiers: int) -> tuple[np.ndarray, np.ndarray]:
    """The search pool as code arrays: every configuration (each operator's
    option index, in ``itertools.product`` order) and every placement
    (monotone non-decreasing tier assignment, in
    ``combinations_with_replacement`` order), one row each. Pool plan ``i``
    is configuration ``i % C`` at placement ``i // C`` (C configurations):
    placements run outer, configurations inner, and pool indices depend on
    this order. An oversized pool is refused first (:func:`check_search_pool_size`)."""
    check_search_pool_size(pipeline, num_tiers)
    m = len(pipeline)
    configs = np.indices([len(op.knob_domain) for op in pipeline.operators]).reshape(m, -1).T
    placements = np.array(list(combinations_with_replacement(range(num_tiers), m))).reshape(-1, m)
    return configs, placements


def enumerate_search_pool(pipeline: PipelineSpec, topology: TierTopology) -> list[PlanPoint]:
    """All (configuration, placement) points at over-provisioned resources,
    in :func:`search_pool_codes` order.

    Resource fractions are deferred to Pareto pruning, so the search pool
    fixes r = all-ones.
    """
    configs, placements = search_pool_codes(pipeline, topology.num_tiers)
    ones = (1.0,) * len(pipeline)
    configs = list(map(tuple, configs.tolist()))
    return [PlanPoint(config, placement, ones) for placement in map(tuple, placements.tolist()) for config in configs]


# ---------------------------------------------------------------------------
# Pareto helpers


def pareto_front(cost, latency) -> np.ndarray:
    """Indices, ascending, of the (cost, latency) non-dominated entries of
    two equal-length sequences, both minimized. An entry is dropped if
    another is no worse in both and strictly better in one, or if an
    earlier entry has equal keys. One stable sort by (cost, latency), so
    equal keys keep index order, and a running minimum: an entry survives
    iff its latency is below that of every entry sorted before it, and the
    first always survives."""
    order = np.lexsort((latency, cost))
    lat = np.asarray(latency)[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = lat[1:] < np.minimum.accumulate(lat)[:-1]
    return np.sort(order[keep])


def pareto_filter(items: Sequence, key) -> list:
    """The items whose ``key`` (cost, latency) pairs :func:`pareto_front`
    keeps, in input order."""
    if not items:
        return []
    cost, latency = zip(*map(key, items))
    return [items[i] for i in pareto_front(cost, latency).tolist()]


# ---------------------------------------------------------------------------
# JSON loaders (schema_version is mandatory in every file)


_JSON_TYPES = {
    bool: "true or false", int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object",
    None: "null",
}


def _typed(value, key: str, kind, where: str):
    """``value``, which must be a JSON boolean (``kind`` bool), integer (int:
    no float, no boolean), finite number (float: no boolean, returned as a
    float), string (str), array (list), object (dict) or null (None), or one
    of a tuple of these kinds; else it raises SchemaError. A number of
    either kind must lie within the float range."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    number = float in kinds and type(value) in (int, float)
    if not (number or type(value) in kinds or (value is None and None in kinds)):
        raise SchemaError(f"{where}: {key} must be {' or '.join(_JSON_TYPES[k] for k in kinds)}, got {value!r}")
    if type(value) not in (int, float):
        return value
    try:
        as_float = float(value)
    except OverflowError as e:
        raise SchemaError(f"{where}: {key} is out of range: {e}") from e
    if not number:
        return value
    if not isfinite(as_float):
        raise SchemaError(f"{where}: {key} must be finite, got {value!r}")
    return as_float


def _read(obj, kinds: dict, where: str, versioned: bool = False) -> dict:
    """The keys JSON object ``obj`` sets, each :func:`_typed` by its kind in
    ``kinds``; a key ``kinds`` lacks is a SchemaError. A ``versioned`` (file
    level) object must also carry ``schema_version`` :data:`SCHEMA_VERSION`.
    Absent keys stay absent, so the constructor's default is the only one."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    if versioned:
        if "schema_version" not in obj:
            raise SchemaError(f"{where}: missing mandatory schema_version")
        if obj["schema_version"] != SCHEMA_VERSION:
            raise SchemaError(f"{where}: unsupported schema_version {obj['schema_version']!r} (want {SCHEMA_VERSION})")
        obj = {key: value for key, value in obj.items() if key != "schema_version"}
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}; allowed {sorted(kinds)}")
    return {key: _typed(value, key, kinds[key], where) for key, value in obj.items()}


@contextmanager
def _schema_errors(where: str):
    """Re-raise a constructor's KeyError, TypeError or ValueError as
    ``SchemaError("<where>: <error>")``; a SchemaError passes unchanged."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, SchemaError):
            raise
        raise SchemaError(f"{where}: {e}") from e


def pipeline_from_dict(obj: dict, where: str = "<pipeline>") -> PipelineSpec:
    fields = _read(obj, {"name": str, "operators": list, "edges": list, "input_bytes": float}, where, versioned=True)
    kinds = {"id": int, "knob_domain": list, "is_batching": bool, "base_output_size": float}
    with _schema_errors(where):
        ops = [_read(op, kinds, f"{where}#operators[{i}]") for i, op in enumerate(fields["operators"])]
        fields["operators"] = tuple(OperatorSpec(**op | {"knob_domain": tuple(op["knob_domain"])}) for op in ops)
        if "edges" in fields:
            fields["edges"] = tuple(tuple(_typed(m, "edges", int, where) for m in (u, v)) for u, v in fields["edges"])
        return PipelineSpec(**fields)


def topology_from_dict(obj: dict, where: str = "<topology>") -> TierTopology:
    fields = _read(obj, {"tiers": list, "bandwidth_mbps": list, "link_latency_s": list}, where, versioned=True)
    kinds = {"name": str, "machine_count": int, "capacity": float, "unit_cost": float}
    with _schema_errors(where):
        fields["tiers"] = tuple(Tier(**_read(t, kinds, f"{where}#tiers[{i}]")) for i, t in enumerate(fields["tiers"]))
        for key in ("bandwidth_mbps", "link_latency_s"):
            fields[key] = tuple(tuple(_typed(x, key, float, where) for x in row) for row in fields[key])
        return TierTopology(**fields)


class _JsonConstant(str):
    """A ``NaN``, ``Infinity`` or ``-Infinity`` literal: Python's json
    parses these, but they are not JSON numbers."""


def _reject_constants(value, where: str, key: str = "") -> None:
    """Raise SchemaError at the first :class:`_JsonConstant` in ``value``,
    naming its key path."""
    if isinstance(value, _JsonConstant):
        raise SchemaError(f"{where}#{key}: {value} is not a JSON number")
    if isinstance(value, dict):
        for k, v in value.items():
            _reject_constants(v, where, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _reject_constants(v, where, f"{key}[{i}]")


def load_json_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, parse_constant=_JsonConstant)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}:{e.lineno}: not valid JSON: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 text: {e}") from e
    except OSError as e:
        raise SchemaError(f"{path}: cannot read: {e}") from e
    _reject_constants(obj, path)
    return obj


def load_pipeline(path: str) -> PipelineSpec:
    return pipeline_from_dict(load_json_file(path), where=path)


def load_topology(path: str) -> TierTopology:
    return topology_from_dict(load_json_file(path), where=path)

