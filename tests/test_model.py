import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_monotone_placements, enumerate_plan_space, quadratic_pareto_filter, recursive_plan_count
from tierplan.model import (
    RESOURCE_FRACTIONS,
    OperatorSpec,
    PipelineSpec,
    PlanPoint,
    Query,
    SchemaError,
    Tier,
    TierTopology,
    enumerate_search_pool,
    load_json_file,
    load_topology,
    pareto_filter,
    pipeline_from_dict,
    topology_from_dict,
)


def chain(knob_sizes, name="p"):
    ops = tuple(
        OperatorSpec(i, tuple(f"k{i}-{j}" for j in range(n)), base_output_size=1e5)
        for i, n in enumerate(knob_sizes)
    )
    edges = tuple((i, i + 1) for i in range(len(knob_sizes) - 1))
    return PipelineSpec(name=name, operators=ops, edges=edges)


def flat_topology(num_tiers, machines=2):
    tiers = tuple(Tier(f"t{i}", machines, 1.0, 1.0 + i) for i in range(num_tiers))
    bw = tuple(tuple(100.0 for _ in range(num_tiers)) for _ in range(num_tiers))
    t0 = tuple(tuple(0.0 for _ in range(num_tiers)) for _ in range(num_tiers))
    return TierTopology(tiers=tiers, bandwidth_mbps=bw, link_latency_s=t0)


class TestEnumeration:
    def test_single_operator_three_knobs(self):
        plans = list(enumerate_plan_space(chain([3]), flat_topology(3)))
        assert len(plans) == 36  # 3 knobs x 3 placements x 4 fractions

    def test_two_ops_single_fraction(self):
        # the search pool: the all-ones grid, placements outer, configurations inner
        pool = enumerate_search_pool(chain([2, 2]), flat_topology(2))
        assert len(pool) == 12  # 4 configs x 3 monotone placements
        assert [(p.placement, p.configuration) for p in pool] == [
            (placement, config)
            for placement in ((0, 0), (0, 1), (1, 1))
            for config in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]
        assert all(p.resources == (1.0, 1.0) for p in pool)

    @pytest.mark.parametrize("knobs, num_tiers", [((2, 2), 2), ((3, 4, 5), 3), ((2, 1, 3), 4), ((4,), 5)])
    def test_search_pool_is_the_full_grid_at_all_ones_in_order(self, knobs, num_tiers):
        pipe, topo = chain(list(knobs)), flat_topology(num_tiers)
        ones = (1.0,) * len(knobs)
        assert enumerate_search_pool(pipe, topo) == [p for p in enumerate_plan_space(pipe, topo) if p.resources == ones]

    def test_visual_tracking_scale_matches_recursive_counter(self):
        pipe = chain([3, 4, 5])
        topo = flat_topology(3)
        expected = recursive_plan_count((3, 4, 5), 3, len(RESOURCE_FRACTIONS))
        assert sum(1 for _ in enumerate_plan_space(pipe, topo)) == expected

    def test_no_duplicates(self):
        plans = list(enumerate_plan_space(chain([2, 3]), flat_topology(2)))
        assert len(set(plans)) == len(plans)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_monotone_placement_count(self, m, t):
        # the exhaustive Pareto oracle relies on the full-grid enumerator
        # reaching every monotone placement, each once per allocation
        direct = all_monotone_placements(m, t)
        assert len(set(direct)) == len(direct)
        plans = list(enumerate_plan_space(chain([1] * m), flat_topology(t)))
        assert len(plans) == len(direct) * len(RESOURCE_FRACTIONS) ** m
        assert list(dict.fromkeys(p.placement for p in plans)) == direct


class TestInvariants:
    def test_empty_knob_domain_rejected(self):
        with pytest.raises(ValueError):
            OperatorSpec(0, ())

    def test_duplicate_knob_names_rejected(self):
        with pytest.raises(ValueError):
            OperatorSpec(0, ("a", "a"))

    def test_nonpositive_output_size_rejected(self):
        with pytest.raises(ValueError):
            OperatorSpec(0, ("a",), base_output_size=0.0)

    def test_backward_edge_rejected(self):
        ops = (OperatorSpec(0, ("a",)), OperatorSpec(1, ("b",)))
        with pytest.raises(ValueError):
            PipelineSpec("bad", ops, ((1, 0),))

    def test_two_sinks_rejected(self):
        ops = (OperatorSpec(0, ("a",)), OperatorSpec(1, ("b",)), OperatorSpec(2, ("c",)))
        with pytest.raises(ValueError, match="sink"):
            PipelineSpec("bad", ops, ((0, 1),))  # op2 is a second sink

    def test_fan_in_with_extra_source_is_valid(self):
        # an operator with no incoming edges is itself a source, so every
        # operator is reachable; fan-in at the sink is legal
        ops = (OperatorSpec(0, ("a",)), OperatorSpec(1, ("b",)), OperatorSpec(2, ("c",)))
        pipe = PipelineSpec("fan", ops, ((0, 2), (1, 2)))
        assert pipe.sources() == [0, 1]
        assert pipe.sink == 2

    def test_non_monotone_placement_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            PlanPoint((0, 0), (1, 0), (1.0, 1.0))

    def test_off_grid_fraction_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            PlanPoint((0,), (0,), (0.3,))

    def test_query_needs_exactly_one_budget(self):
        pipe = chain([1])
        with pytest.raises(ValueError, match="budget"):
            Query("q", pipe, a_slo=0.9, l_slo=1.0)
        with pytest.raises(ValueError, match="budget"):
            Query("q", pipe, a_slo=0.9, l_slo=1.0, response_budget_s=1.0, profiling_budget_gpuh=1.0)

    def test_query_budget_must_be_finite_and_non_negative(self):
        pipe = chain([1])
        for bad in (float("nan"), float("inf"), -3.0):
            with pytest.raises(ValueError, match="budget must be finite and >= 0"):
                Query("q", pipe, a_slo=0.9, l_slo=1.0, response_budget_s=bad)
            with pytest.raises(ValueError, match="budget must be finite and >= 0"):
                Query("q", pipe, a_slo=0.9, l_slo=1.0, profiling_budget_gpuh=bad)
        # a zero budget is legal: the search then takes no step
        assert Query("q", pipe, a_slo=0.9, l_slo=1.0, response_budget_s=0.0).response_budget_s == 0.0
        assert Query("q", pipe, a_slo=0.9, l_slo=1.0, profiling_budget_gpuh=0).profiling_budget_gpuh == 0

    def test_query_slo_ranges(self):
        pipe = chain([1])
        with pytest.raises(ValueError):
            Query("q", pipe, a_slo=1.01, l_slo=1.0, response_budget_s=1.0)
        with pytest.raises(ValueError):
            Query("q", pipe, a_slo=0.9, l_slo=0.0, response_budget_s=1.0)
        # NaN compares false both ways, so it must fail the range checks too
        with pytest.raises(ValueError, match="l_slo must be > 0"):
            Query("q", pipe, a_slo=0.9, l_slo=float("nan"), response_budget_s=1.0)
        with pytest.raises(ValueError, match="weight must be > 0"):
            Query("q", pipe, a_slo=0.9, l_slo=1.0, response_budget_s=1.0, weight=float("nan"))

    def test_topology_requires_symmetric_bandwidth(self):
        tiers = (Tier("a", 1, 1.0, 1.0), Tier("b", 1, 1.0, 1.0))
        with pytest.raises(ValueError, match="symmetric"):
            TierTopology(tiers, ((10.0, 5.0), (6.0, 10.0)), ((0.0, 0.0), (0.0, 0.0)))


PIPELINE_JSON = {
    "schema_version": 1,
    "name": "fan",
    "operators": [
        {"id": 0, "knob_domain": ["lo", "hi"], "is_batching": False, "base_output_size": 2000.0},
        {"id": 1, "knob_domain": ["x"], "base_output_size": 500.0},
        {"id": 2, "knob_domain": ["a", "b", "c"], "is_batching": True},
    ],
    "edges": [[0, 2], [1, 2]],
    "input_bytes": 100.0,
}

TOPOLOGY_JSON = {
    "schema_version": 1,
    "tiers": [
        {"name": "edge", "machine_count": 2, "capacity": 1, "unit_cost": 0.5},
        {"name": "cloud", "machine_count": 4, "capacity": 2.0, "unit_cost": 3.0},
    ],
    "bandwidth_mbps": [[1000, 200], [200, 1000]],
    "link_latency_s": [[0.0, 0.01], [0.01, 0.0]],
}


class TestRoundTrip:
    """The JSON loaders, fed literal JSON objects."""

    def test_pipeline_round_trip(self):
        obj = json.loads(json.dumps(PIPELINE_JSON))
        assert pipeline_from_dict(obj) == PipelineSpec(
            name="fan",
            operators=(
                OperatorSpec(0, ("lo", "hi"), base_output_size=2000.0),
                OperatorSpec(1, ("x",), base_output_size=500.0),
                OperatorSpec(2, ("a", "b", "c"), is_batching=True),
            ),
            edges=((0, 2), (1, 2)),
            input_bytes=100.0,
        )

    def test_topology_round_trip(self):
        obj = json.loads(json.dumps(TOPOLOGY_JSON))
        assert topology_from_dict(obj) == TierTopology(
            tiers=(Tier("edge", 2, 1.0, 0.5), Tier("cloud", 4, 2.0, 3.0)),
            bandwidth_mbps=((1000.0, 200.0), (200.0, 1000.0)),
            link_latency_s=((0.0, 0.01), (0.01, 0.0)),
        )

    @pytest.mark.parametrize(
        "loader, base, edit, message",
        [
            (pipeline_from_dict, PIPELINE_JSON, {"operators": [{"id": 0, "knob_domain": ["a"], "is_batching": "no"}]},
             "is_batching must be true or false"),
            (pipeline_from_dict, PIPELINE_JSON, {"operators": [{"id": True, "knob_domain": ["a"]}]}, "id must be"),
            (pipeline_from_dict, PIPELINE_JSON, {"operators": [{"id": 0, "knob_domain": "abc"}]}, "knob_domain must be"),
            (pipeline_from_dict, PIPELINE_JSON, {"edges": [[0, 2.0], [1, 2]]}, "edges must be an integer"),
            (pipeline_from_dict, PIPELINE_JSON, {"input_bytes": "100"}, "input_bytes must be a number"),
            (topology_from_dict, TOPOLOGY_JSON, {"tiers": [dict(TOPOLOGY_JSON["tiers"][0], machine_count=2.0)]},
             "machine_count must be an integer"),
            (topology_from_dict, TOPOLOGY_JSON, {"tiers": [dict(TOPOLOGY_JSON["tiers"][0], unit_cost=True)]},
             "unit_cost must be a number"),
            (topology_from_dict, TOPOLOGY_JSON, {"link_latency_s": [[0.0, False], [0.01, 0.0]]},
             "link_latency_s must be a number"),
            (pipeline_from_dict, PIPELINE_JSON, {"input_byte": 5e6}, r"unknown keys \['input_byte'\]"),
            (pipeline_from_dict, PIPELINE_JSON, {"operators": [{"id": 0, "knob_domain": ["a"], "is_batchng": True}]},
             r"operators\[0\]: unknown keys \['is_batchng'\]"),
            (topology_from_dict, TOPOLOGY_JSON, {"link_latency": [[0.0]]}, r"unknown keys \['link_latency'\]"),
            (topology_from_dict, TOPOLOGY_JSON, {"tiers": [dict(TOPOLOGY_JSON["tiers"][0], unit_csot=3.0)]},
             r"tiers\[0\]: unknown keys \['unit_csot'\]"),
            (pipeline_from_dict, PIPELINE_JSON, {"name": 5}, "name must be a string"),
            (topology_from_dict, TOPOLOGY_JSON, {"tiers": [dict(TOPOLOGY_JSON["tiers"][0], name=None)]},
             "name must be a string"),
        ],
        ids=["string-is-batching", "boolean-id", "string-knob-domain", "float-edge", "string-input-bytes", "float-machine-count",
             "boolean-unit-cost", "boolean-link-latency", "unknown-pipeline-key", "unknown-operator-key",
             "unknown-topology-key", "unknown-tier-key", "integer-pipeline-name", "null-tier-name"],
    )
    def test_numbers_and_booleans_are_json_typed(self, loader, base, edit, message):
        with pytest.raises(SchemaError, match=message):
            loader(json.loads(json.dumps({**base, **edit})))

    def test_schema_version_is_mandatory(self):
        obj = {k: v for k, v in PIPELINE_JSON.items() if k != "schema_version"}
        with pytest.raises(SchemaError, match="schema_version"):
            pipeline_from_dict(obj)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_rejected_at_load(self, tmp_path, literal):
        # Python's json parses these literals; JSON has no such numbers
        text = json.dumps(TOPOLOGY_JSON).replace("[[1000,", f"[[{literal},", 1)
        path = tmp_path / "topology.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match=rf"bandwidth_mbps\[0\]\[0\]: {literal} is not a JSON number"):
            load_topology(str(path))
        path.write_text(f'{{"a": [1, "{literal}"]}}')  # a string that spells one is fine
        assert load_json_file(str(path)) == {"a": [1, literal]}


class TestParetoFilter:
    def test_keeps_non_dominated_only(self):
        pts = [("a", (1.0, 5.0)), ("b", (2.0, 3.0)), ("c", (2.5, 3.5)), ("d", (1.0, 5.0))]
        kept = pareto_filter(pts, key=lambda t: t[1])
        assert [x[0] for x in kept] == ["a", "b"]  # c dominated, d duplicate of a

    def test_equal_cost_lower_latency_dominates(self):
        pts = [("slow", (1.0, 5.0)), ("fast", (1.0, 2.0))]
        kept = pareto_filter(pts, key=lambda t: t[1])
        assert [x[0] for x in kept] == ["fast"]

    # few distinct values, so ties, duplicates and -0.0 == 0.0 are common
    key_value = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, float("inf")]) | st.floats(-3.0, 3.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(key_value, key_value), max_size=40))
    def test_sort_and_sweep_equals_the_quadratic_scan(self, keys):
        items = list(enumerate(keys))
        assert pareto_filter(items, key=lambda t: t[1]) == quadratic_pareto_filter(items, key=lambda t: t[1])
