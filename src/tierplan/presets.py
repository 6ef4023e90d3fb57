"""Built-in topology and pipeline templates for the CLI, sim and tests.

The default three-tier layout mirrors a small edge deployment: a dedicated
device tier, a V100-class MEC tier and an A100-class cloud tier, joined by
a 50 Mbps device uplink and a 400 Mbps MEC-cloud WAN link.

Tier speed factors are compute-time multipliers relative to the last
(cloud) tier. An n-tier topology gets the last n of (8, 2.5, 1) up to three
tiers, and 3^(n-1-m) for tier m beyond that (each tier toward the device
3x slower): :func:`speed_factors_for`. :func:`run_landscapes` is the one
rule by which the CLI and the simulator build a run's landscapes.
"""

from __future__ import annotations

from .landscape import generate_landscape
from .model import OperatorSpec, PipelineSpec, Tier, TierTopology

DEFAULT_SPEED_FACTORS = (8.0, 2.5, 1.0)


def speed_factors_for(num_tiers: int) -> tuple[float, ...]:
    """The tier speed factors of a ``num_tiers``-tier topology."""
    if num_tiers <= len(DEFAULT_SPEED_FACTORS):
        return DEFAULT_SPEED_FACTORS[-num_tiers:]
    return tuple(3.0 ** (num_tiers - 1 - m) for m in range(num_tiers))


def run_landscapes(seed: int, pipelines: dict[str, PipelineSpec], num_tiers: int, **options) -> dict:
    """The landscapes of a run's pipelines, by name: the i-th in sorted name
    order is generated at 1000 + i past the run's seed, on the speed factors
    of ``num_tiers`` tiers, with ``options`` (difficulty, k_true, noise_scale)."""
    speed = speed_factors_for(num_tiers)
    return {
        name: generate_landscape(seed + 1000 + i, pipe, tier_speed_factors=speed, **options)
        for i, (name, pipe) in enumerate(sorted(pipelines.items()))
    }


def default_topology() -> TierTopology:
    tiers = (
        Tier(name="device", machine_count=8, capacity=1.0, unit_cost=0.05),
        Tier(name="mec", machine_count=4, capacity=1.0, unit_cost=2.48),
        Tier(name="cloud", machine_count=4, capacity=1.0, unit_cost=3.67),
    )
    bw = (
        (25_000.0, 50.0, 50.0),
        (50.0, 3_000.0, 400.0),
        (50.0, 400.0, 3_000.0),
    )
    t0 = (
        (0.001, 0.005, 0.010),
        (0.005, 0.001, 0.005),
        (0.010, 0.005, 0.001),
    )
    return TierTopology(tiers=tiers, bandwidth_mbps=bw, link_latency_s=t0)


def visual_tracking_pipeline() -> PipelineSpec:
    """3-knob tracking chain: frame sampler, detector, re-identification."""
    ops = (
        OperatorSpec(0, ("416px", "640px", "1280px"), base_output_size=9e5),
        OperatorSpec(1, ("det-n", "det-s", "det-m", "det-x"), base_output_size=6e4),
        OperatorSpec(2, ("reid-18", "reid-50", "reid-101", "reid-152", "reid-mb"), base_output_size=2e4),
    )
    return PipelineSpec(
        name="visual-tracking", operators=ops, edges=((0, 1), (1, 2)), input_bytes=2.5e6
    )


def speech_recognition_pipeline() -> PipelineSpec:
    """Sampler, denoiser, recognizer; 4/4/5 options."""
    ops = (
        OperatorSpec(0, ("10k", "12k", "14k", "16k"), base_output_size=4e5),
        OperatorSpec(1, ("mask0", "mask50", "mask100", "mask200"), base_output_size=4e5),
        OperatorSpec(2, ("asr-base", "asr-10m", "asr-960h", "asr-l", "asr-xl"), base_output_size=1e4),
    )
    return PipelineSpec(
        name="speech-recognition", operators=ops, edges=((0, 1), (1, 2)), input_bytes=8e5
    )


def code_generation_pipeline() -> PipelineSpec:
    """Two-agent generation: analyzer feeding a batching LLM generator."""
    ops = (
        OperatorSpec(0, ("ana-s", "ana-m", "ana-l", "ana-xl"), base_output_size=2e4),
        OperatorSpec(1, ("gen-3b", "gen-7b", "gen-14b", "gen-34b", "gen-70b"), is_batching=True, base_output_size=1e4),
    )
    return PipelineSpec(name="code-generation", operators=ops, edges=((0, 1),), input_bytes=3e4)


def wide_search_pipeline() -> PipelineSpec:
    """Large 9x9x8 configuration space (~6.5K configuration-placement
    pool on three tiers) for search-efficiency benchmarks."""
    ops = (
        OperatorSpec(0, tuple(f"s{i}" for i in range(9)), base_output_size=8e5),
        OperatorSpec(1, tuple(f"m{i}" for i in range(9)), base_output_size=1e5),
        OperatorSpec(2, tuple(f"h{i}" for i in range(8)), base_output_size=2e4),
    )
    return PipelineSpec(
        name="wide-search", operators=ops, edges=((0, 1), (1, 2)), input_bytes=2e6
    )


PIPELINE_TEMPLATES = {
    "visual-tracking": visual_tracking_pipeline,
    "speech-recognition": speech_recognition_pipeline,
    "code-generation": code_generation_pipeline,
    "wide-search": wide_search_pipeline,
}


def get_pipeline(name: str) -> PipelineSpec:
    if name not in PIPELINE_TEMPLATES:
        raise ValueError(f"unknown pipeline template {name!r}; have {sorted(PIPELINE_TEMPLATES)}")
    return PIPELINE_TEMPLATES[name]()
