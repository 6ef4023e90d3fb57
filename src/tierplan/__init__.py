"""SLO-aware query planning and trace-driven simulation for multi-tier ML
pipelines: guided-sampling profiling, cost-aware multi-objective Bayesian
search, Pareto resource pruning, and greedy multi-query scheduling with
exhaustive oracles."""

from .landscape import (
    ArrivalTrace,
    GroundTruthLandscape,
    generate_landscape,
    generate_trace,
)
from .latency import (
    OperatorTimings,
    compute_time,
    pipeline_latency,
    plan_hourly_cost,
    transfer_time,
)
from .model import (
    RESOURCE_FRACTIONS,
    OperatorSpec,
    PipelineSpec,
    PlanPoint,
    ProfileOutcome,
    Query,
    SchemaError,
    SpaceTooLargeError,
    Tier,
    TierTopology,
    Verdict,
)
from .profiler import (
    PrefixCache,
    Stratification,
    allocation,
    look_schedule,
    profile_plan,
    stratify,
)
from .scheduler import (
    DeploymentState,
    OracleInstance,
    age_weights,
    greedy_cost,
    greedy_goodput,
    ilp_oracle_limited,
    ilp_oracle_unlimited,
    op_demands,
    replan,
)
from .search import (
    CandidatePlan,
    CandidateSet,
    HistoryStore,
    Observations,
    SearchConfig,
    SurrogatePair,
    acquisition,
    pareto_optimize,
    propose,
    single_query_search,
    update,
)
from .sim import MetricsReport, SimConfig, compare, run

__version__ = "0.1.0"
