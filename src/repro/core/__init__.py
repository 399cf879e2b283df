"""The error-effect simulation framework (S14) — the paper's
envisioned methodology: mission-profile-driven stressors, injectors,
closed-loop stress-test campaigns, classification, coverage, and
weak-spot-guided search (Secs. 3.1-3.4, Figs. 2-3).
"""

from .campaign import (
    Campaign,
    CampaignResult,
    ObserveFn,
    PlatformFactory,
    RunRecord,
)
from .checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
    CheckpointKeyMismatch,
    campaign_key,
)
from .classification import (
    Classifier,
    Outcome,
    RunObservation,
    build_standard_classifier,
)
from .coverage import FaultSpaceCoverage
from .executors import (
    Executor,
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    default_worker_count,
    make_executor,
)
from .runspec import (
    OUTCOME_SCHEMA_VERSION,
    RunOutcome,
    RunSpec,
    execute_runspec,
    execute_runspec_from_registry,
    failure_outcome,
)
from .crosslayer import (
    derived_descriptor,
    error_pattern_outcomes,
    measure_word_error_profile,
    naive_descriptor,
    normalize_counts,
    pattern_histogram,
    total_variation_distance,
)
from .injector import AppliedInjection, InjectionError, apply_fault
from .report import (
    fmeda_from_campaign,
    hazard_cut_sets,
    summarize,
    synthesize_fault_tree,
)
from .requirements import (
    CoverageGoal,
    GoalStatus,
    RequirementCoverage,
    SafetyRequirement,
    derive_coverage_goals,
)
from .scenario import ErrorScenario, FaultSpace, PlannedInjection
from .strategies import (
    CoverageGuidedStrategy,
    RandomStrategy,
    RequirementGuidedStrategy,
    Strategy,
    WeakSpotStrategy,
)
from .stressor import Stressor
from ..observe import (
    CampaignTelemetry,
    JsonlTelemetry,
    PropagationGraph,
    TraceConfig,
    TraceDigest,
)
from .uvm_integration import (
    FaultAnalysisEnv,
    FaultClassifierComponent,
    UvmStressor,
)

__all__ = [
    "CoverageGoal",
    "GoalStatus",
    "RequirementCoverage",
    "SafetyRequirement",
    "derive_coverage_goals",
    "FaultAnalysisEnv",
    "FaultClassifierComponent",
    "UvmStressor",
    "Campaign",
    "CampaignResult",
    "ObserveFn",
    "PlatformFactory",
    "RunRecord",
    "Classifier",
    "Outcome",
    "RunObservation",
    "build_standard_classifier",
    "FaultSpaceCoverage",
    "Executor",
    "ParallelExecutor",
    "RetryPolicy",
    "SerialExecutor",
    "default_worker_count",
    "make_executor",
    "CampaignCheckpoint",
    "CheckpointError",
    "CheckpointKeyMismatch",
    "campaign_key",
    "OUTCOME_SCHEMA_VERSION",
    "RunOutcome",
    "RunSpec",
    "execute_runspec",
    "execute_runspec_from_registry",
    "failure_outcome",
    "derived_descriptor",
    "error_pattern_outcomes",
    "measure_word_error_profile",
    "naive_descriptor",
    "normalize_counts",
    "pattern_histogram",
    "total_variation_distance",
    "AppliedInjection",
    "InjectionError",
    "apply_fault",
    "fmeda_from_campaign",
    "hazard_cut_sets",
    "summarize",
    "synthesize_fault_tree",
    "ErrorScenario",
    "FaultSpace",
    "PlannedInjection",
    "CoverageGuidedStrategy",
    "RandomStrategy",
    "RequirementGuidedStrategy",
    "Strategy",
    "WeakSpotStrategy",
    "Stressor",
    "CampaignTelemetry",
    "JsonlTelemetry",
    "PropagationGraph",
    "TraceConfig",
    "TraceDigest",
]
