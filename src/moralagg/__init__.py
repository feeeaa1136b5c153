"""Exact aggregation of ethical-theory evaluations under moral uncertainty."""

from .core import (
    ActionSet,
    ActionSetMismatch,
    CredenceMassExceeded,
    CredenceOutOfRange,
    CredenceSumNotOne,
    DuplicateActionId,
    DuplicateTheoryId,
    EmptyRestriction,
    EthicalFramework,
    MissingEvaluation,
    MoralAggError,
    Ranking,
    Theory,
    UnknownAction,
    UnknownTheoryId,
    extend,
    ranking_from_scores,
    rankings_equal,
    restrict,
    theory_ranking,
    to_rational,
    validate_framework,
)
from .functionals import (
    AggregateResult,
    InvalidSpec,
    SwfKind,
    SwfSpec,
    TrimMode,
    aggregate,
    bottom_k,
    min_evaluation,
    sorted_evaluations,
    top_k,
    trimmed_wam,
    wam,
    wmedian,
)
from .fanaticism import (
    BadCredence,
    BadCredencePair,
    ConstructionFailed,
    CredenceTooHigh,
    DominanceVerdict,
    DominantSubset,
    NotProperSubset,
    TargetIsUniqueMaximizer,
    TooManyTheories,
    WitnessReport,
    canonical_family,
    enumerate_dominant_subsets,
    is_dominant_subset,
    probe_hm_non_fanatical,
    probe_kthm_non_fanatical,
    witness_kthm,
    witness_maximin,
    witness_mec,
)
from .scenario import (
    NumberFormatError,
    ScenarioDocument,
    ScenarioError,
    ScenarioSyntaxError,
    ValidationError,
    parse_scenario,
    serialize_scenario,
)
from .audit import AuditReport, SuiteResult, run_audit

__version__ = "0.1.0"

# Every public name imported above, and nothing else.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_")
    and getattr(value, "__module__", "").startswith("moralagg.")
)
