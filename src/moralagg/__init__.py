"""Exact aggregation of ethical-theory evaluations under moral uncertainty.

Importing the package loads the domain types (:mod:`moralagg.core`), the
functionals (:mod:`moralagg.functionals`) and the scenario format
(:mod:`moralagg.scenario`).  The public names of :mod:`moralagg.fanaticism`
(dominance, witnesses, probes) and :mod:`moralagg.audit` are in
``__all__`` as well, but their modules load on the first access to one of
those names, which is then kept in the package namespace; a program that
only parses and ranks never loads them.
"""

from .core import (
    ActionSet,
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
from .scenario import (
    NumberFormatError,
    ScenarioDocument,
    ScenarioError,
    ScenarioSyntaxError,
    ValidationError,
    parse_scenario,
    serialize_scenario,
)

__version__ = "0.1.0"

# Public names whose module loads on the first access to one of them.
_LAZY = {
    name: module
    for module, names in {
        "fanaticism": (
            "BadCredence", "BadCredencePair", "ConstructionFailed",
            "CredenceTooHigh", "DominanceVerdict", "DominantSubset",
            "NotProperSubset", "TargetIsUniqueMaximizer", "TooManyTheories",
            "WitnessReport", "canonical_family", "enumerate_dominant_subsets",
            "is_dominant_subset", "probe_hm_non_fanatical",
            "probe_kthm_non_fanatical", "witness_kthm", "witness_maximin",
            "witness_mec",
        ),
        "audit": ("AuditReport", "SuiteResult", "run_audit"),
    }.items()
    for name in names
}


def _load_lazy(name: str):
    """Import the module behind a lazy public ``name``; keep the name here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


# PEP 562: Python calls the module's __getattr__ for a name it lacks.
__getattr__ = _load_lazy

# Every public name imported above, the lazy ones, and nothing else.
__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_")
        and getattr(value, "__module__", "").startswith("moralagg.")
    ]
    + list(_LAZY)
)
