"""Sample Quality Fairness Rates for biometric quality-score datasets.

Computes demographic fairness measures over per-group quality scores: the
Gini-based family (mean, median and low-weighted-mean aggregates, plain
and cubed) and the mean-discard-gap family, each yielding a value in
[0, 1] where 1 is perfectly fair. Includes dataset I/O, seeded scenario
generation, and a reporting CLI.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, ParseError, SqfrError, ValidationError
from .types import (
    ALL_MEASURES,
    DiscardCurve,
    FairnessScore,
    GroupAggregates,
    GroupedScores,
)
from .measures import (
    csqfr,
    discard_curve,
    evaluate_component,
    gini_coefficient,
    lwm_aggregate,
    mdg,
    mdg_sqfr,
    mean_aggregate,
    median_aggregate,
    observed_thresholds,
    relevant_thresholds,
    sqfr,
)
from .dataset import Dataset, load_csv, load_json, save, validate
from .scenarios import (
    AggregateFixture,
    GroupSpec,
    ScenarioSpec,
    builtin_fixtures,
    builtin_scenarios,
    generate,
)

__all__ = [
    "__version__",
    "ALL_MEASURES",
    "AggregateFixture",
    "ConfigError",
    "Dataset",
    "DiscardCurve",
    "DomainError",
    "FairnessScore",
    "GroupAggregates",
    "GroupSpec",
    "GroupedScores",
    "ParseError",
    "ScenarioSpec",
    "SqfrError",
    "ValidationError",
    "builtin_fixtures",
    "builtin_scenarios",
    "csqfr",
    "discard_curve",
    "evaluate_component",
    "generate",
    "gini_coefficient",
    "load_csv",
    "load_json",
    "lwm_aggregate",
    "mdg",
    "mdg_sqfr",
    "mean_aggregate",
    "median_aggregate",
    "observed_thresholds",
    "relevant_thresholds",
    "save",
    "sqfr",
    "validate",
]
