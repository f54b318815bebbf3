"""Behavioural worker agents and population assembly."""

from .base import WorkerAgent
from .collusive import CollusiveCommunity
from .columnar import (
    WORKER_TYPE_CODES,
    WORKER_TYPE_ORDER,
    ColumnarPopulation,
    ColumnarResponseCache,
    PhaseColumns,
    synthetic_columnar,
)
from .honest import HonestWorker
from .malicious import MaliciousWorker
from .strategic import CamouflagedWorker, IntermittentWorker
from .population import (
    BehaviorConfig,
    ClassEffortFunctions,
    PopulationModel,
    build_population,
    fit_class_functions,
)
from .synthetic import synthetic_population

__all__ = [
    "WORKER_TYPE_CODES",
    "WORKER_TYPE_ORDER",
    "ColumnarPopulation",
    "ColumnarResponseCache",
    "PhaseColumns",
    "WorkerAgent",
    "synthetic_columnar",
    "synthetic_population",
    "CollusiveCommunity",
    "HonestWorker",
    "MaliciousWorker",
    "CamouflagedWorker",
    "IntermittentWorker",
    "BehaviorConfig",
    "ClassEffortFunctions",
    "PopulationModel",
    "build_population",
    "fit_class_functions",
]
