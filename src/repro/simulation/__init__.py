"""Round-based crowdsourcing marketplace simulation."""

from .adaptive import AdaptiveDynamicPolicy, EwmaDeviationTracker
from .engine import (
    ColumnarStepResult,
    MarketplaceSimulation,
    StepOutcomes,
    fast_columnar_step,
    legacy_step,
    require_ledgers_agree,
    require_steps_agree,
)
from .ledger import (
    PostedProvenance,
    RoundOutcomes,
    RoundRecord,
    SimulationLedger,
    SubjectRoundOutcome,
)
from .retention import RetentionModel, RetentionSimulation
from .policies import (
    DynamicContractPolicy,
    ExclusionPolicy,
    FixedPaymentPolicy,
    PaymentPolicy,
)
from .streaming import OutcomeSpill, StreamingHistogram, StreamingLedger

__all__ = [
    "AdaptiveDynamicPolicy",
    "ColumnarStepResult",
    "EwmaDeviationTracker",
    "MarketplaceSimulation",
    "OutcomeSpill",
    "PostedProvenance",
    "RetentionModel",
    "RetentionSimulation",
    "RoundOutcomes",
    "RoundRecord",
    "SimulationLedger",
    "StepOutcomes",
    "StreamingHistogram",
    "StreamingLedger",
    "SubjectRoundOutcome",
    "DynamicContractPolicy",
    "ExclusionPolicy",
    "FixedPaymentPolicy",
    "PaymentPolicy",
    "fast_columnar_step",
    "legacy_step",
    "require_ledgers_agree",
    "require_steps_agree",
]
