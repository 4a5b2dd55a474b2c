"""Host runtime: simulated serving of compiled StreamTensor accelerators."""

from repro.runtime.session import (
    ActiveRequest,
    GenerationResult,
    InferenceSession,
    StepRecord,
    StepTotals,
    StepWork,
)

__all__ = [
    "ActiveRequest",
    "GenerationResult",
    "InferenceSession",
    "StepRecord",
    "StepTotals",
    "StepWork",
]
