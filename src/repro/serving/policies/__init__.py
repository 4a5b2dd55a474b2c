"""Pluggable serving policies: admission ordering and preemption.

PR 1/PR 2 hard-coded every scheduling decision — FCFS admission inside
``ContinuousBatchingScheduler.plan_step``, preempt-youngest inside the
engine's pressure loop.  This package lifts each decision into an explicit
policy object so new traffic scenarios (priority tiers, shared-prompt
workloads) plug in without touching the engine loop:

* :mod:`~repro.serving.policies.admission` — in what order waiting requests
  are considered for a batch slot (consumed by the scheduler);
* :mod:`~repro.serving.policies.preemption` — which resident request is
  evicted under KV memory pressure (consumed by the engine's pressure loop).

Which device an arriving request reaches is the third decision; the cluster
router makes it from live replica state (:mod:`repro.serving.cluster.router`).

Every policy is **deterministic**: selection is a pure function of the
requests, the device/manager state it is shown and (for the time-varying
``score`` family) the device clock it is handed, with ties broken by
arrival time and request id, so two runs over the same trace make
byte-identical decisions.  The defaults (``fcfs`` + ``youngest``, behind
the ``round_robin`` router) reproduce the PR 1/PR 2 engine behaviour
exactly.  The ``score`` admission / ``lowest_score`` preemption pair and
the ``score`` router consume one shared ranking — the SLO-class
value-density score of :mod:`repro.serving.slo` — making scheduling
globally consistent across the three decision points.
"""

from repro.serving.policies.admission import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    FCFSAdmission,
    PriorityAdmission,
    ScoreAdmission,
    ShortestPromptAdmission,
    resolve_admission_policy,
)
from repro.serving.policies.preemption import (
    PREEMPTION_POLICIES,
    LargestKVFirstPreemption,
    LowestPriorityFirstPreemption,
    LowestScoreFirstPreemption,
    PreemptionPolicy,
    YoungestFirstPreemption,
    resolve_preemption_policy,
)

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "FCFSAdmission",
    "LargestKVFirstPreemption",
    "LowestPriorityFirstPreemption",
    "LowestScoreFirstPreemption",
    "PREEMPTION_POLICIES",
    "PreemptionPolicy",
    "PriorityAdmission",
    "ScoreAdmission",
    "ShortestPromptAdmission",
    "YoungestFirstPreemption",
    "resolve_admission_policy",
    "resolve_preemption_policy",
]
