"""Cluster serving tier: a fleet of engines behind a router.

Real deployments of the serving lineage this repo models (Orca's
iteration-level batching, vLLM's paged KV cache) run many engine instances
behind a load balancer, and the cluster layer is where load balancing,
replica scaling and SLO attainment are decided.  This package is the one
serving runner: each replica is one single-device
:class:`~repro.serving.engine.DeviceWorker` — its batching loop, KV pool,
load signals and serving lifecycle (:class:`ReplicaState`: warming,
active, draining, stopped) in one object — and a fixed fleet of ``n``
replicas is the ``n``-device simulator ``repro serve-sim`` runs.

* :class:`ClusterRouter` + pluggable :class:`RoutingPolicy` registry —
  ``round_robin``, ``least_queue``, ``least_kv_pressure``,
  ``prefix_affinity`` (sticky by prefix group so per-replica prefix
  caches keep hitting), ``kv_transfer_aware`` and ``score``
  (least outstanding SLO-class value);
* :class:`Autoscaler` — an SLO-aware control loop over queue depth and
  rolling p95 TTFT, with warm-up cost on scale-up and graceful drain on
  scale-down;
* :class:`ServingCluster` — the deterministic simulation tying them
  together under a global clock, driven by the discrete-event kernel in
  :mod:`.events` (an :class:`EventQueue` of typed :class:`EventKind`
  events; the legacy rescan loop stays behind ``kernel="step"`` as the
  differential-testing reference);
* :class:`FaultPlan` (:mod:`.faults`) — deterministic fault injection
  through both kernels as first-class ``FAULT`` events: replica crashes
  with bounded-retry re-dispatch and spawn-with-warmup replacement,
  transient slow nodes and KV-link degradations
  (:func:`parse_fault_spec` parses the CLI's ``--faults`` grammar);
* :class:`ClusterReport` — fleet throughput, SLO attainment,
  replica-seconds and the replica-count timeline, with per-replica
  :class:`~repro.serving.metrics.ServingReport`s for drill-down and —
  on class-mixed traces — per-class TTFT/TPOT attainment plus a Jain
  fairness index (:class:`ClassOutcome`).

Entry points::

    from repro.serving.cluster import AutoscalerConfig, ServingCluster
    from repro.serving.workload_gen import flash_crowd_trace

    trace = flash_crowd_trace(200, base_rate_hz=4.0, burst_rate_hz=60.0,
                              burst_start_s=4.0, burst_duration_s=3.0)
    cluster = ServingCluster(GPT2, initial_replicas=1, router="least_queue",
                             autoscaler=AutoscalerConfig(
                                 max_replicas=4, slo_ttft_s=0.5))
    print(cluster.run(trace).format())

or from the command line: ``python -m repro serve-cluster --replicas 2
--router least_queue --autoscale --slo-ttft-ms 500``.

As with the rest of :mod:`repro.serving`, nothing here appears in the
source paper's evaluation — the fleet extrapolates the paper's
single-request performance model to the cluster scale of the north star.
"""

from repro.serving.cluster.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    ScaleDecision,
)
from repro.serving.cluster.cluster import DisaggregationConfig, ServingCluster
from repro.serving.cluster.events import Event, EventKind, EventQueue
from repro.serving.cluster.faults import (
    FaultAction,
    FaultPlan,
    KVLinkDegradation,
    ReplicaCrash,
    SlowNode,
    parse_fault_spec,
)
from repro.serving.cluster.report import (
    ClassOutcome,
    ClusterReport,
    ReplicaCountSample,
    ReplicaLifecycle,
    build_class_outcomes,
    build_cluster_report,
)
from repro.serving.cluster.router import (
    ROUTING_POLICIES,
    ClusterRouter,
    RoutingPolicy,
    resolve_routing_policy,
)
from repro.serving.engine import (
    ReplicaRole,
    ReplicaState,
    resolve_replica_role,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ClassOutcome",
    "ClusterReport",
    "ClusterRouter",
    "DisaggregationConfig",
    "Event",
    "EventKind",
    "EventQueue",
    "FaultAction",
    "FaultPlan",
    "KVLinkDegradation",
    "ROUTING_POLICIES",
    "ReplicaCrash",
    "ReplicaCountSample",
    "ReplicaLifecycle",
    "ReplicaRole",
    "ReplicaState",
    "RoutingPolicy",
    "ScaleDecision",
    "ServingCluster",
    "SlowNode",
    "build_class_outcomes",
    "build_cluster_report",
    "parse_fault_spec",
    "resolve_replica_role",
    "resolve_routing_policy",
]
