"""Continuous-batching serving tier over simulated StreamTensor accelerators.

The source paper (conf_micro_YeC25) compiles one transformer block to a
dataflow accelerator and evaluates **single-request** GPT-2 latency and
energy; its Section 2 host runtime drives one request at a time.  This
package deliberately goes beyond that: it layers a production-style serving
tier — request queue, iteration-level continuous batching with a per-step
token budget, a routed fleet of devices, block-based KV-cache
management with watermark-driven preemption, TTFT/TPOT/percentile
metrics — on top of the same analytical performance model
(:class:`~repro.eval.latency.FpgaPerformanceModel`).

Nothing here is measured on hardware and none of it appears in the paper's
evaluation.  What *is* grounded in the paper is the per-step cost model the
engine drives: weight streaming once per layer per block invocation (Section
6.1), KV traffic and compute per request, and the conservative FIFO-sizing
slowdown for memory-heavy designs (Figure 9).  The batching advantage the
engine exhibits is a direct consequence of that cost structure, not a tuned
constant.

Entry points::

    from repro.serving import ServingCluster, poisson_trace

    trace = poisson_trace(num_requests=64, arrival_rate_hz=8.0, seed=0)
    cluster = ServingCluster(GPT2, initial_replicas=2)
    report = cluster.run(trace)
    print(report.format())

or from the command line: ``python -m repro serve-sim --model gpt2
--devices 2 --requests 64``.
"""

from repro.serving.engine import DeviceWorker, HandoffEvent
from repro.serving.kv_manager import (
    KVBlockManager,
    KVCacheConfig,
    KVCacheExhausted,
    KVExport,
    PrefixReuse,
)
from repro.serving.policies import (
    ADMISSION_POLICIES,
    PREEMPTION_POLICIES,
    AdmissionPolicy,
    PreemptionPolicy,
)
from repro.serving.metrics import (
    DeviceStats,
    LatencyStats,
    PreemptionEvent,
    SampleBuffer,
    ServingReport,
    percentile,
)
from repro.serving.request import RequestState, ServingRequest
from repro.serving.slo import (
    DEFAULT_SLO_CLASS,
    SLO_CLASSES,
    SLOClass,
    parse_class_mix,
    request_score,
    request_value,
    resolve_slo_class,
)
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    SchedulerConfig,
    StepPlan,
)
from repro.serving.telemetry import (
    MetricsRegistry,
    SpanKind,
    Tracer,
    build_chrome_trace,
    build_manifest,
    write_chrome_trace,
)
from repro.serving.workload_gen import (
    TimedRequest,
    burst_trace,
    diurnal_trace,
    flash_crowd_trace,
    multi_turn_trace,
    poisson_trace,
    shared_prefix_trace,
    tool_use_trace,
    trace_from_specs,
)

# The cluster tier builds on the engine's DeviceWorker, so it imports last;
# its full surface lives in repro.serving.cluster.
from repro.serving.cluster import (  # noqa: E402
    Autoscaler,
    AutoscalerConfig,
    ClusterReport,
    ClusterRouter,
    DisaggregationConfig,
    EngineReplica,
    FaultPlan,
    KVLinkDegradation,
    ReplicaCrash,
    ReplicaRole,
    ReplicaState,
    RoutingPolicy,
    ServingCluster,
    SlowNode,
    parse_fault_spec,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ClusterReport",
    "ClusterRouter",
    "DisaggregationConfig",
    "EngineReplica",
    "ReplicaRole",
    "ReplicaState",
    "RoutingPolicy",
    "ServingCluster",
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "ContinuousBatchingScheduler",
    "DEFAULT_SLO_CLASS",
    "DeviceStats",
    "DeviceWorker",
    "FaultPlan",
    "HandoffEvent",
    "KVLinkDegradation",
    "ReplicaCrash",
    "SlowNode",
    "KVBlockManager",
    "KVCacheConfig",
    "KVCacheExhausted",
    "KVExport",
    "LatencyStats",
    "MetricsRegistry",
    "PREEMPTION_POLICIES",
    "PreemptionEvent",
    "PreemptionPolicy",
    "PrefixReuse",
    "RequestState",
    "SLOClass",
    "SLO_CLASSES",
    "SampleBuffer",
    "SchedulerConfig",
    "ServingReport",
    "ServingRequest",
    "SpanKind",
    "StepPlan",
    "TimedRequest",
    "Tracer",
    "build_chrome_trace",
    "build_manifest",
    "burst_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "multi_turn_trace",
    "parse_class_mix",
    "parse_fault_spec",
    "percentile",
    "poisson_trace",
    "request_score",
    "request_value",
    "resolve_slo_class",
    "shared_prefix_trace",
    "tool_use_trace",
    "trace_from_specs",
    "write_chrome_trace",
]
