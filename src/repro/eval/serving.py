"""Sequential-serving baseline and config sweeps for the serving cluster.

The pre-serving way to push many requests through the simulated accelerator
is one :meth:`InferenceSession.generate` after another, parameters packed
once.  These helpers replay a *timed* trace that way: the single device
serves requests in arrival order, idling when the queue is empty, exactly
as the serving cluster sees the same trace.  Both
sides are then measured as output tokens per makespan second, so the
reported speedup isolates what continuous batching and sharding add and is
~1x (not spuriously below it) when traffic is sparse enough that both
systems just wait for arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence)

if TYPE_CHECKING:  # imported lazily at call time to avoid a package cycle
    from repro.eval.latency import FpgaPerformanceModel
    from repro.models.config import ModelConfig
    from repro.serving.cluster import ClusterReport
    from repro.serving.workload_gen import TimedRequest


@dataclass(frozen=True)
class SequentialBaseline:
    """One device replaying a timed trace one request at a time."""

    model: str
    num_requests: int
    total_output_tokens: int
    busy_s: float
    makespan_s: float

    @property
    def tokens_per_s(self) -> float:
        """Output tokens per wall-clock second, arrival gaps included —
        directly comparable to ``ClusterReport.fleet_tokens_per_s``."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_s


@dataclass(frozen=True)
class ServingComparison:
    """Continuous batching versus the sequential sweep."""

    baseline: SequentialBaseline
    serving_tokens_per_s: float

    @property
    def speedup(self) -> float:
        if self.baseline.tokens_per_s <= 0:
            return 0.0
        return self.serving_tokens_per_s / self.baseline.tokens_per_s

    def format(self) -> str:
        return (f"sequential baseline: {self.baseline.tokens_per_s:.1f} tok/s; "
                f"continuous batching: {self.serving_tokens_per_s:.1f} tok/s "
                f"({self.speedup:.1f}x)")


def run_sequential_baseline(config: ModelConfig,
                            trace: Sequence[TimedRequest],
                            performance_model: Optional[FpgaPerformanceModel] = None,
                            max_seq_len: Optional[int] = None,
                            cold_start: bool = False) -> SequentialBaseline:
    """Replay the trace one request at a time on a single device.

    Each request runs to completion with :meth:`InferenceSession.generate`
    (parameters packed once); the device idles until the next arrival when
    the queue is empty.  Admission reuses the session's own rejection rule
    (:meth:`InferenceSession.start_request`), so comparisons stay over
    exactly the request set the serving cluster would accept.  ``cold_start``
    charges the one-time packing before serving begins, mirroring
    ``ServingCluster(cold_start=True)``; off by default to match the
    cluster's steady-state default.
    """
    from repro.runtime.session import InferenceSession

    session = InferenceSession(config, performance_model=performance_model,
                               max_seq_len=max_seq_len)
    packing = session.pack_parameters()
    admissible: List[TimedRequest] = []
    for timed in sorted(trace, key=lambda t: (t.arrival_s, t.request_id)):
        try:
            session.start_request(timed.workload)
        except ValueError:
            continue
        admissible.append(timed)
    busy = 0.0
    start = admissible[0].arrival_s if admissible else 0.0
    clock = max(start, packing) if cold_start else start
    for timed in admissible:
        clock = max(clock, timed.arrival_s)
        result = session.generate(timed.workload)
        clock += result.total_seconds
        busy += result.total_seconds
    return SequentialBaseline(
        model=config.name,
        num_requests=len(admissible),
        total_output_tokens=sum(t.workload.output_len for t in admissible),
        busy_s=busy,
        makespan_s=clock - start,
    )


def compare_with_sequential(report: ClusterReport,
                            baseline: SequentialBaseline) -> ServingComparison:
    """Pair a cluster report with the sequential baseline on the same
    trace."""
    return ServingComparison(baseline=baseline,
                             serving_tokens_per_s=report.fleet_tokens_per_s)


@dataclass(frozen=True)
class SweepPoint:
    """One labelled configuration's report on a sweep's fixed trace."""

    label: str
    report: ClusterReport

    def format(self) -> str:
        """One line: throughput, latency and completions, then only the
        columns this run exercised (preemptions, KV and prefix-cache use,
        autoscaled replica-seconds, SLO and class attainment, migrations)."""
        r = self.report
        line = (f"{self.label:>16}: {r.fleet_tokens_per_s:8.1f} tok/s, "
                f"p95 ttft {r.ttft.p95 * 1e3:8.1f} ms, "
                f"tpot mean {r.tpot.mean * 1e3:6.2f} ms, "
                f"{r.completed}/{r.num_requests} done")
        if r.preemptions:
            line += f", {r.preemptions} preemption(s)"
        if r.peak_kv_utilization:
            line += f", peak kv util {r.peak_kv_utilization * 100:.0f}%"
        if r.prefix_hit_rate:
            line += f", prefix hit {r.prefix_hit_rate * 100:.0f}%"
        if r.autoscaled:
            line += f", {r.replica_seconds:.1f} replica-s"
        if r.slo_attainment is not None:
            line += f", slo {r.slo_attainment * 100:5.1f}%"
        if r.class_weighted_attainment is not None:
            line += (f", weighted attainment "
                     f"{r.class_weighted_attainment * 100:5.1f}%, "
                     f"Jain {r.jain_fairness:.3f}")
        if r.disaggregated:
            line += (f", {r.kv_migrations} migration(s), "
                     f"{r.kv_bytes_transferred / 1e6:.1f} MB moved")
        return line


def class_mix_stacks() -> Dict[str, Dict[str, Any]]:
    """The class-mix ablation's scheduler stacks, as ``ServingCluster``
    kwargs ready for :func:`run_sweep`.

    Each pairs one admission policy with its matching preemption and
    routing face so a stack is coherent end to end (score admission with
    priority preemption would mix two different notions of importance).
    """
    from repro.serving.scheduler import SchedulerConfig

    return {
        "fcfs": dict(scheduler_config=SchedulerConfig(admission="fcfs"),
                     preemption="youngest", router="least_queue"),
        "priority": dict(
            scheduler_config=SchedulerConfig(admission="priority"),
            preemption="lowest_priority", router="least_queue"),
        "score": dict(scheduler_config=SchedulerConfig(admission="score"),
                      preemption="lowest_score", router="score"),
    }


def run_sweep(config: ModelConfig,
              trace: Sequence[TimedRequest],
              variants: Mapping[str, Mapping[str, Any]],
              **common: Any) -> List[SweepPoint]:
    """Serve one fixed trace under every labelled configuration.

    The serving counterpart of an ablation table: one row per variant, so
    differences in the reports are attributable to the variant alone.
    Each variant's kwargs are merged over ``common`` and go to the
    :class:`~repro.serving.cluster.ServingCluster` constructor.  Every
    cluster is built before the first one runs, so a bad variant fails
    before any simulation time is spent.  A ``tracer`` in ``common``
    attaches to every run and ends up holding the last point's spans
    (each ``run()`` resets it).
    """
    from repro.serving.cluster import ServingCluster

    clusters = [(label, ServingCluster(config, **{**common, **kwargs}))
                for label, kwargs in variants.items()]
    return [SweepPoint(label, cluster.run(trace))
            for label, cluster in clusters]
