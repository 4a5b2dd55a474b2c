"""Fleet-level aggregation of per-replica serving reports.

A cluster run is judged on different axes than a single device: aggregate
fleet throughput, what fraction of requests met the TTFT SLO, how many
replica-seconds of capacity the run consumed (the cost side of
autoscaling), and how the fleet size evolved over the run.  The per-replica
:class:`~repro.serving.metrics.ServingReport`s stay available for
drill-down; the fleet latency distributions are recomputed over *all*
requests so they are exact, not an average of per-replica percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.serving.metrics import LatencyStats, RequestTable, ServingReport
from repro.serving.request import ServingRequest
from repro.serving.slo import SLOClass

if TYPE_CHECKING:
    from repro.serving.engine import DeviceWorker


@dataclass(frozen=True)
class ReplicaCountSample:
    """Fleet composition at one timeline instant."""

    time_s: float
    active: int
    warming: int
    draining: int

    @property
    def provisioned(self) -> int:
        """Replicas consuming capacity: serving, warming up, or draining.

        Draining replicas count — they still hold their engine and KV pool
        while finishing in-flight work — so this can briefly exceed the
        autoscaler's ``max_replicas``, which bounds only the
        committed-forward fleet (active + warming) a new spawn adds to.
        """
        return self.active + self.warming + self.draining


@dataclass(frozen=True)
class ReplicaLifecycle:
    """Spawn-to-stop span of one replica (``stopped_s`` ``None`` = alive
    at end of run).  ``role`` is the replica's traffic role —
    ``unified`` everywhere outside a disaggregated fleet; ``crashed``
    marks a STOPPED transition that was an injected crash rather than a
    drained-dry stop (only serialized on faulted runs)."""

    replica_id: int
    spawned_s: float
    ready_s: float
    stopped_s: Optional[float]
    role: str = "unified"
    crashed: bool = False

    def seconds(self, end_s: float) -> float:
        """Capacity consumed: spawn (warm-up included) to stop or run end."""
        end = self.stopped_s if self.stopped_s is not None else end_s
        return max(0.0, end - self.spawned_s)


@dataclass(frozen=True)
class ClassOutcome:
    """One SLO class's share of a multi-tenant run.

    Attainment counters are ``Optional``: a class that appears in the mix
    but completes zero requests (or, for TPOT, completes only
    single-token requests) has *no evidence* to judge, and serializes as
    ``null`` rather than a misleading 0 — and never trips the empty-input
    guard of the percentile machinery (the latency stats use the
    empty-safe :meth:`LatencyStats.from_values` sentinel).
    """

    slo_class: SLOClass
    submitted: int
    completed: int
    rejected: int
    ttft: LatencyStats
    tpot: LatencyStats
    ttft_attained: Optional[int]   # None = no completed requests
    tpot_attained: Optional[int]   # None = no multi-token completions
    tpot_eligible: int             # completions with output_len > 1

    @property
    def ttft_attainment(self) -> Optional[float]:
        """Fraction of completions within the class TTFT target."""
        if self.ttft_attained is None or self.completed <= 0:
            return None
        return self.ttft_attained / self.completed

    @property
    def tpot_attainment(self) -> Optional[float]:
        """Fraction of multi-token completions within the TPOT target."""
        if self.tpot_attained is None or self.tpot_eligible <= 0:
            return None
        return self.tpot_attained / self.tpot_eligible

    def to_dict(self) -> dict:
        """JSON-ready per-class summary (latencies/targets in ms)."""
        return {
            "ttft_target_ms": self.slo_class.ttft_target_s * 1e3,
            "tpot_target_ms": self.slo_class.tpot_target_s * 1e3,
            "value": self.slo_class.value,
            "tier": self.slo_class.tier,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "ttft_ms": self.ttft.to_ms_dict(),
            "tpot_ms": self.tpot.to_ms_dict(),
            "ttft_attained": self.ttft_attained,
            "ttft_attainment": self.ttft_attainment,
            "tpot_attained": self.tpot_attained,
            "tpot_attainment": self.tpot_attainment,
        }


@dataclass
class ClusterReport:
    """Aggregate outcome of one cluster run."""

    model: str
    router: str
    autoscaled: bool
    num_requests: int
    completed: int
    rejected: int
    total_output_tokens: int
    makespan_s: float
    end_s: float                      # last fleet activity (>= makespan end)
    ttft: LatencyStats
    tpot: LatencyStats
    e2e_latency: LatencyStats
    queue_wait: LatencyStats
    slo_ttft_s: Optional[float] = None
    slo_attained: Optional[int] = None    # completed requests within SLO
    replica_reports: List[ServingReport] = field(default_factory=list)
    lifecycles: List[ReplicaLifecycle] = field(default_factory=list)
    timeline: List[ReplicaCountSample] = field(default_factory=list)
    # Disaggregation accounting (defaults = the unified tier; the JSON
    # payload only grows a section when the mode actually ran).
    disaggregated: bool = False
    kv_migrations: int = 0
    kv_bytes_transferred: float = 0.0
    kv_transfer_seconds: float = 0.0
    # Streamed hand-off accounting (only serialized when
    # kv_stream_chunks > 1, keeping monolithic reports byte-identical).
    kv_stream_chunks: int = 1
    kv_chunks_landed: int = 0
    kv_stall_seconds: float = 0.0
    kv_stall_steps: int = 0
    # Multi-tenant accounting (empty = classless run; the JSON payload
    # only grows its sections when the trace actually carried classes).
    class_outcomes: List[ClassOutcome] = field(default_factory=list)
    # Fault-injection accounting: requests lost to a crash with retries
    # exhausted, and the gated ``faults`` section (None = no fault plan
    # ran — or an empty one — keeping unfaulted reports byte-identical).
    failed: int = 0
    faults: Optional[dict] = None
    # Run manifest (config snapshot + workload fingerprint) — always set
    # by the cluster's run(); only None for hand-built reports.
    manifest: Optional[dict] = None
    # Telemetry section (span counts + metrics summary) — only present
    # when the run carried a tracer, keeping untraced reports unchanged.
    telemetry: Optional[dict] = None

    @property
    def fleet_tokens_per_s(self) -> float:
        """Output tokens per wall-clock second across the whole fleet."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_s

    @property
    def slo_attainment(self) -> Optional[float]:
        """Fraction of completed requests whose TTFT met the SLO (``None``
        without a configured SLO; 1.0 on an empty run — nothing missed)."""
        if self.slo_ttft_s is None or self.slo_attained is None:
            return None
        if self.completed <= 0:
            return 1.0
        return self.slo_attained / self.completed

    @property
    def replica_seconds(self) -> float:
        """Total capacity consumed: sum of every replica's spawn-to-stop
        span (warm-up included — scaling up is not free)."""
        return sum(life.seconds(self.end_s) for life in self.lifecycles)

    @property
    def peak_replicas(self) -> int:
        """Most replicas provisioned at any timeline instant."""
        return max((sample.provisioned for sample in self.timeline),
                   default=len(self.lifecycles))

    @property
    def preemptions(self) -> int:
        """Fleet-wide memory-pressure preemptions across all replicas."""
        return sum(report.preemptions for report in self.replica_reports)

    @property
    def peak_kv_utilization(self) -> float:
        """Highest block-pool occupancy any replica reached (0.0 when the
        fleet ran without KV pools)."""
        return max((report.peak_kv_utilization
                    for report in self.replica_reports), default=0.0)

    def role_replica_ids(self, role: str) -> List[int]:
        """Replica ids that served the given role (``prefill``/``decode``/
        ``unified``), in id order."""
        return [life.replica_id for life in self.lifecycles
                if life.role == role]

    @staticmethod
    def _served(report: ServingReport) -> int:
        """Requests that *finished on* the replica (device counter, equal
        to the fold's ``completed`` for unified replicas)."""
        return sum(d.requests_served for d in report.devices)

    @staticmethod
    def _generated(report: ServingReport) -> int:
        """Tokens the replica's device actually emitted (equal to the
        fold's output-token total for unified replicas)."""
        return sum(d.tokens_generated for d in report.devices)

    @property
    def jain_fairness(self) -> Optional[float]:
        """Jain's index over per-class TTFT attainment.

        ``J = (sum x)^2 / (n * sum x^2)`` with one ``x`` per class that
        has attainment evidence; 1.0 means every class met its own target
        equally often, ``1/n`` means one class took everything.  ``None``
        on classless runs or when no class has evidence; the 1.0
        convention when every attainment is exactly zero (all classes are
        equally starved — maximally fair, maximally miserable)."""
        shares = [outcome.ttft_attainment for outcome in self.class_outcomes
                  if outcome.ttft_attainment is not None]
        if not shares:
            return None
        square_sum = sum(x * x for x in shares)
        if square_sum <= 0:
            return 1.0
        return (sum(shares) ** 2) / (len(shares) * square_sum)

    @property
    def class_weighted_attainment(self) -> Optional[float]:
        """Value-weighted TTFT attainment — the scalar multi-tenant
        schedulers are judged on: each completion counts its class's
        value, so keeping an interactive request within target is worth
        8x keeping a best-effort one.  ``None`` without class evidence."""
        weight = 0.0
        attained = 0.0
        for outcome in self.class_outcomes:
            if outcome.ttft_attained is None:
                continue
            weight += outcome.slo_class.value * outcome.completed
            attained += outcome.slo_class.value * outcome.ttft_attained
        if weight <= 0:
            return None
        return attained / weight

    @property
    def prefix_hit_rate(self) -> float:
        """Fleet-wide prefix hit rate (0.0 unless prefix caching ran)."""
        prompt = sum(sum(d.prompt_tokens for d in report.devices)
                     for report in self.replica_reports)
        if prompt <= 0:
            return 0.0
        reused = sum(report.prefix_tokens_reused
                     for report in self.replica_reports)
        return reused / prompt

    def to_dict(self) -> dict:
        """JSON-ready summary (latencies in milliseconds)."""
        payload = {
            "model": self.model,
            "router": self.router,
            "autoscaled": self.autoscaled,
            "num_requests": self.num_requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "total_output_tokens": self.total_output_tokens,
            "makespan_s": self.makespan_s,
            "fleet_tokens_per_s": self.fleet_tokens_per_s,
            "replica_seconds": self.replica_seconds,
            "peak_replicas": self.peak_replicas,
            "preemptions": self.preemptions,
            "ttft_ms": self.ttft.to_ms_dict(),
            "tpot_ms": self.tpot.to_ms_dict(),
            "e2e_latency_ms": self.e2e_latency.to_ms_dict(),
            "queue_wait_ms": self.queue_wait.to_ms_dict(),
            "replica_count_timeline": [
                {"time_s": s.time_s, "active": s.active,
                 "warming": s.warming, "draining": s.draining}
                for s in self.timeline
            ],
            "replicas": [
                # Tokens/requests come from the replica's *device*
                # counters — what it actually produced — not the request
                # fold: a migrated request's object is shared between its
                # prefill and decode replicas, and folding it would
                # credit each with the other's work.  (For a unified
                # replica the two tallies are identical.)
                {"replica_id": life.replica_id,
                 "spawned_s": life.spawned_s,
                 "ready_s": life.ready_s,
                 "stopped_s": life.stopped_s,
                 "replica_seconds": life.seconds(self.end_s),
                 "requests_completed": self._served(report),
                 "tokens_generated": self._generated(report),
                 "preemptions": report.preemptions,
                 # Role key only in disaggregated payloads, keeping
                 # unified reports byte-identical to the PR 4 shape.
                 **({"role": life.role} if self.disaggregated else {}),
                 # Crashed key only in faulted payloads, same convention.
                 **({"crashed": life.crashed}
                    if self.faults is not None else {})}
                for life, report in zip(self.lifecycles,
                                        self.replica_reports)
            ],
        }
        if self.disaggregated:
            payload["disaggregation"] = {
                "prefill_replicas": len(self.role_replica_ids("prefill")),
                "decode_replicas": len(self.role_replica_ids("decode")),
                "kv_migrations": self.kv_migrations,
                "kv_bytes_transferred": self.kv_bytes_transferred,
                "kv_transfer_seconds": self.kv_transfer_seconds,
            }
            if self.kv_stream_chunks > 1:
                # Streaming keys only appear for streamed hand-offs,
                # keeping monolithic (PR 5) reports byte-identical.
                payload["disaggregation"]["kv_streaming"] = {
                    "chunks_per_migration": self.kv_stream_chunks,
                    "chunks_landed": self.kv_chunks_landed,
                    "stall_seconds": self.kv_stall_seconds,
                    "stall_steps": self.kv_stall_steps,
                }
        if self.slo_ttft_s is not None:
            # SLO keys only appear when an SLO was configured, mirroring
            # the report-shape convention of the prefix-cache section.
            payload["slo"] = {
                "ttft_ms": self.slo_ttft_s * 1e3,
                "attained": self.slo_attained,
                "attainment": self.slo_attainment,
            }
        if self.class_outcomes:
            # Class keys only appear when the trace carried SLO classes,
            # keeping classless reports byte-identical to the prior shape.
            payload["slo_classes"] = {
                outcome.slo_class.name: outcome.to_dict()
                for outcome in self.class_outcomes
            }
            payload["fairness"] = {
                "jain_index": self.jain_fairness,
                "class_weighted_attainment": self.class_weighted_attainment,
            }
        if any(report.prefix_cache_enabled
               for report in self.replica_reports):
            payload["prefix_hit_rate"] = self.prefix_hit_rate
        if self.faults is not None:
            # Fault keys only appear when a (non-empty) fault plan ran,
            # keeping unfaulted reports byte-identical to the prior shape.
            payload["faults"] = self.faults
        if self.manifest is not None:
            payload["manifest"] = self.manifest
        if self.telemetry is not None:
            # Telemetry keys only appear when the run carried a tracer,
            # keeping untraced reports byte-identical to the prior shape.
            payload["telemetry"] = self.telemetry
        return payload

    def format(self) -> str:
        """Human-readable multi-line summary of the run."""
        scaling = "autoscaled" if self.autoscaled else "fixed fleet"
        if self.disaggregated:
            scaling += ", disaggregated"
        lines = [
            f"cluster report: {self.model}, router {self.router} "
            f"({scaling}, peak {self.peak_replicas} replica(s))",
            f"  requests:      {self.completed}/{self.num_requests} completed"
            + (f", {self.rejected} rejected" if self.rejected else "")
            + (f", {self.failed} failed" if self.failed else ""),
            f"  fleet output:  {self.total_output_tokens} tokens over "
            f"{self.makespan_s:.2f} s -> "
            f"{self.fleet_tokens_per_s:.1f} tok/s",
            f"  capacity:      {self.replica_seconds:.1f} replica-seconds",
        ]
        blocks = max((device.kv_blocks_total
                      for report in self.replica_reports
                      for device in report.devices), default=0)
        if blocks:
            lines.append(
                f"  kv cache:      {blocks} blocks/replica, peak util "
                f"{self.peak_kv_utilization * 100:.0f}%, "
                f"{self.preemptions} preemption(s)")
        if self.disaggregated:
            lines.append(
                f"  kv hand-off:   {self.kv_migrations} migration(s), "
                f"{self.kv_bytes_transferred / 1e6:.1f} MB moved, "
                f"{self.kv_transfer_seconds * 1e3:.1f} ms on the wire "
                f"({len(self.role_replica_ids('prefill'))} prefill / "
                f"{len(self.role_replica_ids('decode'))} decode)")
            if self.kv_stream_chunks > 1:
                lines.append(
                    f"  kv streaming:  {self.kv_stream_chunks} chunk(s)/"
                    f"migration, {self.kv_chunks_landed} landed, "
                    f"{self.kv_stall_seconds * 1e3:.1f} ms decode stall "
                    f"over {self.kv_stall_steps} step(s)")
        if self.slo_ttft_s is not None:
            lines.append(
                f"  slo:           p95 TTFT target "
                f"{self.slo_ttft_s * 1e3:.0f} ms, attainment "
                f"{(self.slo_attainment or 0.0) * 100:.1f}% "
                f"({self.slo_attained}/{self.completed} within SLO)")
        if self.class_outcomes:
            jain = self.jain_fairness
            weighted = self.class_weighted_attainment
            lines.append(
                "  slo classes:   "
                + (f"weighted attainment {weighted * 100:.1f}%"
                   if weighted is not None else "no attainment evidence")
                + (f", Jain fairness {jain:.3f}" if jain is not None
                   else ""))
            for outcome in self.class_outcomes:
                ttft_part = (f"{outcome.ttft_attainment * 100:.1f}% ttft"
                             if outcome.ttft_attainment is not None
                             else "no completions")
                tpot_part = (f", {outcome.tpot_attainment * 100:.1f}% tpot"
                             if outcome.tpot_attainment is not None else "")
                lines.append(
                    f"    {outcome.slo_class.name:<12} "
                    f"{outcome.completed}/{outcome.submitted} completed, "
                    f"{ttft_part}{tpot_part}")
        if any(report.prefix_cache_enabled
               for report in self.replica_reports):
            lines.append(
                f"  prefix cache:  fleet hit rate "
                f"{self.prefix_hit_rate * 100:.0f}%")
        if self.faults is not None:
            lines.append(
                f"  faults:        {self.faults['crashes']} crash(es), "
                f"{self.faults['slow_nodes']} slow node(s), "
                f"{self.faults['kv_link_degradations']} kv-link event(s); "
                f"{self.faults['retries']} retry dispatch(es), "
                f"{self.faults['requests_failed']} request(s) failed")
        lines += [
            "  latency (ms):",
            f"    ttft        {self.ttft.format_ms()}",
            f"    tpot        {self.tpot.format_ms()}",
            f"    e2e         {self.e2e_latency.format_ms()}",
            f"    queue wait  {self.queue_wait.format_ms()}",
        ]
        for life, report in zip(self.lifecycles, self.replica_reports):
            stopped = (f"stopped {life.stopped_s:.2f}s"
                       if life.stopped_s is not None else "alive at end")
            role = f" [{life.role}]" if self.disaggregated else ""
            lines.append(
                f"  replica {life.replica_id}{role}: "
                f"{self._served(report)} requests, "
                f"{self._generated(report)} tokens, "
                f"spawned {life.spawned_s:.2f}s, {stopped}, "
                f"{life.seconds(self.end_s):.1f} replica-s")
        return "\n".join(lines)


def build_class_outcomes(requests: Sequence[ServingRequest],
                         table: Optional[RequestTable] = None,
                         ) -> List[ClassOutcome]:
    """Group requests by SLO class and judge each against its own targets.

    Unclassed requests are skipped entirely (a classless run yields an
    empty list, and the cluster report then grows no class sections).
    Outcomes come back in descending tier order — interactive first —
    which is also the deterministic order the JSON payload serializes
    (tier ties, impossible among the built-in classes, break on name).
    ``table`` is ``requests``' :class:`RequestTable` when the caller
    already built it."""
    if table is None:
        table = RequestTable(requests)
    groups: Dict[str, List[int]] = {}
    classes: Dict[str, SLOClass] = {}
    for row, slo in enumerate(table.slo_classes()):
        if slo is None:
            continue
        groups.setdefault(slo.name, []).append(row)
        classes[slo.name] = slo
    outcomes = []
    for name in sorted(groups, key=lambda n: (-classes[n].tier, n)):
        slo = classes[name]
        members = np.array(groups[name], dtype=np.intp)
        done = table.done(members)
        ttft = table.ttft[done]
        tpot = table.tpot[done]
        tpot = tpot[~np.isnan(tpot)]
        outcomes.append(ClassOutcome(
            slo_class=slo,
            submitted=len(members),
            completed=len(done),
            rejected=int(np.count_nonzero(table.rejected[members])),
            ttft=LatencyStats.from_values(ttft),
            tpot=LatencyStats.from_values(tpot),
            ttft_attained=int(np.count_nonzero(ttft <= slo.ttft_target_s))
            if len(done) else None,
            tpot_attained=int(np.count_nonzero(tpot <= slo.tpot_target_s))
            if len(tpot) else None,
            tpot_eligible=len(tpot),
        ))
    return outcomes


def build_cluster_report(model: str, router: str, autoscaled: bool,
                         requests: Sequence[ServingRequest],
                         replicas: Sequence["DeviceWorker"],
                         timeline: List[ReplicaCountSample],
                         end_s: float,
                         slo_ttft_s: Optional[float] = None,
                         disaggregated: bool = False,
                         kv_migrations: int = 0,
                         kv_bytes_transferred: float = 0.0,
                         kv_transfer_seconds: float = 0.0,
                         kv_stream_chunks: int = 1,
                         kv_chunks_landed: int = 0,
                         kv_stall_seconds: float = 0.0,
                         kv_stall_steps: int = 0,
                         manifest: Optional[dict] = None,
                         telemetry: Optional[dict] = None,
                         fault_plan=None,
                         fault_crashes: int = 0,
                         fault_slow_nodes: int = 0,
                         fault_kv_link_degradations: int = 0,
                         ) -> ClusterReport:
    """Fold per-request outcomes and the fleet's replicas into the fleet
    report.

    The requests' outcomes are read once into a
    :class:`~repro.serving.metrics.RequestTable`; the fleet's latency
    distributions fold all of its rows (so fleet percentiles are exact),
    and each replica's ``ServingReport`` folds the rows of the requests
    it served.  Note a disaggregated nuance in the per-replica
    drill-down: a migrated request appears in both its prefill and its
    decode replica's ``ServingReport`` (each replica really served part
    of it), so those folded reports overlap; fleet-level counts and the
    payload's per-replica tokens/requests use the deduplicated
    ``requests`` and the device counters respectively, and never
    double-count."""
    table = RequestTable(requests)
    # The fleet fold runs before the replica folds build the table's
    # row index, so the two never hold their temporaries at once.
    fold = table.fold()
    replica_reports = [replica.report(model, table) for replica in replicas]
    lifecycles = [ReplicaLifecycle(replica.device_id, replica.spawned_s,
                                   replica.ready_s, replica.stopped_s,
                                   role=replica.role.value,
                                   crashed=replica.crashed)
                  for replica in replicas]
    slo_attained = None
    if slo_ttft_s is not None:
        slo_attained = int(np.count_nonzero(
            table.ttft[table.finished] <= slo_ttft_s))
    faults = None
    if fault_plan is not None and fault_plan:
        # Gated on a *non-empty* plan: an empty FaultPlan is behaviourally
        # identical to no plan, and its report must be byte-identical too.
        # Recovery TTFT is measured over requests that were lost to a
        # crash and still finished — from their original arrival, so the
        # distribution is the end-to-end recovery cost the client saw.
        retries = table.retries()
        retried = table.finished & (retries > 0)
        faults = {
            "crashes": fault_crashes,
            "slow_nodes": fault_slow_nodes,
            "kv_link_degradations": fault_kv_link_degradations,
            "retries": int(retries.sum()),
            "max_retries": fault_plan.max_retries,
            "requests_failed": fold.failed,
            "recovery_ttft_ms": LatencyStats.from_values(
                table.ttft[retried]).to_ms_dict(),
        }
    return ClusterReport(
        model=model,
        router=router,
        autoscaled=autoscaled,
        num_requests=fold.num_requests,
        completed=fold.completed,
        rejected=fold.rejected,
        total_output_tokens=fold.total_output_tokens,
        makespan_s=fold.makespan_s,
        end_s=end_s,
        ttft=fold.ttft,
        tpot=fold.tpot,
        e2e_latency=fold.e2e_latency,
        queue_wait=fold.queue_wait,
        slo_ttft_s=slo_ttft_s,
        slo_attained=slo_attained,
        replica_reports=replica_reports,
        lifecycles=lifecycles,
        timeline=timeline,
        disaggregated=disaggregated,
        kv_migrations=kv_migrations,
        kv_bytes_transferred=kv_bytes_transferred,
        kv_transfer_seconds=kv_transfer_seconds,
        kv_stream_chunks=kv_stream_chunks,
        kv_chunks_landed=kv_chunks_landed,
        kv_stall_seconds=kv_stall_seconds,
        kv_stall_steps=kv_stall_steps,
        class_outcomes=build_class_outcomes(requests, table),
        failed=fold.failed,
        faults=faults,
        manifest=manifest,
        telemetry=telemetry,
    )
