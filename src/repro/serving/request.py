"""Serving-level request lifecycle.

A :class:`ServingRequest` wraps one [input:output] workload with everything
the engine needs that the per-request :class:`~repro.runtime.ActiveRequest`
cursor does not track: when it arrived, which device it was sharded to, and
the absolute timestamps of admission, first token and completion — the raw
material for TTFT/TPOT/latency metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.models.workload import Workload
from repro.runtime.session import ActiveRequest
from repro.serving.slo import SLOClass, resolve_slo_class

if TYPE_CHECKING:
    from repro.serving.workload_gen import TimedRequest


class RequestState(Enum):
    """Serving lifecycle of one request (preemption cycles back to QUEUED,
    as does a disaggregated hand-off while the request awaits a decode
    slot)."""

    QUEUED = "queued"        # waiting for a batch slot (also after preemption)
    RUNNING = "running"      # admitted into the continuous batch
    FINISHED = "finished"    # all output tokens emitted
    REJECTED = "rejected"    # exceeds max_seq_len or the whole KV pool
    FAILED = "failed"        # lost to a crash with retries exhausted


@dataclass(eq=False, slots=True)
class ServingRequest:
    """One request as the serving engine sees it.

    ``priority`` ranks the request for tiered admission and preemption
    policies (higher = more important; 0 for everything in a single-tier
    workload).  ``prefix_group``/``prefix_len`` declare that the first
    ``prefix_len`` prompt tokens are byte-identical across every request of
    the group (a shared system prompt, few-shot preamble, …) — the handle
    the prefix-caching KV manager keys its shared blocks on.  Both are
    ignored unless the engine runs with ``enable_prefix_cache``.

    ``eq=False``: requests compare (and hash) by identity.  Every request
    is a unique live object threaded through queues and batches, so
    identity is the correct notion of sameness — and it keeps the
    engine's ``running.remove(request)`` on the C fast path instead of
    field-by-field dataclass comparison per scanned element (measurably
    hot at million-request traces).

    ``slots=True``: the fields are the whole state.  A request has no
    ``__dict__``, so it is smaller, every hot-path field read is a slot
    load instead of a dict lookup, and writing an undeclared attribute (a
    misspelt field) raises ``AttributeError`` instead of silently adding
    state.
    """

    request_id: int
    workload: Workload
    arrival_s: float
    state: RequestState = RequestState.QUEUED
    device_id: Optional[int] = None
    # The step cursor while the request is admitted on a worker: None
    # before its first admission and again once it finished.
    active: Optional[ActiveRequest] = field(default=None, repr=False)
    admitted_s: Optional[float] = None
    first_token_s: Optional[float] = None
    finish_s: Optional[float] = None
    tokens_emitted: int = 0
    preemptions: int = 0
    priority: int = 0
    prefix_group: Optional[str] = None
    prefix_len: int = 0
    # SLO class (resolved SLOClass instance, or None for unclassed
    # requests).  Consumed by the score-based policies and per-class
    # reporting; the score treats None as the default (standard) class.
    slo_class: Optional[SLOClass] = None
    # Disaggregation hand-off state (all defaults on a unified engine):
    # ``migrated_kv_tokens`` is the resident KV rows that travel with the
    # request when a prefill replica hands it to a decode replica, and
    # ``migration_ready_s`` is when the KV transfer fully lands there.
    # A streamed hand-off also stamps ``kv_first_chunk_s`` — when the
    # first layer chunk lands, the moment the decode replica's admission
    # may first see the request (decode overlaps the transfer tail; a
    # monolithic transfer stamps both with the same landing time).
    migrated_kv_tokens: int = 0
    migration_ready_s: Optional[float] = None
    kv_first_chunk_s: Optional[float] = None
    migrations: int = 0
    # Crash-recovery state: how many times this request was lost to a
    # replica crash and re-dispatched from scratch (fault injection; 0
    # on a fault-free run).  Latency metrics keep measuring from the
    # original arrival, so a retried request's TTFT is its recovery time.
    # ``requeued_s`` is when the latest retry was re-dispatched — the
    # request cannot be visible to any admission sweep before that
    # instant, even though ``arrival_s`` (which may be far earlier)
    # stays the latency anchor.
    retries: int = 0
    requeued_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.prefix_group is not None:
            if not 0 < self.prefix_len <= self.workload.input_len:
                raise ValueError(
                    f"prefix_len must be within (0, input_len] for a "
                    f"prefix-group request, got {self.prefix_len} for "
                    f"prompt length {self.workload.input_len}")
        elif self.prefix_len:
            raise ValueError("prefix_len requires a prefix_group")

    @property
    def enqueue_s(self) -> float:
        """When this request becomes visible to its current device's
        admission sweep: the trace arrival for a fresh request, the first
        KV chunk's landing for one streamed to a decode replica (the
        full landing when the transfer is monolithic), or the retry
        dispatch instant for a request re-entering after a crash (a
        retry clears the KV fields; a post-retry migration re-stamps
        them with later times, so the order below stays correct)."""
        if self.kv_first_chunk_s is not None:
            return self.kv_first_chunk_s
        if self.migration_ready_s is not None:
            return self.migration_ready_s
        if self.requeued_s is not None:
            return self.requeued_s
        return self.arrival_s

    @property
    def shareable_prefix(self) -> bool:
        """Whether this request participates in prefix-cache block reuse."""
        return self.prefix_group is not None

    def detach_prefix(self) -> None:
        """Stop participating in prefix sharing (used on preemption: the
        victim's shared references were released, and its resume prompt —
        original prefix plus emitted tokens — is recomputed privately
        rather than re-attached against a cache whose state at re-admission
        is unknowable at eviction time)."""
        self.prefix_group = None
        self.prefix_len = 0

    def resume_workload(self) -> Workload:
        """The workload to recompute with after a preemption.

        Recompute-style preemption (there is no swap device) keeps the
        tokens already streamed to the user: they become part of the prompt,
        so re-admission prefills ``input_len + tokens_emitted`` positions and
        then decodes the remaining output.  Total positions are unchanged,
        so anything that passed the admission-time capacity checks still
        passes them on resume.
        """
        if self.tokens_emitted >= self.workload.output_len:
            raise RuntimeError(
                f"request {self.request_id} already emitted all "
                f"{self.workload.output_len} output tokens")
        if self.tokens_emitted <= 0:
            return self.workload
        return Workload(self.workload.input_len + self.tokens_emitted,
                        self.workload.output_len - self.tokens_emitted)

    def migration_workload(self) -> Workload:
        """The workload a decode replica continues with after a hand-off.

        Same shape arithmetic as :meth:`resume_workload` — the tokens the
        prefill replica emitted fold into the prompt — but nothing is
        recomputed: the prompt's KV rows (``migrated_kv_tokens`` of them)
        arrive with the request over the interconnect, so the new cursor is
        marked fully resident and goes straight to decode.
        """
        return self.resume_workload()

    # ------------------------------------------------------------------
    # Derived per-request metrics (valid once the request finished)
    # ------------------------------------------------------------------
    @property
    def queue_wait_s(self) -> float:
        """Time spent waiting before admission into the batch."""
        if self.admitted_s is None:
            return 0.0
        return self.admitted_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time to first token, measured from arrival (queueing included)."""
        if self.first_token_s is None:
            return 0.0
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time per output token over the decode phase (0 for one-token
        outputs, which finish at the first token)."""
        if self.first_token_s is None or self.finish_s is None:
            return 0.0
        decode_tokens = self.workload.output_len - 1
        if decode_tokens <= 0:
            return 0.0
        return (self.finish_s - self.first_token_s) / decode_tokens

    @property
    def e2e_latency_s(self) -> float:
        """Arrival-to-completion latency."""
        if self.finish_s is None:
            return 0.0
        return self.finish_s - self.arrival_s


# The order a trace is served in: by arrival, ties by request id.
_ARRIVAL_ORDER = attrgetter("arrival_s", "request_id")


def requests_from_trace(trace: "Sequence[TimedRequest]",
                        ) -> "List[ServingRequest]":
    """Convert a trace into engine-ready requests, in arrival order.

    The single place a ``TimedRequest`` field is threaded through to
    ``ServingRequest``: :meth:`ServingCluster.run
    <repro.serving.cluster.ServingCluster.run>`, the one serving runner,
    builds its request list here.
    """
    return [ServingRequest(t.request_id, t.workload, t.arrival_s,
                           priority=t.priority,
                           prefix_group=t.prefix_group,
                           prefix_len=t.prefix_len,
                           slo_class=None if t.slo_class is None
                           else resolve_slo_class(t.slo_class))
            for t in sorted(trace, key=_ARRIVAL_ORDER)]
