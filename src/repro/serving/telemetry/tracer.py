"""Request-lifecycle tracing: typed per-request spans in columnar storage.

A :class:`Tracer` is handed to a :class:`~repro.serving.cluster.ServingCluster`
(which threads it to every replica's
:class:`~repro.serving.engine.DeviceWorker`) and records one
:class:`SpanKind`-typed span per scheduling decision a request lives
through — queueing, admission, prefill chunks, decode steps, KV transfers
and stream stalls, preemption/resume cycles, replica drains.  The design
constraints, in order:

* **Zero cost when absent.**  Every instrumentation hook in the serving
  stack is guarded by ``if tracer is not None`` and is purely
  observational, so a run without a tracer is byte-identical to one that
  never heard of telemetry (asserted across the whole differential matrix
  in ``tests/serving/cluster/test_tracing.py``).

* **Cheap when present.**  The hot path is one ``list.extend`` of six
  scalars onto a flat staging list — no long-lived per-span object at
  all — flushed in batches (one ``np.fromiter`` per ~8k spans) into a
  six-column :class:`~repro.serving.metrics.SampleBuffer` (kind,
  request, lane, start, end, aux).  The 50k-request kernel benchmark
  asserts the end-to-end overhead stays under 10%.

* **A partition, not a pile.**  For every finished request the spans of
  :data:`LATENCY_KINDS` exactly tile ``[arrival_s, finish_s]`` — summing
  them reproduces the request's measured e2e latency to float precision,
  which is what makes ``repro trace critical-path`` attribution sound.
  Instant markers (ADMIT, PREEMPT, RESUME, FIRST_TOKEN) are zero-width;
  STREAM_CHUNK and DRAIN are wire/lane detail outside the per-request
  partition.

The tracer also owns the run's :class:`MetricsRegistry` and (optionally)
the event kernel's pop log — see :meth:`enable_kernel_log` — so there is
exactly one event-materialization path in the serving tier.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving.metrics import SampleBuffer
from repro.serving.request import ServingRequest
from repro.serving.telemetry.registry import MetricsRegistry


class SpanKind(enum.IntEnum):
    """Typed span/instant kinds, stored as the kind column of the buffer.

    Duration spans tile a request's lifetime; instants mark transitions;
    lane spans (STREAM_CHUNK, DRAIN) describe interconnect and replica
    lifecycle activity that is not part of any one request's latency.
    """

    QUEUE = 0          # enqueue (arrival / KV landing / preempt) -> admit
    ADMIT = 1          # instant: request joined the continuous batch
    PREFILL_CHUNK = 2  # one prefill chunk executed in an engine step
    DECODE = 3         # one decode step executed
    BATCH_WAIT = 4     # resident but skipped by the scheduler this step
    KV_TRANSFER = 5    # hand-off wire time until the first chunk lands
    STREAM_CHUNK = 6   # one streamed KV chunk on the interconnect lane
    KV_STALL = 7       # planned but deferred: KV stream not yet landed
    PREEMPT = 8        # instant: evicted back to the queue
    RESUME = 9         # instant: re-admitted after a preemption
    FIRST_TOKEN = 10   # instant: TTFT boundary
    DRAIN = 11         # replica lane: drain initiated -> stopped
    CRASH = 12         # instant, replica lane: injected crash (aux = lost)
    RETRY = 13         # instant: a crash-lost request re-dispatched


#: Span kinds whose per-request durations partition [arrival_s, finish_s].
LATENCY_KINDS = frozenset({
    SpanKind.QUEUE, SpanKind.PREFILL_CHUNK, SpanKind.DECODE,
    SpanKind.BATCH_WAIT, SpanKind.KV_TRANSFER, SpanKind.KV_STALL,
})

#: Zero-width markers (rendered as instants, excluded from latency sums).
INSTANT_KINDS = frozenset({
    SpanKind.ADMIT, SpanKind.PREEMPT, SpanKind.RESUME, SpanKind.FIRST_TOKEN,
    SpanKind.CRASH, SpanKind.RETRY,
})

#: The fleet/interconnect lane (Chrome pid 0); >= 0 is a replica/device id.
FLEET_LANE = -1

# Plain-int kind constants for the tracer's own hot helpers (an IntEnum
# attribute lookup costs several times a module global).
_QUEUE = int(SpanKind.QUEUE)
_ADMIT = int(SpanKind.ADMIT)
_RESUME = int(SpanKind.RESUME)
_PREFILL = int(SpanKind.PREFILL_CHUNK)
_DECODE = int(SpanKind.DECODE)
_KV_STALL = int(SpanKind.KV_STALL)
_FIRST_TOKEN = int(SpanKind.FIRST_TOKEN)

#: Added to a chunk kind in the step-compact staging format to mark that
#: the whole batch stalled on a KV stream first — the flush expands the
#: row into a KV_STALL prefix plus the chunk span.
STALL_FLAG = 16


class Tracer:
    """Records typed spans into columnar storage, plus run metrics.

    One tracer instance traces one run: :meth:`reset` is called by the
    engine/cluster at the top of ``run()`` so a reused tracer never mixes
    two runs' spans.
    """

    #: Staged span count that triggers a columnar flush.
    FLUSH_THRESHOLD = 8192
    #: Simulated seconds between two fleet metric samples.
    metrics_interval_s = 0.25

    __slots__ = ("metrics", "_staged", "_flush_at",
                 "_step_meta", "_step_entries", "_entry_flush_at",
                 "_buffer", "_queued_since", "_preempted",
                 "request_classes", "_kernel_log")

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        #: Flat staging list: six scalars per span, no per-span object.
        self._staged: List[float] = []
        self._flush_at = self.FLUSH_THRESHOLD * 6
        #: Step-compact staging for the engine's per-step hot loop: one
        #: (lane, step_start, exec_start, clock, n) record per step and
        #: three ints (kind, request_id, aux) per resident — no per-row
        #: float references kept alive, half the staging volume.  The
        #: flush expands them to full rows vectorized (np.repeat).
        self._step_meta: List[float] = []
        self._step_entries: List[float] = []
        self._entry_flush_at = self.FLUSH_THRESHOLD * 3
        self._buffer = SampleBuffer(6)
        self._queued_since: Dict[int, float] = {}
        self._preempted: set = set()
        self.request_classes: Dict[int, str] = {}
        self._kernel_log: Optional[list] = None

    def reset(self) -> None:
        """Drop all recorded state; keep the kernel-log on/off setting."""
        self.metrics = MetricsRegistry()
        self._staged = []
        self._step_meta = []
        self._step_entries = []
        self._buffer = SampleBuffer(6)
        self._queued_since = {}
        self._preempted = set()
        self.request_classes = {}
        if self._kernel_log is not None:
            self._kernel_log = []

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def span(self, kind: int, start_s: float, end_s: float,
             request_id: int = -1, lane: int = FLEET_LANE,
             aux: float = 0.0) -> None:
        """Record one duration span (one list-extend; batched flush)."""
        staged = self._staged
        staged.extend((kind, request_id, lane, start_s, end_s, aux))
        if len(staged) >= self._flush_at:
            self._flush()

    def instant(self, kind: int, time_s: float, request_id: int = -1,
                lane: int = FLEET_LANE, aux: float = 0.0) -> None:
        """Record a zero-width marker."""
        self.span(kind, time_s, time_s, request_id, lane, aux)

    @property
    def step_entries(self) -> list:
        """Step-compact per-resident staging: ``extend`` with
        ``(kind, request_id, aux)`` int triples, where a chunk kind may
        carry :data:`STALL_FLAG`.  Pair with one :attr:`step_meta`
        record per step and a :meth:`flush_batch` after the batch."""
        return self._step_entries

    @property
    def step_meta(self) -> list:
        """Step-compact per-step staging: ``extend`` with
        ``(lane, step_start_s, exec_start_s, clock_s, n)`` where ``n``
        is the number of :attr:`step_entries` triples the step staged."""
        return self._step_meta

    def flush_batch(self) -> None:
        """Flush-threshold check for direct staging extenders — one
        check per batch instead of one per span."""
        if len(self._staged) >= self._flush_at \
                or len(self._step_entries) >= self._entry_flush_at:
            self._flush()

    def _flush(self) -> None:
        staged = self._staged
        if staged:
            self._buffer.extend(np.fromiter(
                staged, dtype=np.float64,
                count=len(staged)).reshape(-1, 6))
            staged.clear()
        entries = self._step_entries
        if entries:
            meta = np.fromiter(
                self._step_meta, dtype=np.float64,
                count=len(self._step_meta)).reshape(-1, 5)
            flat = np.fromiter(
                entries, dtype=np.float64,
                count=len(entries)).reshape(-1, 3)
            self._step_meta.clear()
            entries.clear()
            counts = meta[:, 4].astype(np.intp)
            lane = np.repeat(meta[:, 0], counts)
            step_start = np.repeat(meta[:, 1], counts)
            exec_start = np.repeat(meta[:, 2], counts)
            clock = np.repeat(meta[:, 3], counts)
            kind = flat[:, 0]
            prefixed = kind >= STALL_FLAG
            kind = np.where(prefixed, kind - STALL_FLAG, kind)
            # Chunk spans run [exec_start, clock]; FIRST_TOKEN instants
            # sit at clock; everything else (BATCH_WAIT, deferred
            # KV_STALL) tiles the whole step [step_start, clock].
            chunk = (kind == _PREFILL) | (kind == _DECODE)
            start = np.where(chunk, exec_start, step_start)
            start = np.where(kind == _FIRST_TOKEN, clock, start)
            rows = np.column_stack((kind, flat[:, 1], lane, start, clock,
                                    flat[:, 2]))
            if prefixed.any():
                stalled = int(prefixed.sum())
                rows = np.vstack((rows, np.column_stack((
                    np.full(stalled, float(_KV_STALL)),
                    flat[prefixed, 1], lane[prefixed],
                    step_start[prefixed], exec_start[prefixed],
                    np.zeros(stalled)))))
            self._buffer.extend(rows)

    # ------------------------------------------------------------------
    # Lifecycle helpers (the queue/preempt bookkeeping lives here so the
    # engine hooks stay one call each)
    # ------------------------------------------------------------------
    def admitted(self, request: ServingRequest, now: float,
                 lane: int) -> None:
        """Close the request's QUEUE span and mark the admission.

        The queue span opens at the most recent of: preemption time (via
        :meth:`preempted`), KV-landing time, or arrival — exactly the
        request's ``enqueue_s`` semantics — so repeated admit/preempt
        cycles tile the timeline without overlap."""
        rid = request.request_id
        start = self._queued_since.pop(rid, None)
        if start is None:
            start = request.enqueue_s
        staged = self._staged
        if rid in self._preempted:
            self._preempted.discard(rid)
            staged.extend((_QUEUE, rid, lane, start, now, 0.0,
                           _RESUME, rid, lane, now, now, 0.0))
        else:
            staged.extend((_QUEUE, rid, lane, start, now, 0.0,
                           _ADMIT, rid, lane, now, now, 0.0))
        if len(staged) >= self._flush_at:
            self._flush()
        slo_class = getattr(request, "slo_class", None)
        if slo_class is not None:
            self.request_classes[rid] = slo_class.name

    def preempted(self, request_id: int, now: float, lane: int) -> None:
        """Mark an eviction; the next admission emits RESUME, not ADMIT."""
        self.instant(SpanKind.PREEMPT, now, request_id, lane)
        self._queued_since[request_id] = now
        self._preempted.add(request_id)

    def requeued(self, request_id: int, now: float) -> None:
        """Open the next QUEUE span at ``now`` unless one is already
        open (crash retry): a request lost while *running* restarts its
        queue wait at the crash, while one lost while still waiting —
        never admitted, or preempted — keeps the wait it was already
        accruing, so repeated loss/retry cycles tile the timeline."""
        self._queued_since.setdefault(request_id, now)

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        entries = self._step_entries
        staged_steps = len(entries) // 3
        if staged_steps:
            staged_steps += sum(1 for kind in entries[0::3]
                                if kind >= STALL_FLAG)
        return len(self._buffer) + len(self._staged) // 6 + staged_steps

    def rows(self):
        """All spans as an ``(n, 6)`` float array (a copy): (kind,
        request, lane, start_s, end_s, aux)."""
        self._flush()
        return self._buffer.rows()

    def sorted_tuples(self) -> List[Tuple[float, ...]]:
        """All spans as sorted row tuples — the canonical form the
        kernel-equivalence tests compare (event vs step must be equal)."""
        return sorted(tuple(row) for row in self.rows())

    def span_counts(self) -> Dict[str, int]:
        """Span count per kind name (only kinds that occurred)."""
        rows = self.rows()
        if rows.shape[0] == 0:
            return {}
        kinds, counts = np.unique(rows[:, 0].astype(np.int64),
                                  return_counts=True)
        return dict(sorted(
            (SpanKind(int(kind)).name, int(count))
            for kind, count in zip(kinds, counts)))

    # ------------------------------------------------------------------
    # Event-kernel pop log (the one materialization path — the legacy
    # ``EventQueue(record=True)`` duplicate was deleted in its favour)
    # ------------------------------------------------------------------
    def enable_kernel_log(self) -> None:
        """Opt in to recording every event the kernel pops (raw tuples;
        materialized lazily by :meth:`kernel_events`)."""
        if self._kernel_log is None:
            self._kernel_log = []

    def kernel_event(self, entry: tuple) -> None:
        """Sink for :class:`~repro.serving.cluster.events.EventQueue`'s
        ``on_pop`` — stores the raw ``(time_s, kind, tie, seq, payload)``
        entry exactly as popped (stale-dropped entries never reach it)."""
        self._kernel_log.append(entry)

    def kernel_events(self) -> Optional[list]:
        """The pop log materialized as typed, frozen ``Event`` records
        (None unless :meth:`enable_kernel_log` ran)."""
        if self._kernel_log is None:
            return None
        # Imported lazily: telemetry must not import the cluster package
        # at module scope (serving -> engine -> telemetry -> cluster would
        # cycle through the package __init__).
        from repro.serving.cluster.events import Event, EventKind
        return [Event(entry[0], EventKind(entry[1]), entry[2], entry[3],
                      entry[4])
                for entry in self._kernel_log]
