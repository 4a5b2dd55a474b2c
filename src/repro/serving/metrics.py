"""Serving metrics: latency percentiles, throughput, queue/KV occupancy.

Single-request evaluation (Tables 4/5) reports latency/TTFT/speed; a serving
engine is judged on distributions — TTFT and TPOT percentiles under load,
aggregate tokens per second, how deep the admission queue grows, and (with a
KV-cache manager) how full the block pool runs and how often memory pressure
forced a preemption.

Hot-path accumulation costs O(1) per step and O(1) memory per request:
per-request latency feeds go into flat ``array('d')`` columns
(:class:`SampleBuffer`) whose distribution summaries are computed
vectorized at report time (:meth:`LatencyStats.from_values`), and the
post-step queue and KV occupancy is kept as running counters on each
device (:class:`DeviceStats`), not as a timeline — the report reads only
their peak and means.  At end of run the requests' outcomes are read
once into a columnar :class:`RequestTable`; every report folds that
table.  The standalone :func:`percentile` stays pure python — it is the
autoscaler's small-window decision arithmetic, not a bulk path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter, is_
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serving.request import RequestState, ServingRequest
from repro.serving.slo import SLOClass


class SampleBuffer:
    """A growable columnar store of fixed-width float rows.

    The serving tier's hot-path sample sink: ``append`` extends one flat
    ``array('d')`` with the row's values (one C call, about half the cost
    of a numpy row write), and the whole run's samples come back as numpy
    arrays (:meth:`rows`, :meth:`column`) for vectorized summary.  Those
    are copies, so the buffer can keep growing while a reader holds one.
    For the cursor-style readers that predate it (the autoscaler's
    rolling windows, tests poking at worker feeds) it also reads like a
    list of row tuples: ``len()``, truthiness, iteration, indexing and
    slicing all work.
    """

    __slots__ = ("_data", "_width")

    def __init__(self, columns: int) -> None:
        if columns < 1:
            raise ValueError("a SampleBuffer needs at least one column")
        self._data = array("d")
        self._width = columns

    @property
    def columns(self) -> int:
        """Row width."""
        return self._width

    def append(self, *values: float) -> None:
        """Append one row (one positional value per column)."""
        if len(values) != self._width:
            raise ValueError(f"a row of this buffer has {self._width} "
                             f"values, got {len(values)}")
        self._data.extend(values)

    def extend(self, rows: Sequence[Sequence[float]]) -> None:
        """Append a batch of rows at once (the tracer's flush path: one
        bulk copy instead of a python loop of appends).  Raises on
        ragged rows, like a numpy slice assignment would."""
        count = len(rows)
        if count == 0:
            return
        width = self._width
        if isinstance(rows, np.ndarray):
            if rows.shape != (count, width):
                raise ValueError(f"rows of shape {rows.shape} do not fit "
                                 f"a {width}-column buffer")
            batch = np.ascontiguousarray(rows, dtype=np.float64)
        else:
            # fromiter demands exactly count*width items.
            batch = np.fromiter(chain.from_iterable(rows), dtype=np.float64,
                                count=count * width)
        self._data.frombytes(batch.tobytes())

    def rows(self) -> np.ndarray:
        """The filled rows as an ``(n, columns)`` array (a copy)."""
        return np.frombuffer(self._data, dtype=np.float64) \
            .reshape(-1, self._width).copy()

    def column(self, index: int) -> np.ndarray:
        """One column over the filled rows (a copy)."""
        width = self._width
        if not -width <= index < width:
            raise IndexError(f"column {index} of a {width}-column buffer")
        return np.frombuffer(self._data, dtype=np.float64)[
            index % width::width].copy()

    def __len__(self) -> int:
        return len(self._data) // self._width

    def __iter__(self) -> Iterator[Tuple[float, ...]]:
        return zip(*[iter(self._data)] * self._width)

    def __getitem__(self, index) -> Union[Tuple[float, ...],
                                          List[Tuple[float, ...]]]:
        """List-of-tuples compatibility: an int yields one row tuple, a
        slice a list of them."""
        width = self._width
        size = len(self._data) // width
        if isinstance(index, slice):
            start, stop, step = index.indices(size)
            if step == 1:
                flat = self._data[start * width:max(start, stop) * width]
                return list(zip(*[iter(flat)] * width))
            return [self[row] for row in range(start, stop, step)]
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("SampleBuffer index out of range")
        return tuple(self._data[index * width:(index + 1) * width])


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (pct in [0, 100]) of a sample.

    Raises:
        ValueError: on an empty sample (there is no meaningful percentile of
            nothing — callers with possibly-empty samples should guard, as
            :meth:`LatencyStats.from_values` does) or a ``pct`` outside
            [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample is undefined")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass(frozen=True)
class LatencyStats:
    """Distribution summary of one latency metric, in seconds.

    ``count`` is the sample size; an all-zero summary with ``count == 0`` is
    the explicit empty sentinel (e.g. a trace where nothing finished), never
    a silently-misleading measurement.
    """

    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    count: int

    @classmethod
    def empty(cls) -> "LatencyStats":
        """The sentinel for "no samples" — all zeros, count 0."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, count=0)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencyStats":
        """Summarise a latency sample; the empty sentinel on no values.

        Vectorized: one sort, then every percentile by the same
        linear-interpolation rule as :func:`percentile` — so report-time
        summary of a million-sample run costs one numpy pass, not four
        python sorts."""
        return cls.from_owned(np.array(values, dtype=np.float64))

    @classmethod
    def from_owned(cls, ordered: np.ndarray) -> "LatencyStats":
        """:meth:`from_values` of a float64 array the caller hands over:
        it is sorted in place rather than copied (the request table's
        folds pass fresh selections of a column)."""
        ordered.sort()
        n = ordered.size
        if n == 0:
            return cls.empty()

        def interpolate(pct: float) -> float:
            rank = (pct / 100.0) * (n - 1)
            low = int(rank)
            high = min(low + 1, n - 1)
            fraction = rank - low
            return float(ordered[low] * (1.0 - fraction)
                         + ordered[high] * fraction)

        return cls(
            mean=float(ordered.mean()),
            p50=interpolate(50.0),
            p95=interpolate(95.0),
            p99=interpolate(99.0),
            max=float(ordered[-1]),
            count=int(n),
        )

    @property
    def is_empty(self) -> bool:
        """Whether this is the no-samples sentinel."""
        return self.count == 0

    def to_ms_dict(self) -> dict:
        """JSON-ready summary in milliseconds — the one definition of the
        latency-dict schema, shared by engine and cluster reports."""
        return {"mean": self.mean * 1e3, "p50": self.p50 * 1e3,
                "p95": self.p95 * 1e3, "p99": self.p99 * 1e3,
                "max": self.max * 1e3, "count": self.count}

    def format_ms(self) -> str:
        """One-line human-readable summary in milliseconds."""
        if self.is_empty:
            return "no samples"
        return (f"mean {self.mean * 1e3:8.1f}  p50 {self.p50 * 1e3:8.1f}  "
                f"p95 {self.p95 * 1e3:8.1f}  p99 {self.p99 * 1e3:8.1f}  "
                f"max {self.max * 1e3:8.1f}")


@dataclass(frozen=True)
class PreemptionEvent:
    """One memory-pressure preemption: the blocks-swapped timeline entry."""

    device_id: int
    time_s: float
    request_id: int
    blocks_freed: int


@dataclass(frozen=True)
class DeviceStats:
    """Per-device accounting over the whole run."""

    device_id: int
    engine_steps: int
    busy_s: float
    final_clock_s: float
    tokens_generated: int
    requests_served: int
    packing_s: float
    preemptions: int = 0
    kv_blocks_total: int = 0   # 0 when the device runs without a KV manager
    kv_peak_blocks: int = 0
    # Prefix-cache accounting (all 0 unless enable_prefix_cache ran).
    prompt_tokens: int = 0            # prompt tokens across admissions
    prefix_tokens_reused: int = 0     # of those, served from shared blocks
    shared_kv_blocks_reused: int = 0
    shared_kv_blocks_created: int = 0
    prefix_cow_copies: int = 0
    # Post-step occupancy summaries (one sample per engine step): the
    # admission backlog's sample count, sum and peak, and the KV pool's
    # sample count and summed occupancy (0 without a KV manager).
    queue_samples: int = 0
    queue_depth_sum: int = 0
    queue_depth_peak: int = 0
    kv_samples: int = 0
    kv_utilization_sum: float = 0.0

    @property
    def utilization(self) -> float:
        """Fraction of the device's clock spent executing steps."""
        if self.final_clock_s <= 0:
            return 0.0
        return self.busy_s / self.final_clock_s

    @property
    def peak_kv_utilization(self) -> float:
        """Highest block-pool occupancy the device reached (0 unmanaged)."""
        if self.kv_blocks_total <= 0:
            return 0.0
        return self.kv_peak_blocks / self.kv_blocks_total


@dataclass
class ServingReport:
    """Aggregate outcome of one device's share of a serving run (a
    cluster replica's drill-down report)."""

    model: str
    num_requests: int
    completed: int
    rejected: int
    total_output_tokens: int
    makespan_s: float
    ttft: LatencyStats
    tpot: LatencyStats
    e2e_latency: LatencyStats
    queue_wait: LatencyStats
    devices: List[DeviceStats] = field(default_factory=list)
    preemption_events: List[PreemptionEvent] = field(default_factory=list)
    prefix_cache_enabled: bool = False

    @property
    def aggregate_tokens_per_s(self) -> float:
        """Output tokens per wall-clock second across all devices."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_s

    @property
    def peak_queue_depth(self) -> int:
        """Deepest post-step admission backlog any device sampled."""
        return max((d.queue_depth_peak for d in self.devices), default=0)

    @property
    def mean_queue_depth(self) -> float:
        """Mean post-step admission backlog over every device's steps."""
        samples = sum(d.queue_samples for d in self.devices)
        if not samples:
            return 0.0
        return sum(d.queue_depth_sum for d in self.devices) / samples

    # ------------------------------------------------------------------
    # KV-cache memory metrics (zero/empty without a KV manager)
    # ------------------------------------------------------------------
    @property
    def preemptions(self) -> int:
        """Memory-pressure preemptions across all devices."""
        return sum(device.preemptions for device in self.devices)

    @property
    def peak_kv_utilization(self) -> float:
        """Highest block-pool occupancy any device reached, claim-time
        accurate (a claim released within the same step still counts)."""
        return max((d.peak_kv_utilization for d in self.devices), default=0.0)

    @property
    def mean_kv_utilization(self) -> float:
        """Mean post-step block-pool occupancy over every device's steps
        (each device's occupancy summed in its step order, then the
        devices' sums added in device order)."""
        samples = sum(d.kv_samples for d in self.devices)
        if not samples:
            return 0.0
        return sum(d.kv_utilization_sum for d in self.devices) / samples

    # ------------------------------------------------------------------
    # Prefix-cache metrics (zero unless enable_prefix_cache ran)
    # ------------------------------------------------------------------
    @property
    def prefix_tokens_reused(self) -> int:
        """Prompt tokens served from shared prefix blocks, fleet-wide."""
        return sum(d.prefix_tokens_reused for d in self.devices)

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of admitted prompt tokens served from shared prefix
        blocks instead of being prefilled."""
        total = sum(d.prompt_tokens for d in self.devices)
        if total <= 0:
            return 0.0
        return self.prefix_tokens_reused / total

    @property
    def shared_kv_blocks_reused(self) -> int:
        """Shared prefix-block references taken without allocation."""
        return sum(d.shared_kv_blocks_reused for d in self.devices)

    @property
    def shared_kv_blocks_created(self) -> int:
        """Shared prefix blocks allocated by group-leading prefills."""
        return sum(d.shared_kv_blocks_created for d in self.devices)

    @property
    def prefix_cow_copies(self) -> int:
        """Reuses that diverged mid-block (private copy of a partial tail)."""
        return sum(d.prefix_cow_copies for d in self.devices)

    def to_dict(self) -> dict:
        """JSON-ready summary (latencies in milliseconds)."""
        stats_ms = LatencyStats.to_ms_dict

        payload = {
            "model": self.model,
            # A replica report covers one device; the key keeps the
            # payload's shape.
            "num_devices": 1,
            "num_requests": self.num_requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "total_output_tokens": self.total_output_tokens,
            "makespan_s": self.makespan_s,
            "aggregate_tokens_per_s": self.aggregate_tokens_per_s,
            "peak_queue_depth": self.peak_queue_depth,
            "mean_queue_depth": self.mean_queue_depth,
            "preemptions": self.preemptions,
            "peak_kv_utilization": self.peak_kv_utilization,
            "mean_kv_utilization": self.mean_kv_utilization,
            "preemption_events": [
                {"device_id": e.device_id, "time_s": e.time_s,
                 "request_id": e.request_id, "blocks_freed": e.blocks_freed}
                for e in self.preemption_events
            ],
            "ttft_ms": stats_ms(self.ttft),
            "tpot_ms": stats_ms(self.tpot),
            "e2e_latency_ms": stats_ms(self.e2e_latency),
            "queue_wait_ms": stats_ms(self.queue_wait),
            "devices": [
                {"device_id": d.device_id, "engine_steps": d.engine_steps,
                 "busy_s": d.busy_s, "tokens_generated": d.tokens_generated,
                 "requests_served": d.requests_served,
                 "utilization": d.utilization,
                 "preemptions": d.preemptions,
                 "kv_blocks_total": d.kv_blocks_total,
                 "kv_peak_blocks": d.kv_peak_blocks}
                for d in self.devices
            ],
        }
        if self.prefix_cache_enabled:
            # Keys only appear when the feature ran, so default-policy
            # reports stay byte-identical to the PR 1/PR 2 payloads.
            payload["prefix_cache"] = {
                "hit_rate": self.prefix_hit_rate,
                "prompt_tokens": sum(d.prompt_tokens for d in self.devices),
                "tokens_reused": self.prefix_tokens_reused,
                "shared_blocks_created": self.shared_kv_blocks_created,
                "shared_blocks_reused": self.shared_kv_blocks_reused,
                "cow_copies": self.prefix_cow_copies,
            }
        return payload


@dataclass(frozen=True)
class RequestFold:
    """Per-request outcomes folded into aggregate statistics — the one
    definition of completed/rejected/failed counting, makespan, and the
    four latency distributions, shared by every replica report and the
    cluster report (which folds the whole fleet's
    requests so its percentiles are exact, never averaged across
    replicas)."""

    num_requests: int
    completed: int
    rejected: int
    # Requests lost to a crash with retries exhausted (fault injection;
    # always 0 on a fault-free run).
    failed: int
    total_output_tokens: int   # tokens emitted by finished requests
    makespan_s: float
    ttft: LatencyStats
    tpot: LatencyStats
    e2e_latency: LatencyStats
    queue_wait: LatencyStats


class RequestTable:
    """Every request's outcome as columns, one row per request.

    Built once at end of run: TTFT, TPOT and queue wait are computed
    here, vectorized, and every report — the fleet fold, each replica's
    report (by row-index arrays), the per-class outcomes, SLO attainment
    and the fault section — summarises these columns instead of walking
    the request objects again.  Row ``i`` is ``requests[i]``.  A fold
    takes e2e latency as ``finish - arrival`` of the rows it reads, and
    the columns only the gated report sections need (retries, SLO
    classes) are read from the requests when asked for, which keeps the
    table's memory below that of the per-request float lists it
    replaced.

    Timestamps a request never reached are NaN, and so is the TPOT of a
    one-token output (it has no decode phase); a finished request has
    every timestamp, so the folds, which read finished rows only, see
    exactly the values of the request's ``ttft_s``/``tpot_s``/
    ``e2e_latency_s``/``queue_wait_s`` properties.
    """

    __slots__ = ("finished", "rejected", "failed", "arrival", "finish",
                 "ttft", "tpot", "queue_wait", "tokens", "_requests",
                 "_ids", "_id_order")

    def __init__(self, requests: Sequence[ServingRequest]) -> None:
        # One column at a time, straight from the request attributes: a
        # tuple per row would allocate 100k GC-tracked objects (and set
        # off full collections over the request heap), and holding every
        # column's list at once would double the table's peak memory.
        self._requests = requests
        self._ids = self._id_order = None
        states = list(map(attrgetter("state"), requests))
        self.finished, self.rejected, self.failed = (
            np.fromiter(map(is_, states, repeat(state)), dtype=bool,
                        count=len(states))
            for state in (RequestState.FINISHED, RequestState.REJECTED,
                          RequestState.FAILED))
        del states
        self.arrival = self._times("arrival_s")
        self.finish = self._times("finish_s")
        first_token = self._times("first_token_s")
        decode_tokens = self._ints("workload.output_len") - 1
        self.tpot = np.full(len(requests), np.nan)
        np.divide(self.finish - first_token, decode_tokens, out=self.tpot,
                  where=decode_tokens > 0)
        del decode_tokens
        first_token -= self.arrival
        self.ttft = first_token
        self.queue_wait = self._times("admitted_s")
        self.queue_wait -= self.arrival
        self.tokens = self._ints("tokens_emitted")

    def _ints(self, name: str) -> np.ndarray:
        return np.fromiter(map(attrgetter(name), self._requests),
                           dtype=np.int64, count=len(self._requests))

    def _times(self, name: str) -> np.ndarray:
        # numpy converts None (never reached) to NaN.
        return np.array(list(map(attrgetter(name), self._requests)),
                        dtype=np.float64)

    def retries(self) -> np.ndarray:
        """Crash retries per row (read on demand: faulted runs only)."""
        return self._ints("retries")

    def slo_classes(self) -> List[Optional[SLOClass]]:
        """SLO class per row, or an empty list when no request carries
        one (a classless run stops at that check)."""
        if not any(map(attrgetter("slo_class"), self._requests)):
            return []
        return list(map(attrgetter("slo_class"), self._requests))

    def rows_of(self, requests: Sequence[ServingRequest]) -> np.ndarray:
        """The rows of ``requests`` — any of the table's requests,
        repeats kept — as an index array.  Requests compare by identity
        (``ServingRequest`` is ``eq=False``), so rows are found by
        ``id()`` in a sorted index built on first use."""
        if self._ids is None:
            ids = np.fromiter(map(id, self._requests), dtype=np.int64,
                              count=len(self._requests))
            self._id_order = np.argsort(ids, kind="stable")
            self._ids = ids[self._id_order]
        ids = np.fromiter(map(id, requests), dtype=np.int64,
                          count=len(requests))
        found = np.searchsorted(self._ids, ids)
        found[found == len(self._ids)] = 0
        if not np.array_equal(self._ids[found], ids):
            raise ValueError("a request is not a row of this RequestTable")
        return self._id_order[found]

    def done(self, rows: Optional[np.ndarray] = None):
        """Selects the finished rows among ``rows`` (all rows when
        ``None``, as a mask; else an index array, repeats kept)."""
        if rows is None:
            return self.finished
        return rows[self.finished[rows]]

    def fold(self, rows: Optional[np.ndarray] = None) -> RequestFold:
        """Fold ``rows`` (all rows when ``None``) into a
        :class:`RequestFold`.  Each distribution is summarised from a
        fresh selection that is sorted in place and dropped before the
        next, so a fold holds at most two selections at a time."""
        done = self.done(rows)
        everyone = slice(None) if rows is None else rows
        # e2e is finish - arrival of the same rows the makespan reads.
        e2e = self.finish[done]
        arrival = self.arrival[done]
        completed = len(e2e)
        if completed:
            makespan = float(e2e.max()) - float(arrival.min())
        else:
            makespan = 0.0
        e2e -= arrival
        del arrival
        e2e_latency = LatencyStats.from_owned(e2e)
        del e2e
        if rows is None:
            multi_token = done & ~np.isnan(self.tpot)
        else:
            multi_token = done[~np.isnan(self.tpot[done])]
        return RequestFold(
            num_requests=len(self.finished[everyone]),
            completed=completed,
            rejected=int(np.count_nonzero(self.rejected[everyone])),
            failed=int(np.count_nonzero(self.failed[everyone])),
            total_output_tokens=int(self.tokens[done].sum()),
            makespan_s=makespan,
            ttft=LatencyStats.from_owned(self.ttft[done]),
            tpot=LatencyStats.from_owned(self.tpot[multi_token]),
            e2e_latency=e2e_latency,
            queue_wait=LatencyStats.from_owned(self.queue_wait[done]),
        )


def build_report(model: str,
                 requests: Sequence[ServingRequest],
                 devices: List[DeviceStats],
                 preemption_events: Optional[List[PreemptionEvent]] = None,
                 prefix_cache_enabled: bool = False,
                 table: Optional[RequestTable] = None,
                 ) -> ServingReport:
    """Fold per-request outcomes into the aggregate report; queue and
    KV occupancy come from the devices' running summaries.

    ``table`` is the run's :class:`RequestTable` when ``requests`` is a
    part of a larger run (a cluster replica's share), which is then
    folded from its rows.  Without one, ``requests`` are tabled on
    their own."""
    if table is None:
        fold = RequestTable(requests).fold()
    else:
        fold = table.fold(table.rows_of(requests))
    return ServingReport(
        model=model,
        num_requests=fold.num_requests,
        completed=fold.completed,
        rejected=fold.rejected,
        total_output_tokens=fold.total_output_tokens,
        makespan_s=fold.makespan_s,
        ttft=fold.ttft,
        tpot=fold.tpot,
        e2e_latency=fold.e2e_latency,
        queue_wait=fold.queue_wait,
        devices=devices,
        preemption_events=sorted(preemption_events or [],
                                 key=lambda e: e.time_s),
        prefix_cache_enabled=prefix_cache_enabled,
    )
