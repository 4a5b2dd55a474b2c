"""Block-based KV-cache memory manager for the serving engine.

The paper's host runtime (Section 2) owns KV-cache management while the
accelerator executes one transformer block at a time; ``InferenceSession``
models the KV *cost* of that split but nothing in PR 1 made KV capacity a
scheduling constraint — a device could "hold" unbounded cache.  This module
closes that gap with a vLLM-style paged allocator: device KV memory is carved
into fixed-size blocks of ``block_size`` token slots each, every resident
request holds the blocks covering its prompt plus the tokens generated so
far, and the scheduler/engine consult the manager before admitting a request
(blocks for the whole prompt must be available) or growing a decode (a step
that crosses a block boundary claims one more block).

Capacity is a byte budget, ``--kv-capacity-mb`` on the CLI.  When the
device runs out of blocks the engine preempts a running request (victim
chosen by the configured :mod:`~repro.serving.policies.preemption` policy)
— its blocks are freed instantly and the request is requeued for full KV
recomputation on re-admission (generated tokens become prompt; there is no
swap device in this model, so preemption is recompute-only).  High/low
watermark hysteresis keeps the system out of the thrash zone: once
utilisation touches the high watermark the engine frees down to the low
watermark and admission stays closed until utilisation is back below it.

**Prefix caching** (``enable_prefix_cache``): requests that declare a
``prefix_group`` share ref-counted blocks for the full blocks of their
common prompt prefix, keyed ``(group, block_index)`` — the hash-based block
identity of vLLM's automatic prefix caching, with the group name standing in
for the content hash (prompts are lengths here, not token ids).  The block
lifecycle:

* the first request of a group *creates* the shared blocks (refcount 1,
  ``computed`` false) and marks them computed as its prefill advances;
* followers *reuse* computed blocks — refcount incremented, **no new
  allocation**, and their prefill skips the cached positions entirely
  (:meth:`~repro.runtime.session.ActiveRequest.skip_prefix`), which is where
  the throughput/TTFT win comes from.  A follower whose group is still being
  prefilled waits (the scheduler defers its admission) rather than sharing
  rows that do not exist yet;
* divergence is copy-on-write: only *full* prefix blocks are shared — the
  partial last block (``prefix_len % block_size``) and everything past the
  prefix live in the request's private blocks, so a follower's divergent
  continuation never mutates shared state;
* on release, shared blocks are decref'd; computed blocks with refcount 0
  stay cached ("idle") and are reclaimed least-recently-used when a claim
  needs the space, while never-computed blocks are dropped immediately.

A group is stored as run lengths, not per block: its block count, the
count of its leading computed blocks and the shared length of each
holder.  Every holder holds a leading run of the group's blocks, so the
refcount of block ``j`` is the number of holders longer than ``j``, and
the idle blocks are the tail beyond the longest holder, all of them
computed.  Each query and mutation is arithmetic on these counts:
O(holders) per call and per group, whatever the prefix length, and a
reclaim takes a whole idle tail (or the part of it a claim needs) in
one step.

Idle cached blocks are *reclaimable free space*: they are excluded from
``utilization`` (they gate neither watermark), claims evict them on demand,
and the cache therefore can never cause a preemption.  With the flag off —
the default — no code path touches the registry and the manager is
byte-identical to the PR 2 allocator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # circular at runtime: request -> session only
    from repro.serving.request import ServingRequest


class KVCacheExhausted(RuntimeError):
    """Raised when a block claim exceeds the device's free blocks.

    The engine is expected to *prevent* this by preempting; seeing it escape
    means the capacity-aware scheduler and the manager disagree.
    """


@dataclass(frozen=True)
class KVCacheConfig:
    """Sizing and policy knobs of the per-device KV-cache pool.

    Attributes:
        capacity_bytes: Device bytes reserved for KV cache.
        block_size: Token slots per block (the paging granularity).
        high_watermark: Utilisation fraction that triggers preemption.
        low_watermark: Utilisation fraction preemption frees down to; while
            the pool is pressured, admission stays closed until utilisation
            is back below this mark (hysteresis).
        enable_prefix_cache: Share ref-counted blocks across requests of the
            same ``prefix_group`` and skip prefill for cached positions.
            Off by default — the PR 2 allocator exactly.
    """

    capacity_bytes: float
    block_size: int = 16
    high_watermark: float = 0.95
    low_watermark: float = 0.80
    enable_prefix_cache: bool = False

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("kv capacity_bytes must be positive")
        if self.block_size < 1:
            raise ValueError("kv block_size must be at least 1")
        if not 0.0 < self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 < low <= high <= 1, got "
                f"low={self.low_watermark}, high={self.high_watermark}")

    @property
    def capacity_mb(self) -> float:
        """The byte capacity as megabytes (the CLI-facing unit)."""
        return self.capacity_bytes / 1e6

    @classmethod
    def from_capacity_mb(cls, capacity_mb: float,
                         block_size: int = 16,
                         high_watermark: float = 0.95,
                         low_watermark: float = 0.80,
                         enable_prefix_cache: bool = False) -> "KVCacheConfig":
        """Build from a megabyte budget (the ``--kv-capacity-mb`` flag)."""
        return cls(capacity_bytes=capacity_mb * 1e6, block_size=block_size,
                   high_watermark=high_watermark, low_watermark=low_watermark,
                   enable_prefix_cache=enable_prefix_cache)

    def manager_for(self, bytes_per_token: float) -> "KVBlockManager":
        """A fresh per-device manager for a model with this KV row size."""
        return KVBlockManager(self, bytes_per_token)


@dataclass(slots=True)
class _PrefixGroup:
    """One prefix group's shared blocks, as run lengths.

    Block ``i`` holds token rows ``[i * block_size, (i + 1) * block_size)``
    of the group's common prefix.  The run is contiguous from 0 by
    construction: blocks are created in order and evicted from the tail.
    ``computed`` counts the leading blocks whose rows exist (followers may
    reuse only those); the rest were created by a prefill still running.
    ``holders`` lists each holding request's shared length (every holding
    is a leading run), so block ``j``'s refcount is the number of holders
    longer than ``j``; ``longest`` is the largest of them (0 with none).
    Blocks ``[longest, blocks)`` are the idle tail, and every one of them
    is computed: a never-computed block is dropped as its last holder
    leaves.  ``tick`` is the LRU stamp (last attach), so reclamation drops
    the coldest group's tail blocks first.  Every pin draws a fresh tick
    from the pool's counter.
    """

    blocks: int = 0
    computed: int = 0
    holders: List[int] = field(default_factory=list)
    longest: int = 0
    tick: int = 0

    @property
    def idle_tail(self) -> bool:
        """Whether the tail block is idle, so a reclaim may evict it."""
        return self.blocks > self.longest


@dataclass
class _Holding:
    """What one request holds: private blocks plus leading shared blocks."""

    private: int = 0
    group: Optional[str] = None
    shared: int = 0

    @property
    def total(self) -> int:
        return self.private + self.shared


def split_kv_stream(kv_bytes: float, num_layers: int,
                    chunks: int) -> Tuple[float, ...]:
    """Split a migration payload into layer-granular stream chunks.

    Layers are divided as evenly as possible across at most
    ``min(chunks, num_layers)`` chunks (a chunk cannot be finer than one
    layer), and each chunk carries bytes proportional to its layer span.
    The last chunk is the remainder, so the tuple sums to ``kv_bytes``
    exactly; a zero-byte payload collapses to a single immediate chunk.
    """
    if num_layers < 1:
        raise ValueError("a KV stream needs at least one layer")
    if chunks < 1:
        raise ValueError("a KV stream needs at least one chunk")
    chunks = min(chunks, num_layers)
    if chunks == 1 or kv_bytes <= 0:
        return (kv_bytes,)
    base, extra = divmod(num_layers, chunks)
    sizes: List[float] = []
    shipped = 0.0
    for index in range(chunks - 1):
        span = base + (1 if index < extra else 0)
        size = kv_bytes * span / num_layers
        sizes.append(size)
        shipped += size
    sizes.append(kv_bytes - shipped)
    return tuple(sizes)


@dataclass(frozen=True)
class KVExport:
    """A request's KV state leaving one device's pool for another.

    The receipt of a disaggregated hand-off: ``kv_tokens`` rows were
    resident when the request left (the payload the interconnect must move;
    the cluster prices it at ``kv_tokens * bytes_per_token`` over the
    configured transfer bandwidth) and ``blocks_freed`` blocks stopped
    being charged to the request on the source pool.  ``chunk_bytes`` is
    the layer-granular stream split when the hand-off is streamed
    (``kv_stream_chunks > 1``); empty for a monolithic transfer.
    """

    request_id: int
    kv_tokens: int
    blocks_freed: int
    chunk_bytes: Tuple[float, ...] = ()


@dataclass(frozen=True)
class PrefixReuse:
    """What the cache can do for one request's admission right now.

    ``blocked`` means the reusable range is still being prefilled by its
    creating request — admission should wait for the rows to exist rather
    than duplicate the work.  Otherwise ``reusable_blocks`` existing blocks
    can be referenced without allocation (``idle_reused`` of them currently
    sit unreferenced in the reclaimable pool) and ``cached_tokens`` prompt
    positions can skip prefill entirely.
    """

    cached_tokens: int = 0
    reusable_blocks: int = 0
    idle_reused: int = 0
    blocked: bool = False


class KVBlockManager:
    """Tracks block ownership for one device's KV-cache pool.

    Pure bookkeeping: the scheduler asks what fits, the engine applies the
    claims/releases it decided on.  All state is integers, so two runs over
    the same trace make byte-identical decisions.
    """

    def __init__(self, config: KVCacheConfig, bytes_per_token: float) -> None:
        if bytes_per_token <= 0:
            raise ValueError("bytes_per_token must be positive")
        self.config = config
        self.bytes_per_token = bytes_per_token
        self.block_bytes = config.block_size * bytes_per_token
        self.num_blocks = int(config.capacity_bytes // self.block_bytes)
        if self.num_blocks < 1:
            raise ValueError(
                f"kv capacity {config.capacity_bytes:.0f} B holds no "
                f"{config.block_size}-token block "
                f"({self.block_bytes:.0f} B each)")
        self._held: Dict[int, _Holding] = {}
        self._groups: Dict[str, _PrefixGroup] = {}
        # Reclaim order: a heap of (tick, name) holding an entry for every
        # group whose tail block is idle, at its current tick.  Entries go
        # stale when the group is pinned again, its tail is referenced or
        # evicted, or it is dropped; they are discarded when they surface
        # (see _coldest_idle) or when the heap is rebuilt.
        self._idle_index: List[Tuple[int, str]] = []
        self._tick = 0
        self.used_blocks = 0
        self.peak_used_blocks = 0
        self._idle_blocks = 0
        self._pressured = False
        # Prefix-cache lifetime counters (all 0 with the cache off).
        self.prefix_blocks_created = 0
        self.prefix_blocks_reused = 0
        self.prefix_tokens_reused = 0
        self.prefix_cow_copies = 0
        # Disaggregation hand-off counters (all 0 on a unified engine).
        self.kv_exports = 0
        self.kv_imports = 0
        self.blocks_exported = 0
        self.blocks_imported = 0

    # ------------------------------------------------------------------
    # Queries (used by the scheduler while planning)
    # ------------------------------------------------------------------
    @property
    def prefix_cache_enabled(self) -> bool:
        """Whether shared prefix-block reuse is configured on this pool."""
        return self.config.enable_prefix_cache

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` KV rows."""
        if tokens <= 0:
            return 0
        return math.ceil(tokens / self.config.block_size)

    def blocks_held(self, request_id: int) -> int:
        """Blocks currently charged to the request (shared ones included)."""
        holding = self._held.get(request_id)
        return holding.total if holding is not None else 0

    def releasable_blocks(self, request_id: int) -> int:
        """Blocks a :meth:`release` of this request would stop charging it
        for: its private blocks plus shared prefix blocks it is the *last*
        holder of.  Shared blocks still referenced by other group members
        stay held and free nothing — this is the footprint a preemption
        policy should rank victims by, not :meth:`blocks_held`."""
        holding = self._held.get(request_id)
        if holding is None:
            return 0
        freed = holding.private
        shared = holding.shared
        if shared:
            group = self._groups.get(holding.group)
            if group is not None and shared == group.longest:
                # Blocks [next, shared) have this request as their only
                # holder, where next is the longest *other* holding.
                others = list(group.holders)
                others.remove(shared)
                freed += shared - max(others, default=0)
        return freed

    @property
    def free_blocks(self) -> int:
        """Blocks neither held by a request nor retained in the cache."""
        return self.num_blocks - self.used_blocks - self._idle_blocks

    @property
    def reclaimable_blocks(self) -> int:
        """Idle cached blocks a claim may reclaim on demand (0 without
        prefix caching) — free space for scheduling purposes."""
        return self._idle_blocks

    @property
    def utilization(self) -> float:
        """Held-block occupancy; idle cache is reclaimable, so it gates
        neither watermark."""
        return self.used_blocks / self.num_blocks

    def within_high_watermark(self, extra_blocks: int) -> bool:
        """Would holding ``extra_blocks`` more stay at/below the high mark?"""
        return (self.used_blocks + extra_blocks) \
            <= self.config.high_watermark * self.num_blocks

    @property
    def admission_blocked(self) -> bool:
        """Hysteresis gate: once pressured, admission stays closed until
        utilisation falls back to the low watermark.

        A pure read — the scheduler may consult it mid-planning without
        side effects.  The engine acknowledges recovery explicitly via
        :meth:`refresh_pressure` at step boundaries.
        """
        return self._pressured \
            and self.utilization > self.config.low_watermark

    def mark_pressure(self) -> None:
        """Note that the pool hit the high watermark (or hard exhaustion)."""
        self._pressured = True

    def refresh_pressure(self) -> None:
        """Drop the pressure flag once utilisation recovered to the low
        watermark, so a later climb back above it (without a new high-
        watermark crossing) does not re-close admission."""
        if self._pressured \
                and self.utilization <= self.config.low_watermark:
            self._pressured = False

    # ------------------------------------------------------------------
    # Prefix-cache queries and lifecycle
    # ------------------------------------------------------------------
    def cacheable_blocks(self, prefix_len: int) -> int:
        """Only *full* blocks of the shared prefix are cacheable; the
        partial tail is private (copy-on-write divergence point).  0 for a
        prefix shorter than one block — such requests have nothing to share
        and take the plain private-block path."""
        return prefix_len // self.config.block_size

    def prefix_reuse(self, request: "ServingRequest") -> PrefixReuse:
        """What the cache offers this request's admission (pure query)."""
        if not self.prefix_cache_enabled or not request.shareable_prefix:
            return PrefixReuse()
        group = self._groups.get(request.prefix_group)
        reusable = idle = 0
        if group is not None:
            reusable = min(group.blocks,
                           self.cacheable_blocks(request.prefix_len))
            if group.computed < reusable:
                return PrefixReuse(blocked=True)
            if reusable > group.longest:
                idle = reusable - group.longest
        cached_tokens = min(reusable * self.config.block_size,
                            request.workload.input_len - 1)
        return PrefixReuse(cached_tokens=cached_tokens,
                           reusable_blocks=reusable, idle_reused=idle)

    def pin_prefix(self, request: "ServingRequest") -> PrefixReuse:
        """Reference the request's reusable prefix blocks (no allocation).

        The engine pins every admission of a step *before* applying any
        block claims, so on-demand reclamation of idle cache can never evict
        a block another admission in the same plan is about to reuse.
        """
        reuse = self.prefix_reuse(request)
        if reuse.blocked:
            raise RuntimeError("pinning a prefix that is still computing")
        if request.request_id in self._held:
            raise ValueError(
                f"request {request.request_id} already holds blocks")
        if self.cacheable_blocks(request.prefix_len) == 0:
            # A sub-block prefix has no full block to share: hold privately
            # and never register group membership (an empty group would be
            # garbage-collected under another member's release).
            self._held[request.request_id] = _Holding()
            return reuse
        reusable = reuse.reusable_blocks
        self._held[request.request_id] = _Holding(
            group=request.prefix_group, shared=reusable)
        group = self._groups.get(request.prefix_group)
        if group is None:
            group = self._groups[request.prefix_group] = _PrefixGroup()
        self._tick += 1
        group.tick = self._tick
        if reusable:
            group.holders.append(reusable)
            if reusable > group.longest:
                # Idle blocks [longest, reusable) are referenced again.
                woken = reusable - group.longest
                self._idle_blocks -= woken
                self.used_blocks += woken
                group.longest = reusable
        self._index_idle(request.prefix_group, group)
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)
        self.prefix_blocks_reused += reuse.reusable_blocks
        self.prefix_tokens_reused += reuse.cached_tokens
        if reuse.reusable_blocks and \
                request.prefix_len % self.config.block_size:
            # The request's prefix ends mid-block: the partial block cannot
            # be shared, so its rows are written to a private copy.
            self.prefix_cow_copies += 1
        return reuse

    def extend_prefix(self, request: "ServingRequest") -> int:
        """Create the group's missing shared blocks this request will fill.

        Returns the blocks allocated (0 when the group already covers the
        request's cacheable prefix).  New blocks start uncomputed; the
        engine marks them computed as the request's prefill advances.
        """
        holding = self._held.get(request.request_id)
        if holding is None:
            raise ValueError(
                f"request {request.request_id} has no pinned prefix")
        if holding.group is None:
            # Pinned as a sub-block prefix: nothing cacheable to create.
            return 0
        if holding.group != request.prefix_group:
            raise ValueError(
                f"request {request.request_id} pinned group "
                f"{holding.group!r}, not {request.prefix_group!r}")
        group = self._groups[request.prefix_group]
        to_create = self.cacheable_blocks(request.prefix_len) - group.blocks
        if to_create <= 0:
            return 0
        if holding.shared != group.blocks:
            # A holding is a leading run: new tail blocks extend only one
            # that covers the whole group (the scheduler plans at most one
            # admission per group and step, so a pin precedes each).
            raise RuntimeError(
                f"request {request.request_id} holds {holding.shared} of "
                f"group {request.prefix_group!r}'s {group.blocks} blocks")
        self._reclaim_for(to_create)
        if holding.shared:
            group.holders.remove(holding.shared)
        holding.shared += to_create
        group.holders.append(holding.shared)
        group.blocks = group.longest = holding.shared
        self.used_blocks += to_create
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)
        self.prefix_blocks_created += to_create
        return to_create

    def mark_prefix_computed(self, group_name: str, tokens: int) -> None:
        """Record that the group's first ``tokens`` prefix positions have
        been streamed through the accelerator; their full blocks become
        reusable by followers."""
        group = self._groups.get(group_name)
        if group is None:
            return
        done = min(tokens // self.config.block_size, group.blocks)
        if done > group.computed:
            group.computed = done

    def _reclaim_for(self, blocks: int) -> None:
        """Make room for ``blocks`` new allocations, reclaiming idle cached
        blocks coldest-group-first (tail blocks only, which keeps every
        group's run contiguous — held blocks are always a leading run).

        Evicting one block at a time would take the coldest group's tail
        blocks back to back, since nothing re-stamps that group while its
        idle tail lasts; so each victim gives up what is still needed, or
        its whole idle tail, in one step."""
        if blocks > self.free_blocks + self._idle_blocks:
            raise KVCacheExhausted(
                f"need {blocks} blocks but only {self.free_blocks} free + "
                f"{self._idle_blocks} reclaimable of {self.num_blocks}")
        need = blocks - self.free_blocks
        while need > 0:
            name, group = self._coldest_idle()
            if group.computed < group.blocks:
                raise RuntimeError("uncomputed block retained as idle")
            taken = min(need, group.blocks - group.longest)
            group.blocks -= taken
            group.computed = group.blocks
            self._idle_blocks -= taken
            need -= taken
            if not group.blocks:
                del self._groups[name]

    def _coldest_idle(self) -> Tuple[str, _PrefixGroup]:
        """The idle-tailed group with the smallest ``(tick, name)``, the
        next reclaim victim; stale index entries above it are dropped."""
        index = self._idle_index
        groups = self._groups
        while True:
            tick, name = index[0]
            group = groups.get(name)
            if group is not None and group.tick == tick and group.idle_tail:
                return name, group
            heapq.heappop(index)

    def _index_idle(self, name: str, group: _PrefixGroup) -> None:
        """Enter ``group`` in the reclaim index if its tail block is idle.
        Called wherever a group's tail may turn idle or its tick moves; the
        index is rebuilt from the live groups once stale entries outnumber
        them, so it stays O(groups)."""
        if not group.idle_tail:
            return
        index = self._idle_index
        heapq.heappush(index, (group.tick, name))
        if len(index) > 2 * len(self._groups) + 16:
            index[:] = [(live.tick, live_name)
                        for live_name, live in self._groups.items()
                        if live.idle_tail]
            heapq.heapify(index)

    # ------------------------------------------------------------------
    # Mutations (applied by the engine)
    # ------------------------------------------------------------------
    def claim(self, request_id: int, blocks: int) -> None:
        """Give ``blocks`` more private blocks to ``request_id``."""
        if blocks < 0:
            raise ValueError("cannot claim a negative block count")
        if blocks == 0:
            return
        if blocks > self.free_blocks + self._idle_blocks:
            raise KVCacheExhausted(
                f"request {request_id} needs {blocks} blocks but only "
                f"{self.free_blocks + self._idle_blocks}/{self.num_blocks} "
                f"are free")
        self._reclaim_for(blocks)
        holding = self._held.setdefault(request_id, _Holding())
        holding.private += blocks
        self.used_blocks += blocks
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)

    def claim_one_each(self, request_ids: Sequence[int]) -> bool:
        """Give each listed request one more private block, but only if
        all of them fit in free plus reclaimable blocks; returns whether
        it claimed.

        This is the claim of decodes crossing a block boundary together.
        When the free blocks fall short it reclaims idle cached blocks
        coldest group first, the same evictions one :meth:`claim` per
        request makes.  When even free plus reclaimable blocks fall short,
        nothing changes and the caller plans the step (which preempts).
        """
        count = len(request_ids)
        if count > self.free_blocks + self._idle_blocks:
            return False
        self._reclaim_for(count)
        held = self._held
        for request_id in request_ids:
            # A decoding resident always holds blocks already.
            held[request_id].private += 1
        self.used_blocks += count
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)
        return True

    def release(self, request_id: int) -> int:
        """Free every block the request holds; returns the count no longer
        charged to it (shared blocks still referenced by others are not
        counted — they remain held elsewhere).

        Shared blocks whose refcount drops to 0 stay cached if computed
        (idle, reclaimable on demand) and are dropped outright if their
        content was never computed — there is nothing to reuse.
        """
        holding = self._held.pop(request_id, None)
        if holding is None:
            return 0
        freed = holding.private
        self.used_blocks -= holding.private
        shared = holding.shared
        group = self._groups.get(holding.group) if shared else None
        if group is not None:
            holders = group.holders
            holders.remove(shared)
            longest = max(holders, default=0)
            if longest < group.longest:
                # Blocks [longest, old longest) lost their last holder:
                # the computed ones join the idle tail, the rest (never
                # computed, so the tail of the run) are dropped.
                unheld = group.longest - longest
                self.used_blocks -= unheld
                freed += unheld
                idle_before = group.blocks - group.longest
                group.blocks = max(longest, group.computed)
                group.longest = longest
                self._idle_blocks += group.blocks - longest - idle_before
                if not group.blocks:
                    del self._groups[holding.group]
                else:
                    self._index_idle(holding.group, group)
        return freed

    # ------------------------------------------------------------------
    # Disaggregation hand-off (export on the prefill pool, import on the
    # decode pool)
    # ------------------------------------------------------------------
    def export_kv(self, request_id: int, kv_tokens: int,
                  kv_bytes: float = 0.0, num_layers: int = 1,
                  chunks: int = 1) -> KVExport:
        """Release a request's blocks because its KV state is *leaving*
        this device — a disaggregated hand-off, not a completion.

        Block-accounting-wise this is :meth:`release` (shared prefix
        references are decref'd the same way); the distinct entry point
        records the migration traffic and returns the :class:`KVExport`
        receipt the cluster prices the transfer from.

        When ``chunks > 1`` the receipt carries ``chunk_bytes`` — the
        migration payload divided over at most ``min(chunks, num_layers)``
        layer-aligned chunks — so the cluster can price and land each
        chunk as its own transfer event instead of one monolithic landing.
        """
        if kv_tokens < 0:
            raise ValueError("cannot export a negative KV row count")
        freed = self.release(request_id)
        self.kv_exports += 1
        self.blocks_exported += freed
        chunk_bytes: Tuple[float, ...] = ()
        if chunks > 1:
            split = split_kv_stream(kv_bytes, num_layers, chunks)
            if len(split) > 1:
                chunk_bytes = split
        return KVExport(request_id=request_id, kv_tokens=kv_tokens,
                        blocks_freed=freed, chunk_bytes=chunk_bytes)

    def import_kv(self, request_id: int, blocks: int) -> None:
        """Charge ``blocks`` to ``request_id`` for KV rows that arrived
        from another device (the receiving half of a hand-off).

        The blocks come out of this pool exactly like a :meth:`claim` —
        imported KV occupies real capacity — but are tallied as migration
        traffic instead of locally computed state.
        """
        self.claim(request_id, blocks)
        self.kv_imports += 1
        self.blocks_imported += blocks

    def reset(self) -> None:
        """Forget all ownership and cache state (a fresh run on the same
        device)."""
        self._held.clear()
        self._groups.clear()
        self._idle_index.clear()
        self._tick = 0
        self.used_blocks = 0
        self.peak_used_blocks = 0
        self._idle_blocks = 0
        self._pressured = False
        self.prefix_blocks_created = 0
        self.prefix_blocks_reused = 0
        self.prefix_tokens_reused = 0
        self.prefix_cow_copies = 0
        self.kv_exports = 0
        self.kv_imports = 0
        self.blocks_exported = 0
        self.blocks_imported = 0
