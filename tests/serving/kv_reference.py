"""A per-block reference for the run-length prefix groups of
:class:`~repro.serving.kv_manager.KVBlockManager`, and the per-block
view the tests compare pools by.

The shipped manager stores a prefix group as counts: its block count,
its leading computed blocks and its holders' shared lengths.  The
reference below stores what those counts stand for, one ref-counted
object per shared block, as the manager did before: pins and releases
walk a holder's blocks, and a reclaim evicts one tail block per round
from the idle-tailed group with the smallest ``(tick, name)``, found by
a linear ``min()``.  Everything outside the prefix groups (holdings,
private claims, counters, watermarks) is the shipped code, inherited.
"""

from dataclasses import dataclass, field
from typing import List

from repro.serving.kv_manager import (
    KVBlockManager,
    KVCacheExhausted,
    PrefixReuse,
    _Holding,
)


@dataclass
class _Block:
    refcount: int = 0
    computed: bool = False


@dataclass
class _BlockGroup:
    blocks: List[_Block] = field(default_factory=list)
    tick: int = 0


class PerBlockManager(KVBlockManager):
    """The manager with one object per shared prefix block."""

    def __init__(self, config, bytes_per_token):
        super().__init__(config, bytes_per_token)
        self.victims = []       # (group, tick, blocks before) per block
        self.tied_evictions = 0  # victims chosen among equal ticks

    def releasable_blocks(self, request_id):
        holding = self._held.get(request_id)
        if holding is None:
            return 0
        freed = holding.private
        group = self._groups.get(holding.group) \
            if holding.group is not None else None
        if group is not None:
            freed += sum(1 for block in group.blocks[:holding.shared]
                         if block.refcount == 1)
        return freed

    def prefix_reuse(self, request):
        if not self.prefix_cache_enabled or not request.shareable_prefix:
            return PrefixReuse()
        target = self.cacheable_blocks(request.prefix_len)
        group = self._groups.get(request.prefix_group)
        blocks = group.blocks if group is not None else []
        reusable = min(len(blocks), target)
        if any(not block.computed for block in blocks[:reusable]):
            return PrefixReuse(blocked=True)
        cached_tokens = min(reusable * self.config.block_size,
                            request.workload.input_len - 1)
        idle = sum(1 for block in blocks[:reusable] if block.refcount == 0)
        return PrefixReuse(cached_tokens=cached_tokens,
                           reusable_blocks=reusable, idle_reused=idle)

    def pin_prefix(self, request):
        reuse = self.prefix_reuse(request)
        if reuse.blocked:
            raise RuntimeError("pinning a prefix that is still computing")
        if request.request_id in self._held:
            raise ValueError(
                f"request {request.request_id} already holds blocks")
        if self.cacheable_blocks(request.prefix_len) == 0:
            self._held[request.request_id] = _Holding()
            return reuse
        self._held[request.request_id] = _Holding(
            group=request.prefix_group, shared=reuse.reusable_blocks)
        group = self._groups.setdefault(request.prefix_group, _BlockGroup())
        self._tick += 1
        group.tick = self._tick
        for block in group.blocks[:reuse.reusable_blocks]:
            if block.refcount == 0:
                self._idle_blocks -= 1
                self.used_blocks += 1
            block.refcount += 1
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)
        self.prefix_blocks_reused += reuse.reusable_blocks
        self.prefix_tokens_reused += reuse.cached_tokens
        if reuse.reusable_blocks and \
                request.prefix_len % self.config.block_size:
            self.prefix_cow_copies += 1
        return reuse

    def extend_prefix(self, request):
        holding = self._held.get(request.request_id)
        if holding is None:
            raise ValueError(
                f"request {request.request_id} has no pinned prefix")
        if holding.group is None:
            return 0
        group = self._groups[request.prefix_group]
        to_create = self.cacheable_blocks(request.prefix_len) \
            - len(group.blocks)
        if to_create <= 0:
            return 0
        self._reclaim_for(to_create)
        group.blocks.extend(_Block(refcount=1) for _ in range(to_create))
        holding.shared += to_create
        self.used_blocks += to_create
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)
        self.prefix_blocks_created += to_create
        return to_create

    def mark_prefix_computed(self, group_name, tokens):
        group = self._groups.get(group_name)
        if group is None:
            return
        for block in group.blocks[:tokens // self.config.block_size]:
            block.computed = True

    def _reclaim_for(self, blocks):
        if blocks > self.free_blocks + self._idle_blocks:
            raise KVCacheExhausted("reference pool exhausted")
        while self.free_blocks < blocks:
            candidates = [(name, group)
                          for name, group in self._groups.items()
                          if group.blocks and group.blocks[-1].refcount == 0]
            name, group = min(candidates,
                              key=lambda item: (item[1].tick, item[0]))
            self.tied_evictions += sum(
                other.tick == group.tick for _, other in candidates) > 1
            self.victims.append((name, group.tick, len(group.blocks)))
            evicted = group.blocks.pop()
            if not evicted.computed:
                raise RuntimeError("uncomputed block retained as idle")
            self._idle_blocks -= 1
            if not group.blocks:
                del self._groups[name]

    def release(self, request_id):
        holding = self._held.pop(request_id, None)
        if holding is None:
            return 0
        freed = holding.private
        self.used_blocks -= holding.private
        group = self._groups.get(holding.group) \
            if holding.group is not None else None
        if group is not None:
            for block in group.blocks[:holding.shared]:
                block.refcount -= 1
                if block.refcount == 0:
                    self.used_blocks -= 1
                    freed += 1
                    if block.computed:
                        self._idle_blocks += 1
            while group.blocks and group.blocks[-1].refcount == 0 \
                    and not group.blocks[-1].computed:
                group.blocks.pop()
            if not group.blocks:
                del self._groups[holding.group]
        return freed


def block_view(manager):
    """Each prefix group as ``(name, tick, [(refcount, computed), ...])``,
    sorted by name: read off the reference's block objects, or expanded
    from the shipped manager's run lengths (block ``j``'s refcount is the
    number of holders longer than ``j``)."""
    view = []
    for name, group in manager._groups.items():
        if isinstance(group.blocks, list):
            blocks = [(block.refcount, block.computed)
                      for block in group.blocks]
        else:
            blocks = [(sum(1 for shared in group.holders if shared > j),
                       j < group.computed) for j in range(group.blocks)]
        view.append((name, group.tick, blocks))
    return sorted(view)
