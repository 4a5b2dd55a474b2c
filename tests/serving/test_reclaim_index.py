"""The run-length prefix groups must behave as one object per block.

``KVBlockManager`` stores each prefix group as counts (blocks, leading
computed blocks, holders' shared lengths) and takes its reclaim victim,
the idle-tailed group with the smallest ``(tick, name)``, from a lazily
invalidated heap, a whole idle tail (or the part a claim needs) at a
time.  These randomized sequences of pins, prefix extensions, private
claims, boundary claims (``claim_one_each``), computed marks and
releases run on two managers side by side: the shipped one, and the
per-block reference of :mod:`tests.serving.kv_reference`, whose reclaim
evicts one block per round from a linear ``min()`` over every group.
After every operation both must return the same result (``PrefixReuse``
included), hold the same per-block ``(refcount, computed)`` view, ticks,
holdings and counters, agree on ``releasable_blocks`` of every holder,
and their victims must come in the same order, expanded per block.  Some
sequences rewind the tick counter, so groups share a tick and the name
decides.
"""

import random

import pytest

from repro.models.workload import Workload
from repro.serving import KVCacheConfig
from repro.serving.kv_manager import KVBlockManager
from repro.serving.request import ServingRequest
from tests.serving.kv_reference import PerBlockManager, block_view

BLOCK_SIZE = 4
# Names whose order differs from the order groups are first used in.
GROUPS = ("m", "c", "x", "a", "q", "f")


class _Logged(KVBlockManager):
    """The shipped manager, logging each reclaimed block as the
    reference does: ``(group, tick, blocks before)``."""

    def __init__(self, config, bytes_per_token):
        super().__init__(config, bytes_per_token)
        self.victims = []
        self._chosen = []

    def _coldest_idle(self):
        name, group = super()._coldest_idle()
        self._chosen.append((name, group.tick, group.blocks, group))
        return name, group

    def _reclaim_for(self, blocks):
        self._chosen = []
        super()._reclaim_for(blocks)
        # A group is chosen at most once per reclaim: it gives up blocks
        # until the claim is met or its idle tail is gone.
        for name, tick, before, group in self._chosen:
            self.victims.extend((name, tick, before - k)
                                for k in range(before - group.blocks))


def _state(manager):
    held = sorted((request_id, holding.private, holding.group,
                   holding.shared)
                  for request_id, holding in manager._held.items())
    releasable = [manager.releasable_blocks(request_id)
                  for request_id, *_ in held]
    return (block_view(manager), held, releasable, manager._tick,
            manager.free_blocks, manager.reclaimable_blocks,
            manager.used_blocks, manager.peak_used_blocks,
            manager.prefix_blocks_created, manager.prefix_blocks_reused,
            manager.prefix_tokens_reused, manager.prefix_cow_copies,
            manager.victims)


def _apply(managers, operation, *args):
    """Run one operation on both managers; they must agree on its result."""
    results = [getattr(manager, operation)(*args) for manager in managers]
    assert results[0] == results[1]
    assert _state(managers[0]) == _state(managers[1])
    return results[0]


def _run_sequence(seed, steps=400, rewind_ticks=False):
    rng = random.Random(seed)
    config = KVCacheConfig(capacity_bytes=float(rng.randint(16, 40)
                                                * BLOCK_SIZE),
                           block_size=BLOCK_SIZE, enable_prefix_cache=True)
    managers = (_Logged(config, 1.0), PerBlockManager(config, 1.0))
    manager = managers[0]
    live = {}               # request id -> prefix group
    next_id = 0
    for _ in range(steps):
        room = manager.free_blocks + manager.reclaimable_blocks
        roll = rng.random()
        if rewind_ticks and roll < 0.05:
            # Rewind the tick counter: the next pins reuse old ticks.
            tick = rng.randint(0, manager._tick)
            for each in managers:
                each._tick = tick
        elif roll < 0.4 or not live:
            # Admit: pin the reusable prefix, create the missing shared
            # blocks and claim a private tail, if it all fits.
            group = rng.choice(GROUPS)
            prefix_len = BLOCK_SIZE * rng.randint(1, 5) \
                + rng.choice((0, 0, 2))
            request = ServingRequest(next_id, Workload(prefix_len + 4, 8),
                                     0.0, prefix_group=group,
                                     prefix_len=prefix_len)
            reuse = _apply(managers, "prefix_reuse", request)
            create = manager.cacheable_blocks(prefix_len) \
                - reuse.reusable_blocks
            private = rng.randint(0, 2)
            if reuse.blocked or create + private > room - reuse.idle_reused:
                continue
            _apply(managers, "pin_prefix", request)
            _apply(managers, "extend_prefix", request)
            if private:
                _apply(managers, "claim", next_id, private)
            if rng.random() < 0.8:
                _apply(managers, "mark_prefix_computed", group,
                       prefix_len if rng.random() < 0.7
                       else rng.randint(0, prefix_len))
            live[next_id] = group
            next_id += 1
        elif roll < 0.55:
            request_id = rng.choice(sorted(live))
            blocks = rng.randint(1, 3)
            if blocks <= room:
                _apply(managers, "claim", request_id, blocks)
        elif roll < 0.75:
            crossing = rng.sample(sorted(live),
                                  rng.randint(1, min(4, len(live))))
            _apply(managers, "claim_one_each", crossing)
        elif roll < 0.8:
            group = rng.choice(GROUPS)
            _apply(managers, "mark_prefix_computed", group,
                   BLOCK_SIZE * rng.randint(0, 5))
        else:
            request_id = rng.choice(sorted(live))
            del live[request_id]
            _apply(managers, "release", request_id)
    return len(manager.victims), managers[1].tied_evictions


@pytest.mark.parametrize("seed", range(40))
def test_manager_matches_per_block_reference(seed):
    victims, _ = _run_sequence(seed)
    assert victims


def test_manager_matches_per_block_reference_with_tick_ties():
    tied = 0
    for seed in range(20):
        victims, ties = _run_sequence(1000 + seed, rewind_ticks=True)
        assert victims
        tied += ties
    # Some victims were chosen among groups sharing the smallest tick.
    assert tied >= 10


def test_claim_one_each_reclaims_only_what_free_blocks_lack():
    """A boundary claim short of free blocks evicts the difference,
    coldest group first; one that even idle blocks cannot cover changes
    nothing."""
    config = KVCacheConfig(capacity_bytes=float(8 * BLOCK_SIZE),
                           block_size=BLOCK_SIZE, enable_prefix_cache=True)
    manager = _Logged(config, 1.0)
    for request_id, group in enumerate(("b", "a")):
        request = ServingRequest(request_id, Workload(12, 8), 0.0,
                                 prefix_group=group, prefix_len=8)
        manager.pin_prefix(request)
        manager.extend_prefix(request)
        manager.mark_prefix_computed(group, 8)
        manager.release(request_id)
    manager.claim(7, 1)
    manager.claim(8, 1)
    manager.claim(9, 1)
    # 1 free block and 4 idle ones (2 in "b", pinned first, so colder).
    assert (manager.free_blocks, manager.reclaimable_blocks) == (1, 4)
    assert manager.claim_one_each([7, 8, 9])
    assert manager.victims == [("b", 1, 2), ("b", 1, 1)]
    assert "b" not in manager._groups
    assert (manager.free_blocks, manager.reclaimable_blocks) == (0, 2)
    assert not manager.claim_one_each([7, 8, 9])
    assert (manager.free_blocks, manager.reclaimable_blocks) == (0, 2)
    assert manager.blocks_held(7) == 2


def test_index_stays_bounded_without_reclaims():
    """A pool that never reclaims still drops stale index entries, so the
    index stays O(groups) however many pins and releases it sees."""
    config = KVCacheConfig(capacity_bytes=float(64 * BLOCK_SIZE),
                           block_size=BLOCK_SIZE, enable_prefix_cache=True)
    manager = _Logged(config, 1.0)
    for request_id in range(2000):
        group = GROUPS[request_id % 3]
        request = ServingRequest(request_id, Workload(12, 8), 0.0,
                                 prefix_group=group, prefix_len=8)
        manager.pin_prefix(request)
        manager.extend_prefix(request)
        manager.mark_prefix_computed(group, 8)
        manager.release(request_id)
    assert not manager.victims
    assert len(manager._idle_index) <= 2 * len(manager._groups) + 16
