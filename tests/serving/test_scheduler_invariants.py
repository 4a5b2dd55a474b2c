"""Randomized invariant sweep over the continuous-batching scheduler.

~200 seeded random configurations/traces drive the scheduler with zero-cost
timing (no performance model — pure planning), asserting on every single
:class:`StepPlan`:

* the token budget is respected (the one documented exception: a dedicated
  step for an unchunked prompt longer than the whole budget);
* the batch never exceeds ``max_batch_size``;
* a finished request is never scheduled;
* admission is FIFO (waiting-queue order, no overtaking) and starvation-free
  — every trace drains within a bounded number of steps;
* with a KV manager: claims never exceed the free pool and block accounting
  stays consistent.

Everything is seeded `random.Random`, so a failure reproduces exactly.
"""

import random
from collections import deque

from repro.runtime.session import ActiveRequest, StepTotals
from repro.serving.kv_manager import KVCacheConfig
from repro.serving.request import RequestState, ServingRequest
from repro.serving.scheduler import ContinuousBatchingScheduler, SchedulerConfig
from repro.models.workload import Workload

NUM_CASES = 200
MAX_STEPS = 5_000   # far above any legitimate drain time for these traces


def random_case(rng: random.Random):
    config = SchedulerConfig(
        max_batch_size=rng.randint(1, 6),
        token_budget=rng.choice([4, 8, 16, 32, 64]),
        chunked_prefill=rng.random() < 0.5,
    )
    requests = [
        ServingRequest(i, Workload(rng.randint(1, 48), rng.randint(1, 12)), 0.0)
        for i in range(rng.randint(1, 10))
    ]
    manager = None
    if rng.random() < 0.5:
        # Provably ample pool: one block of slack per request plus one spare
        # covers every ceil() in blocks_for even if all requests were
        # resident at once, so the capacity-aware path runs but nothing can
        # starve and the sweep needs no preemption loop.
        block_size = rng.choice([4, 8, 16])
        total = sum(r.workload.total_tokens for r in requests)
        config_kv = KVCacheConfig(
            capacity_bytes=float(total + (len(requests) + 1) * block_size),
            block_size=block_size,
            high_watermark=1.0, low_watermark=1.0)
        manager = config_kv.manager_for(bytes_per_token=1.0)
    return config, requests, manager


def scheduled(plan):
    """Every slice of the plan in execution order, decodes spelled out as
    the ``StepWork`` they stand for."""
    return [(request, request.active.next_work())
            for request in plan.decodes] + plan.entries


def check_plan(plan, config, waiting_before, manager, free_before):
    slices = scheduled(plan)
    assert slices, "scheduler starved with work available"
    assert all(work.kind == "decode"
               for _, work in slices[:len(plan.decodes)])

    # The totals the step is priced from sum exactly the scheduled slices.
    assert plan.totals == StepTotals.of(
        [(work.tokens, work.kv_len) for _, work in slices],
        emitting=sum(work.emits for _, work in slices))

    # Token budget, with the documented dedicated-step exception.
    if plan.scheduled_tokens > config.token_budget:
        assert not config.chunked_prefill
        assert len(slices) == 1
        request, work = slices[0]
        assert work.kind == "prefill"
        assert request in plan.admitted

    # Batch-size cap over everything sharing the step.
    assert len(slices) <= config.max_batch_size

    # No finished request is ever scheduled, and no request twice.
    scheduled_ids = [request.request_id for request, _ in slices]
    assert len(set(scheduled_ids)) == len(scheduled_ids)
    for request, _ in slices:
        assert not request.active.finished

    # FIFO admission: admitted requests are exactly a prefix of the waiting
    # queue as it stood before planning (no overtaking).
    admitted_ids = [request.request_id for request in plan.admitted]
    assert admitted_ids == waiting_before[:len(admitted_ids)]

    # KV claims fit the pool the scheduler saw.
    if manager is not None:
        assert plan.claimed_blocks <= free_before
        assert all(blocks >= 0 for blocks in plan.claims.values())
        assert not plan.starved, "ample pool must never starve a resident"


def drain(config, requests, manager):
    """Run the scheduler loop with zero-cost timing until the trace drains."""
    scheduler = ContinuousBatchingScheduler(config)
    waiting = deque(requests)
    for request in waiting:
        request.active = ActiveRequest(request.workload)
    running = []
    steps = 0

    while waiting or running:
        steps += 1
        assert steps <= MAX_STEPS, "starvation: trace did not drain"
        waiting_before = [request.request_id for request in waiting]
        free_before = manager.free_blocks if manager is not None else 0
        plan = scheduler.plan_step(running, waiting, kv=manager)
        check_plan(plan, config, waiting_before, manager, free_before)
        slices = scheduled(plan)

        if manager is not None:
            for request_id, blocks in plan.claims.items():
                manager.claim(request_id, blocks)
        for request in plan.admitted:
            request.state = RequestState.RUNNING
            running.append(request)
        assert len(running) <= config.max_batch_size

        for request, work in slices:
            emitted = request.active.record(work, 0.0)
            request.tokens_emitted += emitted
            if request.active.finished:
                request.state = RequestState.FINISHED
                running.remove(request)
                if manager is not None:
                    manager.release(request.request_id)
    return steps


class TestRandomizedInvariants:
    def test_200_seeded_cases(self):
        for seed in range(NUM_CASES):
            rng = random.Random(seed)
            config, requests, manager = random_case(rng)
            drain(config, requests, manager)
            # Termination bookkeeping: everything finished, full output
            # emitted, and (with a manager) every block returned.
            for request in requests:
                assert request.state is RequestState.FINISHED, f"seed {seed}"
                assert request.tokens_emitted == request.workload.output_len
            if manager is not None:
                assert manager.used_blocks == 0, f"seed {seed}: leaked blocks"

    def test_case_generator_covers_both_modes(self):
        """Meta-check so a refactor cannot silently drop the KV-managed or
        unchunked arms of the sweep."""
        chunked = unchunked = managed = unmanaged = 0
        for seed in range(NUM_CASES):
            config, _, manager = random_case(random.Random(seed))
            chunked += config.chunked_prefill
            unchunked += not config.chunked_prefill
            managed += manager is not None
            unmanaged += manager is None
        assert min(chunked, unchunked, managed, unmanaged) >= NUM_CASES // 10
