"""Tests for the pluggable admission/preemption policy layers, and for
load-aware routing as the fixed fleet's placement decision."""

import json

import pytest

from repro.models.config import GPT2
from repro.models.workload import Workload
from repro.serving import (
    KVCacheConfig,
    SchedulerConfig,
    ServingCluster,
    burst_trace,
    poisson_trace,
)
from repro.serving.policies import (
    ADMISSION_POLICIES,
    PREEMPTION_POLICIES,
    resolve_admission_policy,
    resolve_preemption_policy,
)
from repro.serving.request import ServingRequest
from repro.serving.workload_gen import TimedRequest


def kv_blocks(total_tokens: int, slack_blocks: int = 0, block_size: int = 16,
              high: float = 0.95, low: float = 0.80,
              prefix_cache: bool = False) -> KVCacheConfig:
    """A pool of exactly blocks_for(total_tokens) + slack GPT-2 KV blocks."""
    per_token = GPT2.kv_cache_bytes_per_token(1.0)
    blocks = -(-total_tokens // block_size) + slack_blocks
    return KVCacheConfig(capacity_bytes=blocks * block_size * per_token,
                         block_size=block_size,
                         high_watermark=high, low_watermark=low,
                         enable_prefix_cache=prefix_cache)


def priority_trace(priorities, workload=Workload(64, 32)):
    return [TimedRequest(i, workload, 0.0, priority=p)
            for i, p in enumerate(priorities)]


class TestPolicyUnits:
    def test_fcfs_order_is_identity(self):
        requests = [ServingRequest(i, Workload(8, 8), float(i))
                    for i in (2, 0, 1)]
        policy = resolve_admission_policy("fcfs")
        assert not policy.reorders
        assert policy.order(requests) == requests

    def test_largest_kv_without_manager_falls_back_to_youngest(self):
        requests = [ServingRequest(i, Workload(8, 8), 0.0) for i in range(3)]
        policy = resolve_preemption_policy("largest_kv")
        assert policy.select_victim(requests, None) is requests[-1]

    def test_largest_kv_picks_biggest_holder(self):
        from repro.serving.kv_manager import KVCacheConfig

        manager = KVCacheConfig(capacity_bytes=160.0, block_size=16) \
            .manager_for(bytes_per_token=1.0)
        requests = [ServingRequest(i, Workload(8, 8), 0.0) for i in range(3)]
        manager.claim(0, 2)
        manager.claim(1, 5)
        manager.claim(2, 2)
        policy = resolve_preemption_policy("largest_kv")
        assert policy.select_victim(requests, manager) is requests[1]
        # Tie on footprint: youngest wins.
        manager.release(1)
        assert policy.select_victim(
            [requests[0], requests[2]], manager) is requests[2]

    def test_largest_kv_ranks_by_releasable_not_gross_footprint(self):
        """A follower whose footprint is mostly shared prefix blocks (still
        referenced by the leader) frees almost nothing when evicted — the
        policy must prefer the private-heavy request instead."""
        from repro.serving.kv_manager import KVCacheConfig

        manager = KVCacheConfig(capacity_bytes=640.0, block_size=16,
                                enable_prefix_cache=True) \
            .manager_for(bytes_per_token=1.0)
        leader = ServingRequest(0, Workload(160, 8), 0.0,
                                prefix_group="g", prefix_len=144)
        follower = ServingRequest(1, Workload(160, 8), 0.0,
                                  prefix_group="g", prefix_len=144)
        private = ServingRequest(2, Workload(8, 8), 0.0)
        manager.pin_prefix(leader)
        manager.extend_prefix(leader)          # 9 shared blocks
        manager.claim(0, 1)
        manager.mark_prefix_computed("g", 144)
        manager.pin_prefix(follower)           # references the same 9
        manager.claim(1, 1)
        manager.claim(2, 8)
        assert manager.blocks_held(1) == 10    # gross: looks biggest
        assert manager.releasable_blocks(1) == 1
        assert manager.releasable_blocks(2) == 8
        policy = resolve_preemption_policy("largest_kv")
        victim = policy.select_victim([leader, follower, private], manager)
        assert victim is private


class TestRegistries:
    def test_registry_names_match_policy_names(self):
        for registry in (ADMISSION_POLICIES, PREEMPTION_POLICIES):
            for name, cls in registry.items():
                assert cls.name == name

    def test_resolvers_accept_names_and_instances(self):
        policy = resolve_admission_policy("priority")
        assert resolve_admission_policy(policy) is policy
        policy = resolve_preemption_policy("largest_kv")
        assert resolve_preemption_policy(policy) is policy

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            resolve_admission_policy("lifo")
        with pytest.raises(ValueError, match="preemption"):
            resolve_preemption_policy("oldest")
        with pytest.raises(ValueError, match="admission"):
            SchedulerConfig(admission="lifo")
        with pytest.raises(ValueError, match="routing"):
            ServingCluster(GPT2, router="nope")
        with pytest.raises(ValueError, match="preemption"):
            ServingCluster(GPT2, preemption="nope")


def outcome(report, implicit_scheduler=False):
    """The report JSON without the manifest's scheduler entry, which
    records the scheduler config as given (``None`` when left to the
    default); every other manifest field is compared."""
    payload = report.to_dict()
    scheduler = payload["manifest"].pop("scheduler")
    if implicit_scheduler:
        assert scheduler is None
    return json.dumps(payload, sort_keys=True)


class TestDefaultsReproducePriorArt:
    """The refactor's backward-compatibility bar: default policies must be
    indistinguishable from the pre-policy engine."""

    def test_defaults_equal_explicit_default_policies(self):
        trace = poisson_trace(24, 30.0, seed=3)
        implicit = ServingCluster(GPT2, initial_replicas=2).run(trace)
        explicit = ServingCluster(
            GPT2, initial_replicas=2,
            scheduler_config=SchedulerConfig(admission="fcfs"),
            router="round_robin", preemption="youngest").run(trace)
        assert outcome(implicit, implicit_scheduler=True) == outcome(explicit)

    def test_defaults_equal_explicit_under_kv_pressure(self):
        trace = poisson_trace(16, 200.0, seed=0,
                              input_choices=(128,), output_choices=(128,))
        kv = kv_blocks(256, slack_blocks=8)
        implicit = ServingCluster(GPT2, kv_config=kv).run(trace)
        explicit = ServingCluster(
            GPT2, kv_config=kv,
            scheduler_config=SchedulerConfig(admission="fcfs"),
            router="round_robin", preemption="youngest").run(trace)
        assert implicit.preemptions >= 1, "regime check: pressure expected"
        assert outcome(implicit, implicit_scheduler=True) == outcome(explicit)

    def test_round_robin_matches_arrival_index_sharding(self):
        trace = burst_trace([Workload(8, 4) for _ in range(6)])
        report = ServingCluster(GPT2, initial_replicas=3,
                                router="round_robin").run(trace)
        assert [d.requests_served for r in report.replica_reports
                for d in r.devices] == [2, 2, 2]


class TestAdmissionPolicies:
    @staticmethod
    def make_waiting(specs):
        """A waiting deque of (priority, input_len) requests, arrival = id."""
        from collections import deque

        from repro.runtime.session import InferenceSession

        session = InferenceSession(GPT2)
        waiting = deque()
        for request_id, (priority, input_len) in enumerate(specs):
            request = ServingRequest(request_id, Workload(input_len, 8),
                                     arrival_s=float(request_id),
                                     priority=priority)
            request.active = session.start_request(request.workload)
            waiting.append(request)
        return waiting

    def test_priority_admitted_before_lower_tiers(self):
        from repro.serving.scheduler import ContinuousBatchingScheduler

        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=2, token_budget=64,
                            admission="priority"))
        waiting = self.make_waiting([(0, 8), (0, 8), (2, 8), (1, 8)])
        plan = scheduler.plan_step([], waiting)
        assert [r.request_id for r in plan.admitted] == [2, 3]
        # The rest of the queue is left in policy order for the next step.
        assert [r.request_id for r in waiting] == [0, 1]

    def test_priority_ties_break_by_arrival(self):
        from repro.serving.scheduler import ContinuousBatchingScheduler

        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=3, token_budget=64,
                            admission="priority"))
        waiting = self.make_waiting([(1, 8), (0, 8), (1, 8)])
        plan = scheduler.plan_step([], waiting)
        assert [r.request_id for r in plan.admitted] == [0, 2, 1]

    def test_shortest_prompt_admits_short_first(self):
        from repro.serving.scheduler import ContinuousBatchingScheduler

        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=2, token_budget=256,
                            admission="shortest_prompt"))
        waiting = self.make_waiting([(0, 128), (0, 16), (0, 64)])
        plan = scheduler.plan_step([], waiting)
        assert [r.request_id for r in plan.admitted] == [1, 2]

    def test_shortest_prompt_first_improves_mean_ttft(self):
        """SJF on prefill: one long prompt ahead of many short ones — mean
        TTFT must drop versus FCFS (the classic convoy effect)."""
        workloads = [Workload(256, 8)] + [Workload(16, 8)] * 6
        trace = burst_trace(workloads)
        fcfs = ServingCluster(
            GPT2,
            scheduler_config=SchedulerConfig(max_batch_size=1)).run(trace)
        sjf = ServingCluster(
            GPT2,
            scheduler_config=SchedulerConfig(
                max_batch_size=1, admission="shortest_prompt")).run(trace)
        assert sjf.completed == fcfs.completed == 7
        assert sjf.ttft.mean < fcfs.ttft.mean

    def test_admission_policy_is_deterministic(self):
        trace = poisson_trace(20, 50.0, seed=9,
                              priority_choices=(0, 1, 2))
        scheduler = SchedulerConfig(max_batch_size=2, admission="priority")
        first = ServingCluster(GPT2, scheduler_config=scheduler).run(trace)
        second = ServingCluster(GPT2, scheduler_config=scheduler).run(trace)
        assert json.dumps(first.to_dict(), sort_keys=True) \
            == json.dumps(second.to_dict(), sort_keys=True)


def staggered_trace():
    """Long, short, long, short: the short requests finish before the next
    long one arrives, so live queue depth sees the first long one still
    running."""
    workloads = [Workload(128, 128), Workload(8, 8),
                 Workload(128, 128), Workload(8, 8)]
    return [TimedRequest(i, workload, arrival_s)
            for i, (workload, arrival_s)
            in enumerate(zip(workloads, (0.0, 0.01, 0.5, 0.51)))]


def tokens_per_device(report):
    return sorted(d.tokens_generated for r in report.replica_reports
                  for d in r.devices)


class TestLoadAwareRouting:
    def test_least_queue_balances_long_requests(self):
        """Round-robin piles both long requests onto device 0; least-queue
        sends the second one to the device that already drained its short
        request."""
        trace = staggered_trace()
        rr = ServingCluster(GPT2, initial_replicas=2,
                            router="round_robin").run(trace)
        lq = ServingCluster(GPT2, initial_replicas=2,
                            router="least_queue").run(trace)
        assert tokens_per_device(rr) == [16, 256]  # both long ones on one
        assert tokens_per_device(lq) == [136, 136]  # one long + one short
        assert lq.makespan_s < rr.makespan_s

    def test_least_kv_pressure_spreads_block_demand(self):
        """The two long requests' KV lands on different devices; the last
        short request follows the lower occupancy, to the device whose
        long request has generated fewer tokens so far."""
        report = ServingCluster(
            GPT2, initial_replicas=2,
            kv_config=KVCacheConfig.from_capacity_mb(64.0),
            router="least_kv_pressure").run(staggered_trace())
        assert tokens_per_device(report) == [128, 144]


class TestPreemptionPolicies:
    TRACE = poisson_trace(16, 200.0, seed=0,
                          input_choices=(128,), output_choices=(128,))
    TIGHT = kv_blocks(256, slack_blocks=8)

    def test_all_policies_complete_under_pressure(self):
        for name in PREEMPTION_POLICIES:
            report = ServingCluster(GPT2, kv_config=self.TIGHT,
                                    preemption=name).run(self.TRACE)
            assert report.completed == len(self.TRACE), name
            assert report.preemptions >= 1, name
            assert report.total_output_tokens == sum(
                t.workload.output_len for t in self.TRACE), name

    def test_lowest_priority_equals_youngest_on_uniform_tiers(self):
        """With all priorities equal the tie-break is youngest-first, so
        the two policies must make byte-identical decisions."""
        youngest = ServingCluster(GPT2, kv_config=self.TIGHT,
                                  preemption="youngest").run(self.TRACE) \
            .to_dict()
        lowest = ServingCluster(GPT2, kv_config=self.TIGHT,
                                preemption="lowest_priority") \
            .run(self.TRACE).to_dict()
        # The manifest truthfully records the *configured* policies, which
        # differ; everything the runs produced must still be identical.
        assert youngest.pop("manifest")["preemption"] == "youngest"
        assert lowest.pop("manifest")["preemption"] == "lowest_priority"
        assert json.dumps(youngest, sort_keys=True) \
            == json.dumps(lowest, sort_keys=True)

    def test_lowest_priority_protects_high_tier(self):
        """Under pressure the high-priority request is never the victim
        while lower tiers are resident."""
        workload = Workload(96, 96)
        trace = [TimedRequest(i, workload, 0.0,
                              priority=(2 if i == 0 else 0))
                 for i in range(4)]
        config = kv_blocks(192, slack_blocks=4)
        report = ServingCluster(GPT2, kv_config=config,
                                preemption="lowest_priority").run(trace)
        assert report.preemptions >= 1
        assert all(event.request_id != 0
                   for event in report.replica_reports[0].preemption_events)
        assert report.completed == 4

    def test_largest_kv_frees_most_per_eviction(self):
        """Largest-footprint eviction needs at most as many victims as
        youngest-first on the same pressured trace."""
        youngest = ServingCluster(GPT2, kv_config=self.TIGHT,
                                  preemption="youngest").run(self.TRACE)
        largest = ServingCluster(GPT2, kv_config=self.TIGHT,
                                 preemption="largest_kv").run(self.TRACE)
        assert largest.preemptions <= youngest.preemptions

    def test_policy_selection_determinism(self):
        for name in PREEMPTION_POLICIES:
            first = ServingCluster(GPT2, kv_config=self.TIGHT,
                                   preemption=name).run(self.TRACE)
            second = ServingCluster(GPT2, kv_config=self.TIGHT,
                                    preemption=name).run(self.TRACE)
            assert json.dumps(first.to_dict(), sort_keys=True) \
                == json.dumps(second.to_dict(), sort_keys=True), name
