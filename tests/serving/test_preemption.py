"""Device-level tests for KV-capacity-bounded serving with preemption.

The acceptance bar for the KV manager: a trace that overflows capacity must
complete via preemption + recompute (>= 1 preemption reported), while the
same trace under ample capacity reports 0 preemptions and throughput
identical to the capacity-oblivious engine.
"""

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
from repro.serving.request import RequestState


def kv_mb(total_tokens: int, slack_blocks: int = 0, block_size: int = 16,
          high: float = 0.95, low: float = 0.80) -> KVCacheConfig:
    """A config whose pool holds exactly blocks_for(total_tokens) + slack
    blocks of GPT-2 KV (48 KiB/token at A8)."""
    per_token = GPT2.kv_cache_bytes_per_token(1.0)
    blocks = -(-total_tokens // block_size) + slack_blocks
    return KVCacheConfig(capacity_bytes=blocks * block_size * per_token,
                         block_size=block_size,
                         high_watermark=high, low_watermark=low)


def serve(trace, **kwargs):
    """One device's report: the replica report of a one-device fleet."""
    return ServingCluster(GPT2, **kwargs).run(trace).replica_reports[0]


# A trace whose working set (8 concurrent x 256 positions) overflows the
# tight pool below but fits the ample one.
TRACE = poisson_trace(16, 200.0, seed=0,
                      input_choices=(128,), output_choices=(128,))
TIGHT = kv_mb(256, slack_blocks=8)      # ~1.5 requests' worth of blocks
AMPLE = KVCacheConfig.from_capacity_mb(4096.0)


class TestOverflowRegime:
    def test_overflow_completes_via_preemption(self):
        report = serve(TRACE, kv_config=TIGHT)
        assert report.completed == len(TRACE)
        assert report.rejected == 0
        assert report.preemptions >= 1
        assert len(report.preemption_events) == report.preemptions
        assert report.total_output_tokens == sum(
            t.workload.output_len for t in TRACE)

    def test_preemption_events_carry_freed_blocks(self):
        report = serve(TRACE, kv_config=TIGHT)
        for event in report.preemption_events:
            assert event.blocks_freed > 0
            assert event.device_id == 0
        times = [event.time_s for event in report.preemption_events]
        assert times == sorted(times)

    def test_recompute_does_not_double_count_output_tokens(self):
        """Preempted requests recompute KV, not output: every finished
        request emits exactly its requested output length."""
        trace = burst_trace([Workload(64, 64) for _ in range(6)])
        report = serve(trace, kv_config=kv_mb(128, 4))
        assert report.preemptions >= 1
        assert report.completed == 6
        assert report.total_output_tokens == 6 * 64

    def test_recompute_costs_device_time(self):
        """The same trace must take longer under preemption than with ample
        memory — recompute work is charged to the clock."""
        tight = serve(TRACE, kv_config=TIGHT)
        ample = serve(TRACE, kv_config=AMPLE)
        assert tight.preemptions > 0
        assert tight.makespan_s > ample.makespan_s
        assert tight.aggregate_tokens_per_s < ample.aggregate_tokens_per_s

    def test_memory_metrics_populated(self):
        report = serve(TRACE, kv_config=TIGHT)
        assert 0.0 < report.peak_kv_utilization <= 1.0
        assert 0.0 < report.mean_kv_utilization <= report.peak_kv_utilization
        assert report.devices[0].kv_samples == report.devices[0].engine_steps, \
            "kv occupancy summary missing a step"
        device = report.devices[0]
        assert device.kv_blocks_total > 0
        assert 0 < device.kv_peak_blocks <= device.kv_blocks_total
        payload = report.to_dict()
        assert payload["preemptions"] == report.preemptions
        assert payload["peak_kv_utilization"] == report.peak_kv_utilization
        assert len(payload["preemption_events"]) == report.preemptions

    def test_youngest_preempted_first(self):
        """Under pressure the oldest resident keeps its blocks: it is never
        the first victim, so it drains and guarantees forward progress."""
        trace = burst_trace([Workload(96, 96) for _ in range(4)])
        report = serve(trace, kv_config=kv_mb(192, 4))
        assert report.preemptions >= 1
        first_victim = report.preemption_events[0].request_id
        assert first_victim != 0, "oldest request must not be evicted first"


class TestAmpleRegime:
    def test_no_preemptions_and_unchanged_throughput(self):
        managed = serve(TRACE, kv_config=AMPLE)
        unmanaged = serve(TRACE)
        assert managed.preemptions == 0
        assert managed.preemption_events == []
        assert managed.completed == unmanaged.completed == len(TRACE)
        # Identical scheduling: same clock, same throughput, same latencies.
        assert managed.makespan_s == unmanaged.makespan_s
        assert managed.aggregate_tokens_per_s == unmanaged.aggregate_tokens_per_s
        assert managed.ttft == unmanaged.ttft
        assert managed.e2e_latency == unmanaged.e2e_latency

    def test_unmanaged_engine_reports_no_kv_metrics(self):
        report = serve(TRACE)
        assert report.devices[0].kv_samples == 0
        assert report.mean_kv_utilization == 0.0
        assert report.peak_kv_utilization == 0.0
        assert report.devices[0].kv_blocks_total == 0


class TestAdmissionGuards:
    def test_request_larger_than_pool_rejected(self):
        """A request whose positions outgrow the whole pool can never finish
        even alone — reject at arrival instead of preempt-thrashing."""
        trace = burst_trace([Workload(64, 64), Workload(512, 512),
                             Workload(64, 64)])
        report = serve(trace, kv_config=kv_mb(256))
        # The rejection is the pool's, not the session's: 1024 positions
        # fit GPT-2's max_seq_len but not the 16 blocks of 16 tokens.
        assert Workload(512, 512).total_tokens <= GPT2.max_seq_len
        assert report.rejected == 1
        assert report.completed == 2

    def test_single_big_request_fits_alone(self):
        """The idle-device override: a request above the high watermark but
        within the pool is admitted once the device drains."""
        config = kv_mb(256, slack_blocks=0, high=0.5, low=0.3)
        report = serve(burst_trace([Workload(128, 128)]), kv_config=config)
        assert report.completed == 1
        assert report.rejected == 0

    def test_kv_capacity_below_one_block_rejected_at_init(self):
        with pytest.raises(ValueError, match="block"):
            ServingCluster(GPT2, kv_config=KVCacheConfig(capacity_bytes=1.0))

    def test_filling_to_exactly_high_watermark_never_preempts(self):
        """Admission may fill to exactly the high mark; only growing
        *strictly past* it triggers eviction.  A workload whose peak demand
        lands exactly on the mark must run preemption-free — the boundary
        regression where the engine evicted what it had just admitted."""
        per_token = GPT2.kv_cache_bytes_per_token(1.0)
        # 20 blocks; peak demand 4*blocks(64) + blocks(48) = 19 = 0.95 high.
        config = KVCacheConfig(capacity_bytes=20 * 16 * per_token,
                               block_size=16,
                               high_watermark=0.95, low_watermark=0.70)
        trace = burst_trace([Workload(60, 4)] * 4 + [Workload(44, 4)])
        report = serve(trace, kv_config=config)
        assert report.completed == 5
        assert report.preemptions == 0
        assert report.peak_kv_utilization == pytest.approx(0.95)


class TestPreemptedRequestAccounting:
    def test_resume_workload_folds_emitted_tokens(self):
        from repro.serving.request import ServingRequest

        request = ServingRequest(0, Workload(32, 16), 0.0)
        assert request.resume_workload() == Workload(32, 16)
        request.tokens_emitted = 5
        assert request.resume_workload() == Workload(37, 11)
        request.tokens_emitted = 16
        with pytest.raises(RuntimeError, match="emitted"):
            request.resume_workload()

    def test_per_request_preemption_counts_sum_to_report(self):
        report = serve(TRACE, kv_config=TIGHT)
        # Per-request counters are on the cluster's internal requests; the
        # report aggregates per device — totals must agree.
        assert report.preemptions == sum(
            d.preemptions for d in report.devices)

    def test_states_all_terminal(self):
        trace = poisson_trace(12, 100.0, seed=1,
                              input_choices=(64, 128), output_choices=(64,))
        report = serve(trace, kv_config=kv_mb(256, 6))
        assert report.completed + report.rejected == len(trace)
