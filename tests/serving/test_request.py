"""Tests for the serving request record: its slotted layout, the trace
conversion, and the latency rows the workers write for it."""

import pytest

from repro.models.config import GPT2
from repro.models.workload import Workload
from repro.serving import KVCacheConfig, SchedulerConfig, ServingCluster
from repro.serving.metrics import SampleBuffer
from repro.serving.request import (
    RequestState,
    ServingRequest,
    requests_from_trace,
)
from repro.serving.slo import SLO_CLASSES
from repro.serving.workload_gen import TimedRequest


class TestSlottedRequest:
    def test_has_no_instance_dict(self):
        request = ServingRequest(0, Workload(16, 4), 0.0)
        assert not hasattr(request, "__dict__")

    def test_undeclared_attribute_raises(self):
        """A misspelt field is an error, not silently added state."""
        request = ServingRequest(0, Workload(16, 4), 0.0)
        with pytest.raises(AttributeError):
            request.tokens_emited = 3
        request.tokens_emitted = 3
        assert request.tokens_emitted == 3


class TestRequestsFromTrace:
    def test_arrival_order_with_id_tie_break(self):
        trace = [TimedRequest(3, Workload(16, 2), 0.5),
                 TimedRequest(1, Workload(16, 2), 0.5),
                 TimedRequest(2, Workload(16, 2), 0.25)]
        assert [r.request_id for r in requests_from_trace(trace)] \
            == [2, 1, 3]

    def test_fields_are_threaded_through(self):
        trace = [TimedRequest(0, Workload(32, 4), 0.0, priority=2,
                              prefix_group="g", prefix_len=16,
                              slo_class="best-effort"),
                 TimedRequest(1, Workload(16, 2), 1.0)]
        classed, unclassed = requests_from_trace(trace)
        assert (classed.priority, classed.prefix_group, classed.prefix_len) \
            == (2, "g", 16)
        assert classed.slo_class is SLO_CLASSES["best_effort"]
        assert unclassed.slo_class is None
        assert classed.state is RequestState.QUEUED

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO class"):
            requests_from_trace([TimedRequest(0, Workload(16, 2), 0.0,
                                              slo_class="gold")])


def _latency_run():
    """Two replicas on a pool small enough to preempt, serving classed,
    unclassed and one-token-output requests."""
    classes = (None, "interactive", "batch", None)
    trace = [TimedRequest(i, Workload(128, 1 if i % 5 == 0 else 96),
                          0.002 * i, slo_class=classes[i % 4])
             for i in range(24)]
    per_token = GPT2.kv_cache_bytes_per_token(1.0)
    kv = KVCacheConfig(capacity_bytes=40 * 16 * per_token, block_size=16)
    cluster = ServingCluster(GPT2, initial_replicas=2,
                             scheduler_config=SchedulerConfig(
                                 max_batch_size=8, token_budget=512),
                             kv_config=kv)
    report = cluster.run(trace)
    return cluster, report


class TestLatencyRows:
    def test_rows_equal_the_request_properties_bit_for_bit(self):
        """Each worker writes a request's TTFT and TPOT rows without the
        properties; the values must be the properties' own, exactly."""
        cluster, report = _latency_run()
        assert report.preemptions > 0
        seen = {"classed": 0, "unclassed": 0, "one_token": 0,
                "preempted": 0}
        for worker in cluster.replicas:
            served = [r for r in worker.requests
                      if r.state is RequestState.FINISHED]
            expected_ttft = []
            for r in served:
                slo = r.slo_class
                expected_ttft.append((
                    r.first_token_s, r.ttft_s,
                    slo.ttft_target_s if slo is not None else float("inf"),
                    slo.value if slo is not None else 1.0))
                seen["classed" if slo is not None else "unclassed"] += 1
                seen["one_token"] += r.workload.output_len == 1
                seen["preempted"] += r.preemptions > 0
            assert sorted(worker.ttft_samples) == sorted(expected_ttft)
            assert sorted(worker.tpot_samples) \
                == sorted((r.finish_s, r.tpot_s) for r in served)
        assert all(seen.values()), seen

    def test_sample_buffers_still_reject_ragged_rows(self):
        cluster, _ = _latency_run()
        for buffer in (cluster.replicas[0].ttft_samples,
                       cluster.replicas[0].tpot_samples):
            assert isinstance(buffer, SampleBuffer)
            with pytest.raises(ValueError):
                buffer.append(*([0.0] * (buffer.columns + 1)))
            with pytest.raises(ValueError):
                buffer.extend([(0.0,) * (buffer.columns - 1)])
