"""Tests for serving metrics and report assembly."""

import numpy as np
import pytest

from repro.models.workload import Workload
from repro.serving.metrics import (
    LatencyStats,
    RequestTable,
    SampleBuffer,
    build_report,
    percentile,
)
from repro.serving.request import RequestState, ServingRequest


class TestPercentile:
    def test_empty_sample_rejected(self):
        """An empty sample has no percentile — a clear error, not a silent
        0.0 that reads like a measured latency."""
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    def test_single_value(self):
        assert percentile([3.0], 99.0) == 3.0
        assert percentile([3.0], 0.0) == 3.0
        assert percentile([3.0], 100.0) == 3.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 50.0) == 5.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            percentile([1.0], 101.0)


class TestLatencyStats:
    def test_from_empty_is_explicit_sentinel(self):
        """Zero-request traces produce the count=0 sentinel, distinguishable
        from a genuine all-zero latency distribution."""
        stats = LatencyStats.from_values([])
        assert stats == LatencyStats.empty()
        assert stats.is_empty
        assert stats.count == 0
        assert stats.mean == 0.0 and stats.max == 0.0
        assert stats.format_ms() == "no samples"

    def test_single_sample(self):
        stats = LatencyStats.from_values([0.25])
        assert not stats.is_empty
        assert stats.count == 1
        # Every summary statistic of a singleton is the sample itself.
        assert (stats.mean, stats.p50, stats.p95, stats.p99, stats.max) \
            == (0.25, 0.25, 0.25, 0.25, 0.25)
        assert "250.0" in stats.format_ms()

    def test_ordering_invariant(self):
        stats = LatencyStats.from_values([float(i) for i in range(100)])
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max
        assert stats.mean == pytest.approx(49.5)
        assert stats.count == 100


class TestBuildReport:
    def _finished_request(self, request_id, arrival, first_token, finish,
                          workload=Workload(8, 4)):
        request = ServingRequest(request_id, workload, arrival)
        request.state = RequestState.FINISHED
        request.admitted_s = arrival
        request.first_token_s = first_token
        request.finish_s = finish
        request.tokens_emitted = workload.output_len
        return request

    def test_aggregates(self):
        requests = [
            self._finished_request(0, 0.0, 1.0, 2.0),
            self._finished_request(1, 1.0, 2.0, 4.0),
        ]
        report = build_report("gpt2", 1, requests, [], [])
        assert report.completed == 2
        assert report.total_output_tokens == 8
        assert report.makespan_s == pytest.approx(4.0)
        assert report.aggregate_tokens_per_s == pytest.approx(2.0)
        assert report.ttft.max == pytest.approx(1.0)

    def test_one_token_outputs_excluded_from_tpot(self):
        requests = [
            self._finished_request(0, 0.0, 1.0, 1.0, workload=Workload(8, 1)),
            self._finished_request(1, 0.0, 1.0, 2.0, workload=Workload(8, 3)),
        ]
        report = build_report("gpt2", 1, requests, [], [])
        # Only the 3-token request contributes: (2.0 - 1.0) / 2 decodes.
        assert report.tpot.max == pytest.approx(0.5)
        assert report.tpot.mean == pytest.approx(0.5)

    def test_format_is_printable(self):
        report = build_report("gpt2", 1,
                              [self._finished_request(0, 0.0, 1.0, 2.0)], [], [])
        text = report.format()
        assert "serving report" in text
        assert "tok/s" in text

    def test_to_dict_round_trips_through_json(self):
        import json

        report = build_report("gpt2", 1,
                              [self._finished_request(0, 0.0, 1.0, 2.0)], [], [])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["completed"] == 1
        assert payload["ttft_ms"]["max"] == pytest.approx(1000.0)
        assert payload["ttft_ms"]["count"] == 1
        assert payload["aggregate_tokens_per_s"] == pytest.approx(2.0)
        assert payload["preemptions"] == 0
        assert payload["preemption_events"] == []

    def test_zero_request_trace_yields_sentinel_report(self):
        """An empty trace must format and serialise cleanly, with every
        latency block marked as the no-samples sentinel."""
        import json

        report = build_report("gpt2", 1, [], [], [])
        assert report.completed == 0
        assert report.ttft.is_empty and report.tpot.is_empty
        assert report.e2e_latency.is_empty and report.queue_wait.is_empty
        assert "no samples" in report.format()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ttft_ms"]["count"] == 0
        assert payload["aggregate_tokens_per_s"] == 0.0


class TestSampleBuffer:
    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError, match="column"):
            SampleBuffer(0)
        with pytest.raises(ValueError, match="2 values, got 3"):
            SampleBuffer(2).append(1.0, 2.0, 3.0)

    def test_appends_keep_every_row(self):
        """Appending many rows keeps every row, in order."""
        buffer = SampleBuffer(2)
        for i in range(100):
            buffer.append(float(i), float(i) * 10.0)
        assert len(buffer) == 100
        assert buffer.rows().shape == (100, 2)
        assert list(buffer.column(0)) == [float(i) for i in range(100)]
        assert buffer[99] == (99.0, 990.0)

    def test_views_track_filled_rows_only(self):
        """rows()/column() expose exactly the appended rows."""
        buffer = SampleBuffer(3)
        buffer.append(1.0, 2.0, 3.0)
        assert buffer.rows().shape == (1, 3)
        assert buffer.column(2).tolist() == [3.0]

    def test_reads_like_a_list_of_tuples(self):
        """The cursor-style readers that predate the buffer (autoscaler
        windows, worker-feed tests) treat it as a list of row tuples."""
        buffer = SampleBuffer(2)
        assert not buffer
        buffer.append(0.5, 1.5)
        buffer.append(2.5, 3.5)
        assert buffer
        assert len(buffer) == 2
        assert list(buffer) == [(0.5, 1.5), (2.5, 3.5)]
        assert buffer[0] == (0.5, 1.5)
        assert buffer[-1] == (2.5, 3.5)
        assert buffer[1:] == [(2.5, 3.5)]

    def test_columns_property(self):
        assert SampleBuffer(4).columns == 4

    def test_slicing_an_empty_buffer(self):
        """Slices of nothing are empty lists."""
        buffer = SampleBuffer(2)
        assert buffer[:] == []
        assert buffer[0:10] == []
        assert buffer[-3:] == []

    def test_negative_indexing_matches_list_semantics(self):
        buffer = SampleBuffer(1)
        for i in range(3):
            buffer.append(float(i))
        assert buffer[-1] == (2.0,)
        assert buffer[-3] == (0.0,)
        assert buffer[-2:] == [(1.0,), (2.0,)]
        with pytest.raises(IndexError):
            buffer[-4]

    def test_growing_after_a_view_was_taken(self):
        """rows()/column() hand out copies: the buffer keeps growing
        while a reader holds one, and the reader's array keeps the rows
        it was taken with."""
        buffer = SampleBuffer(1)
        for i in range(4):
            buffer.append(float(i))
        rows, column = buffer.rows(), buffer.column(0)
        buffer.append(4.0)
        buffer.extend([(5.0,)])
        assert rows.tolist() == [[0.0], [1.0], [2.0], [3.0]]
        assert column.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert list(buffer.column(0)) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_extend_bulk_appends(self):
        buffer = SampleBuffer(2)
        buffer.append(0.0, 1.0)
        buffer.extend([(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])
        assert list(buffer) == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0),
                                (3.0, 4.0)]

    def test_extend_empty_batch_is_a_noop(self):
        buffer = SampleBuffer(2)
        buffer.extend([])
        assert len(buffer) == 0

    def test_extend_takes_numpy_rows_of_the_buffer_width(self):
        buffer = SampleBuffer(2)
        buffer.extend(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert buffer[:] == [(0.0, 1.0), (2.0, 3.0)]
        with pytest.raises(ValueError):
            buffer.extend(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            buffer.extend([(1.0, 2.0), (3.0,)])
        assert len(buffer) == 2

    def test_extend_keeps_every_row_in_order(self):
        buffer = SampleBuffer(1)
        buffer.extend([(float(i),) for i in range(17)])
        assert len(buffer) == 17
        assert list(buffer.column(0)) == [float(i) for i in range(17)]


def reference_fold(requests):
    """The per-request loop the table replaced: the request properties,
    folded one request at a time."""
    finished = [r for r in requests if r.state is RequestState.FINISHED]
    return {
        "num_requests": len(requests),
        "completed": len(finished),
        "rejected": sum(r.state is RequestState.REJECTED for r in requests),
        "failed": sum(r.state is RequestState.FAILED for r in requests),
        "total_output_tokens": sum(r.tokens_emitted for r in finished),
        "makespan_s": max(r.finish_s for r in finished)
        - min(r.arrival_s for r in finished) if finished else 0.0,
        "ttft": LatencyStats.from_values([r.ttft_s for r in finished]),
        "tpot": LatencyStats.from_values(
            [r.tpot_s for r in finished if r.workload.output_len > 1]),
        "e2e_latency": LatencyStats.from_values(
            [r.e2e_latency_s for r in finished]),
        "queue_wait": LatencyStats.from_values(
            [r.queue_wait_s for r in finished]),
    }


def random_requests(seed, count=60):
    """Requests in every end state, with irregular float timestamps and
    one-token outputs among them."""
    import random

    rng = random.Random(seed)
    requests = []
    for row in range(count):
        arrival = rng.uniform(0.0, 3.0)
        request = ServingRequest(row, Workload(rng.randint(1, 64),
                                               rng.choice((1, 2, 7, 33))),
                                 arrival)
        state = rng.choice((RequestState.FINISHED, RequestState.FINISHED,
                            RequestState.REJECTED, RequestState.FAILED,
                            RequestState.QUEUED))
        request.state = state
        if state is RequestState.FINISHED:
            request.admitted_s = arrival + rng.random() / 7.0
            request.first_token_s = request.admitted_s + rng.random() / 3.0
            request.finish_s = request.first_token_s + rng.random()
            request.tokens_emitted = request.workload.output_len
        requests.append(request)
    return requests


class TestRequestTable:
    @pytest.mark.parametrize("seed", range(20))
    def test_fold_equals_the_per_request_loop(self, seed):
        """Every count, makespan and LatencyStats of the table's fold is
        bit-equal to folding the request properties one by one."""
        requests = random_requests(seed)
        fold = RequestTable(requests).fold()
        assert {name: getattr(fold, name)
                for name in reference_fold(requests)} \
            == reference_fold(requests)

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_fold_a_subset_with_repeats(self, seed):
        """A replica's share — any subset, a request repeated when it
        was submitted twice — folds exactly like that list of requests."""
        import random

        requests = random_requests(seed)
        table = RequestTable(requests)
        rng = random.Random(seed)
        share = rng.sample(requests, 25) + rng.sample(requests, 5)
        fold = table.fold(table.rows_of(share))
        assert {name: getattr(fold, name)
                for name in reference_fold(share)} == reference_fold(share)

    def test_columns_follow_the_request_properties(self):
        requests = random_requests(3)
        table = RequestTable(requests)
        for row, request in enumerate(requests):
            if request.state is not RequestState.FINISHED:
                continue
            assert table.ttft[row] == request.ttft_s
            assert table.finish[row] - table.arrival[row] \
                == request.e2e_latency_s
            assert table.queue_wait[row] == request.queue_wait_s
            if request.workload.output_len > 1:
                assert table.tpot[row] == request.tpot_s
            else:
                assert np.isnan(table.tpot[row])

    def test_rows_of_rejects_a_request_outside_the_table(self):
        requests = random_requests(4)
        table = RequestTable(requests[:10])
        assert table.rows_of(requests[3:6]).tolist() == [3, 4, 5]
        with pytest.raises(ValueError, match="not a row"):
            table.rows_of(requests[9:11])

    def test_empty_table_folds_to_the_sentinels(self):
        fold = RequestTable([]).fold()
        assert fold.num_requests == fold.completed == 0
        assert fold.makespan_s == 0.0
        assert fold.ttft.is_empty and fold.tpot.is_empty
