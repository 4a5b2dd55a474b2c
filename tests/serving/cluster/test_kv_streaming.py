"""Streamed KV hand-off: layer-granular chunk transfers between pools.

PR 5's disaggregated hand-off moved each request's KV as one monolithic
transfer — decode admission waited for the whole payload.  The streamed
hand-off splits the payload into ``kv_stream_chunks`` layer-granular
chunks, dispatches the request to its decode replica the moment the
*first* chunk lands, and stalls the decode clock (a charged wait) only
if decode outruns the stream.  These tests pin:

* the pure split (:func:`split_kv_stream`): exact byte conservation,
  layer clamping, validation;
* ``chunks=1`` is the monolithic hand-off byte-for-byte — the default
  report carries no streaming section at all;
* streamed causality per request
  (``first_token_s <= kv_first_chunk_s <= migration_ready_s <=
  finish_s``) and fleet-level conservation;
* the decode stall path (slow link): stalls are counted, charged, and
  never let a request finish before its KV fully landed;
* streaming actually closes TPOT toward the unified fleet on a
  transfer-bound trace — the mechanism the chunking exists to buy;
* the zero-byte hand-off guard: one immediate degenerate landing, never
  a fan of empty chunk events.
"""

import json

import pytest

from repro.models.config import GPT2
from repro.serving import KVCacheConfig
from repro.serving.cluster import DisaggregationConfig, ServingCluster
from repro.serving.engine import HandoffEvent
from repro.serving.kv_manager import split_kv_stream
from repro.serving.request import ServingRequest
from repro.serving.workload_gen import poisson_trace

PER_TOKEN = GPT2.kv_cache_bytes_per_token()


def kv_blocks(blocks, block_size=16):
    return KVCacheConfig(capacity_bytes=blocks * block_size * PER_TOKEN,
                         block_size=block_size)


def run_cluster(chunks=1, gbs=4.0, kernel="event", trace=None, **kwargs):
    cluster = ServingCluster(
        GPT2, kernel=kernel, router="round_robin",
        disaggregation=DisaggregationConfig(
            prefill_replicas=2, decode_replicas=2,
            kv_transfer_gbs=gbs, kv_stream_chunks=chunks),
        **kwargs)
    if trace is None:
        trace = poisson_trace(48, 30.0, seed=21,
                              input_choices=(32, 64),
                              output_choices=(16, 32))
    return cluster, cluster.run(trace)


class TestSplitKVStream:
    def test_single_chunk_is_the_whole_payload(self):
        assert split_kv_stream(1000.0, num_layers=12, chunks=1) == (1000.0,)

    def test_sum_is_exactly_the_payload(self):
        # The last chunk is constructed as the remainder, so the split
        # conserves bytes *exactly* (not just approximately): billing
        # per chunk must equal billing the monolithic payload.
        for kv_bytes in (36864.0, 999.5, 12 * PER_TOKEN * 37):
            for chunks in (2, 3, 5, 12):
                split = split_kv_stream(kv_bytes, num_layers=12,
                                        chunks=chunks)
                assert sum(split) == kv_bytes
                assert all(size > 0 for size in split)

    def test_chunks_clamped_to_layer_count(self):
        split = split_kv_stream(1200.0, num_layers=3, chunks=8)
        assert len(split) == 3

    def test_even_layer_spans(self):
        # 12 layers in 4 chunks: 3 layers each, so 4 equal slices.
        split = split_kv_stream(1200.0, num_layers=12, chunks=4)
        assert split == (300.0, 300.0, 300.0, 1200.0 - 900.0)

    def test_zero_bytes_collapse_to_one_chunk(self):
        assert split_kv_stream(0.0, num_layers=12, chunks=6) == (0.0,)

    def test_validation(self):
        with pytest.raises(ValueError, match="chunk"):
            split_kv_stream(100.0, num_layers=12, chunks=0)
        with pytest.raises(ValueError, match="layer"):
            split_kv_stream(100.0, num_layers=0, chunks=2)


class TestMonolithicUnchanged:
    def test_chunks_1_matches_default_config_byte_for_byte(self):
        _, explicit = run_cluster(chunks=1)
        cluster = ServingCluster(
            GPT2, kernel="event", router="round_robin",
            disaggregation=DisaggregationConfig(
                prefill_replicas=2, decode_replicas=2,
                kv_transfer_gbs=4.0))
        default = cluster.run(poisson_trace(48, 30.0, seed=21,
                                            input_choices=(32, 64),
                                            output_choices=(16, 32)))
        assert json.dumps(explicit.to_dict(), sort_keys=True) \
            == json.dumps(default.to_dict(), sort_keys=True)

    def test_monolithic_report_has_no_streaming_section(self):
        _, report = run_cluster(chunks=1)
        assert "kv_streaming" not in report.to_dict()["disaggregation"]
        assert "kv streaming" not in report.format()

    def test_streamed_report_exposes_streaming_section(self):
        cluster, report = run_cluster(chunks=4, gbs=0.1)
        section = report.to_dict()["disaggregation"]["kv_streaming"]
        assert section["chunks_per_migration"] == 4
        assert section["chunks_landed"] == cluster.kv_chunks_landed
        assert section["chunks_landed"] == 4 * report.kv_migrations
        assert "kv streaming" in report.format()


class TestStreamedCausality:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_chunk_timestamps_bracket_decode(self, seed):
        trace = poisson_trace(40, 35.0, seed=seed,
                              input_choices=(32, 64, 128),
                              output_choices=(8, 16, 32))
        cluster, report = run_cluster(chunks=6, gbs=0.05, trace=trace)
        assert report.completed + report.rejected == report.num_requests
        migrated = 0
        for replica in cluster.replicas:
            for request in replica.requests:
                if request.migration_ready_s is None:
                    continue
                migrated += 1
                assert request.first_token_s <= request.kv_first_chunk_s
                assert request.kv_first_chunk_s <= request.migration_ready_s
                if request.finish_s is not None:
                    assert request.migration_ready_s <= request.finish_s
        assert migrated > 0

    def test_streaming_conserves_transferred_bytes(self):
        _, mono = run_cluster(chunks=1)
        _, streamed = run_cluster(chunks=6)
        assert streamed.kv_bytes_transferred == mono.kv_bytes_transferred
        assert streamed.kv_migrations == mono.kv_migrations


class TestDecodeStall:
    def test_slow_link_stalls_decode_but_never_breaks_causality(self):
        cluster, report = run_cluster(chunks=6, gbs=0.01)
        assert report.kv_stall_steps >= 1
        assert report.kv_stall_seconds > 0.0
        # The stall is a charged wait: it shows up in replica busy time
        # (capacity), not as free time travel.
        assert report.kv_stall_seconds == pytest.approx(
            sum(replica.kv_stall_s for replica in cluster.replicas))

    def test_fast_link_stall_time_is_negligible(self):
        # A lone just-admitted request can still out-run the tail of its
        # own stream by microseconds (dispatch rides the first chunk),
        # so a fast link bounds the stall *time* near zero rather than
        # eliminating every deferral step.
        _, report = run_cluster(chunks=6, gbs=64.0)
        assert report.kv_stall_seconds < 1e-3


class TestStreamingClosesTheGap:
    def test_streamed_tpot_beats_monolithic_on_transfer_bound_trace(self):
        # A monolithic hand-off keeps the request out of the decode
        # queue until the whole payload landed, so its TPOT pays
        # transfer *plus* queue wait in series.  Streaming dispatches at
        # the first chunk: the request queues while its KV is still on
        # the wire, and a busy decode pool absorbs all but the first
        # chunk's latency — the overlap needs queue wait comparable to
        # the transfer time, hence the saturated trace.
        trace = poisson_trace(48, 60.0, seed=7,
                              input_choices=(128,),
                              output_choices=(32,))
        _, mono = run_cluster(chunks=1, gbs=0.1, trace=trace)
        _, streamed = run_cluster(chunks=12, gbs=0.1, trace=trace)
        assert streamed.tpot.mean < mono.tpot.mean


class _FakePrefillReplica:
    def __init__(self, handoffs):
        self._handoffs = handoffs

    def take_handoffs(self):
        handoffs, self._handoffs = self._handoffs, []
        return handoffs


class TestZeroByteGuard:
    def test_zero_byte_handoff_lands_immediately_as_one_chunk(self):
        cluster, _ = run_cluster(chunks=6, kernel="step")
        request = ServingRequest(999, poisson_trace(1, 1.0)[0].workload,
                                 arrival_s=0.0)
        handoff = HandoffEvent(request=request, time_s=2.5, kv_tokens=0,
                               kv_bytes=0.0, chunk_bytes=())
        before = cluster.kv_migrations
        cluster._price_migrations(_FakePrefillReplica([handoff]))
        assert cluster.kv_migrations == before + 1
        # One degenerate chunk, landing at the hand-off instant — not a
        # fan of six zero-byte chunk events.
        land_s, _, chunk = cluster._migrations[-1]
        assert land_s == 2.5
        assert chunk.index == 0 and chunk.final
        assert request.kv_first_chunk_s == 2.5
        assert request.migration_ready_s == 2.5
