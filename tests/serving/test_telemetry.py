"""Unit tests for :mod:`repro.serving.telemetry`: the tracer's span
recording and lifecycle helpers, the metrics registry, the run
manifest, the Chrome trace-event export and the ``repro trace``
analysis queries.  End-to-end tracing semantics (kernel equality,
byte-identity when disabled, latency partitioning) live in
``tests/serving/cluster/test_tracing.py``."""

import json
import math
from dataclasses import dataclass

import pytest

from repro.models.workload import Workload
from repro.serving.request import ServingRequest
from repro.serving.slo import SLO_CLASSES
from repro.serving.telemetry import (
    FLEET_LANE,
    INSTANT_KINDS,
    LATENCY_KINDS,
    MetricsRegistry,
    RequestTimeline,
    SpanKind,
    Tracer,
    build_chrome_trace,
    build_manifest,
    config_snapshot,
    critical_path,
    format_critical_path,
    format_slowest,
    format_summary,
    load_trace,
    slowest,
    summarize,
    telemetry_section,
    timelines_from_chrome,
    timelines_from_tracer,
    workload_fingerprint,
    write_chrome_trace,
)


def request(request_id=0, arrival_s=0.0, slo_class=None):
    return ServingRequest(request_id, Workload(8, 4), arrival_s,
                          slo_class=slo_class)



def spans_for(tracer, request_id):
    """One request's spans as (kind, start_s, end_s, aux), sorted by start
    time, then end time, then kind."""
    spans = [(SpanKind(int(row[0])), float(row[3]), float(row[4]),
              float(row[5]))
             for row in tracer.rows() if int(row[1]) == request_id]
    return sorted(spans, key=lambda span: (span[1], span[2], span[0]))

class TestTracer:
    def test_spans_stage_then_flush_into_columns(self):
        tracer = Tracer()
        tracer.span(SpanKind.DECODE, 1.0, 2.0, request_id=3, lane=1,
                    aux=5.0)
        tracer.instant(SpanKind.FIRST_TOKEN, 1.5, request_id=3, lane=1)
        assert len(tracer) == 2
        rows = tracer.rows()
        assert rows.shape == (2, 6)
        assert tuple(rows[0]) == (float(SpanKind.DECODE), 3.0, 1.0, 1.0,
                                  2.0, 5.0)
        # The instant is zero-width.
        assert rows[1][3] == rows[1][4] == 1.5

    def test_flush_threshold_batches_the_staging_list(self):
        tracer = Tracer()
        for i in range(Tracer.FLUSH_THRESHOLD + 10):
            tracer.span(SpanKind.DECODE, float(i), float(i) + 1.0)
        assert len(tracer) == Tracer.FLUSH_THRESHOLD + 10
        assert tracer.rows().shape[0] == Tracer.FLUSH_THRESHOLD + 10

    def test_admitted_closes_queue_span_from_enqueue(self):
        tracer = Tracer()
        tracer.admitted(request(7, arrival_s=1.0), 1.5, lane=0)
        spans = spans_for(tracer, 7)
        assert spans[0] == (SpanKind.QUEUE, 1.0, 1.5, 0.0)
        assert spans[1][0] is SpanKind.ADMIT

    def test_preempt_resume_cycle_tiles_the_queue_time(self):
        """After a preemption the next QUEUE span opens at the eviction
        time and the admission marker is RESUME, not ADMIT."""
        tracer = Tracer()
        tracer.admitted(request(1, arrival_s=0.0), 0.2, lane=0)
        tracer.preempted(1, 0.6, lane=0)
        tracer.admitted(request(1, arrival_s=0.0), 0.9, lane=0)
        kinds = [span[0] for span in spans_for(tracer, 1)]
        assert kinds == [SpanKind.QUEUE, SpanKind.ADMIT, SpanKind.PREEMPT,
                         SpanKind.QUEUE, SpanKind.RESUME]
        second_queue = spans_for(tracer, 1)[3]
        assert (second_queue[1], second_queue[2]) == (0.6, 0.9)

    def test_admitted_registers_slo_class(self):
        tracer = Tracer()
        tracer.admitted(request(2, slo_class=SLO_CLASSES["interactive"]),
                        0.1, lane=0)
        assert tracer.request_classes == {2: "interactive"}

    def test_sorted_tuples_is_stable_across_insertion_order(self):
        first, second = Tracer(), Tracer()
        first.span(SpanKind.QUEUE, 0.0, 1.0, request_id=1)
        first.span(SpanKind.DECODE, 1.0, 2.0, request_id=1)
        second.span(SpanKind.DECODE, 1.0, 2.0, request_id=1)
        second.span(SpanKind.QUEUE, 0.0, 1.0, request_id=1)
        assert first.sorted_tuples() == second.sorted_tuples()

    def test_span_counts_by_kind_name(self):
        tracer = Tracer()
        tracer.span(SpanKind.DECODE, 0.0, 1.0, request_id=1)
        tracer.span(SpanKind.DECODE, 1.0, 2.0, request_id=1)
        tracer.instant(SpanKind.ADMIT, 0.0, request_id=1)
        assert tracer.span_counts() == {"ADMIT": 1, "DECODE": 2}

    def test_reset_drops_state_but_keeps_kernel_log_setting(self):
        tracer = Tracer()
        tracer.enable_kernel_log()
        tracer.span(SpanKind.DECODE, 0.0, 1.0, request_id=1)
        tracer.metrics.inc("x")
        tracer.kernel_event((0.0, 0, 0, 0, None))
        tracer.reset()
        assert len(tracer) == 0
        assert tracer.metrics.counters == {}
        assert tracer.kernel_events() == []

    def test_kind_partitions_are_disjoint(self):
        assert not (LATENCY_KINDS & INSTANT_KINDS)
        assert FLEET_LANE < 0


class TestMetricsRegistry:
    def test_counters_inc_and_absolute_set(self):
        registry = MetricsRegistry()
        registry.inc("migrations")
        registry.inc("migrations", 2.0)
        registry.count("preemptions", 7.0)
        assert registry.counters["migrations"] == 3.0
        assert list(registry.counters) == ["migrations", "preemptions"]

    def test_gauge_series_records_time_value_rows(self):
        registry = MetricsRegistry()
        registry.sample("queue_depth", 0.0, 4.0)
        registry.sample("queue_depth", 0.5, 2.0)
        assert list(registry.gauges["queue_depth"]) == [(0.0, 4.0),
                                                        (0.5, 2.0)]
        assert len(registry) == 1

    def test_summary_is_json_ready(self):
        registry = MetricsRegistry()
        registry.count("kv_migrations", 3.0)
        registry.sample("value_load", 0.0, 1.0)
        registry.sample("value_load", 1.0, 3.0)
        summary = registry.summary()
        assert summary["counters"] == {"kv_migrations": 3.0}
        assert summary["gauges"]["value_load"] == {
            "samples": 2, "last": 3.0, "mean": 2.0, "max": 3.0}
        json.dumps(summary)  # plain scalars only

    def test_telemetry_section_shape(self):
        tracer = Tracer()
        tracer.span(SpanKind.QUEUE, 0.0, 1.0, request_id=1)
        tracer.metrics.count("preemptions", 0.0)
        section = telemetry_section(tracer)
        assert section["spans"] == {"QUEUE": 1}
        assert section["metrics"]["counters"] == {"preemptions": 0.0}


@dataclass
class FakeConfig:
    block_size: int
    label: str


class FakePolicy:
    name = "least_queue"


class TestManifest:
    def test_config_snapshot_forms(self):
        assert config_snapshot(None) is None
        assert config_snapshot(3) == 3
        assert config_snapshot("x") == "x"
        assert config_snapshot(FakeConfig(16, "a")) == {"block_size": 16,
                                                        "label": "a"}
        assert config_snapshot(SpanKind.DECODE) == 3
        assert config_snapshot([1, (2, 3)]) == [1, [2, 3]]
        assert config_snapshot({"b": 2, "a": 1}) == {"a": 1, "b": 2}
        assert config_snapshot(FakePolicy()) == "least_queue"
        assert config_snapshot(object()) == "object"

    def test_workload_fingerprint_tracks_the_trace(self):
        first = [request(0, 0.0), request(1, 0.5)]
        same = [request(0, 0.0), request(1, 0.5)]
        different = [request(0, 0.0), request(1, 0.75)]
        assert workload_fingerprint(first) == workload_fingerprint(same)
        assert workload_fingerprint(first) != workload_fingerprint(
            different)
        assert len(workload_fingerprint(first)) == 16

    def test_build_manifest_merges_configs_and_extra(self):
        from repro import __version__

        manifest = build_manifest(
            component="cluster", model="gpt2",
            requests=[request(0)],
            configs={"scheduler": FakeConfig(16, "s"), "router":
                     FakePolicy()},
            extra={"seed": 7})
        assert manifest["repro_version"] == __version__
        assert manifest["component"] == "cluster"
        assert manifest["workload"]["num_requests"] == 1
        assert manifest["scheduler"] == {"block_size": 16, "label": "s"}
        assert manifest["router"] == "least_queue"
        assert manifest["seed"] == 7
        json.dumps(manifest)


def traced_pair():
    """A two-request tracer: one plain, one slower with an interactive
    class and a KV transfer."""
    tracer = Tracer()
    tracer.span(SpanKind.QUEUE, 0.0, 0.1, request_id=0)
    tracer.span(SpanKind.PREFILL_CHUNK, 0.1, 0.3, request_id=0)
    tracer.instant(SpanKind.FIRST_TOKEN, 0.3, request_id=0)
    tracer.span(SpanKind.DECODE, 0.3, 0.5, request_id=0)

    tracer.request_classes[1] = "interactive"
    tracer.span(SpanKind.QUEUE, 0.0, 0.2, request_id=1)
    tracer.span(SpanKind.PREFILL_CHUNK, 0.2, 0.4, request_id=1)
    tracer.span(SpanKind.KV_TRANSFER, 0.4, 1.0, request_id=1, aux=4096.0)
    tracer.instant(SpanKind.FIRST_TOKEN, 1.1, request_id=1)
    tracer.span(SpanKind.DECODE, 1.0, 1.4, request_id=1)
    tracer.metrics.sample("queue_depth", 0.0, 2.0)
    return tracer


class TestAnalysis:
    def test_timeline_boundaries_and_metrics(self):
        timelines = timelines_from_tracer(traced_pair())
        assert [t.request_id for t in timelines] == [0, 1]
        slow = timelines[1]
        assert slow.slo_class == "interactive"
        assert slow.arrival_s == 0.0
        assert slow.finish_s == pytest.approx(1.4)
        assert slow.e2e_s == pytest.approx(1.4)
        assert slow.ttft_s == pytest.approx(1.1)
        assert slow.metric_value("e2e") == slow.e2e_s
        assert slow.metric_value("ttft") == slow.ttft_s

    def test_breakdown_partitions_and_ttft_clips(self):
        slow = timelines_from_tracer(traced_pair())[1]
        e2e = slow.breakdown("e2e")
        assert math.fsum(e2e.values()) == pytest.approx(slow.e2e_s)
        ttft = slow.breakdown("ttft")
        # The DECODE span [1.0, 1.4] is clipped at first token (1.1).
        assert ttft["DECODE"] == pytest.approx(0.1)
        assert math.fsum(ttft.values()) == pytest.approx(slow.ttft_s)

    def test_breakdown_ttft_empty_without_first_token(self):
        timeline = RequestTimeline(0, spans=[("DECODE", 0.0, 1.0, 0.0)])
        assert timeline.breakdown("ttft") == {}
        assert timeline.ttft_s is None

    def test_summarize_groups_by_class(self):
        summary = summarize(timelines_from_tracer(traced_pair()))
        assert summary["requests"] == 2
        assert set(summary["classes"]) == {"all", "interactive"}
        inter = summary["classes"]["interactive"]
        assert inter["requests"] == 1
        assert inter["breakdown_ms"]["KV_TRANSFER"]["share"] == \
            pytest.approx(600.0 / 1400.0)

    def test_summarize_class_filter(self):
        summary = summarize(timelines_from_tracer(traced_pair()),
                            slo_class="interactive")
        assert summary["requests"] == 1
        assert list(summary["classes"]) == ["interactive"]

    def test_critical_path_defaults_to_p95_exemplar(self):
        result = critical_path(timelines_from_tracer(traced_pair()))
        assert result["request"] == 1  # the slower of the two
        assert result["attributed_ms"] == pytest.approx(
            result["latency_ms"])
        assert result["spans"][0]["kind"] == "KV_TRANSFER"

    def test_critical_path_explicit_request_and_errors(self):
        timelines = timelines_from_tracer(traced_pair())
        result = critical_path(timelines, request_id=0, metric="ttft")
        assert result["request"] == 0
        assert result["latency_ms"] == pytest.approx(300.0)
        with pytest.raises(ValueError, match="not in the trace"):
            critical_path(timelines, request_id=99)

    def test_slowest_ranks_and_truncates(self):
        timelines = timelines_from_tracer(traced_pair())
        result = slowest(timelines, n=1)
        assert [row["request"] for row in result["requests"]] == [1]
        assert result["requests"][0]["breakdown_ms"]["KV_TRANSFER"] == \
            pytest.approx(600.0)

    def test_formatters_render_text(self):
        timelines = timelines_from_tracer(traced_pair())
        assert "trace summary: 2 request(s)" in format_summary(
            summarize(timelines))
        assert "KV_TRANSFER" in format_critical_path(
            critical_path(timelines))
        assert "slowest requests" in format_slowest(slowest(timelines))


class TestChromeExport:
    def test_payload_shape(self):
        tracer = traced_pair()
        payload = build_chrome_trace(
            tracer, manifest={"component": "cluster"},
            lanes={0: "replica 0 [unified]"})
        assert payload["displayTimeUnit"] == "ms"
        assert payload["metadata"] == {"component": "cluster"}
        by_ph = {}
        for event in payload["traceEvents"]:
            by_ph.setdefault(event["ph"], []).append(event)
        # Spans, instants, the gauge counter and lane metadata all land.
        assert {e["name"] for e in by_ph["i"]} == {"FIRST_TOKEN"}
        assert any(e["name"] == "KV_TRANSFER" and
                   e["args"]["aux"] == 4096.0 for e in by_ph["X"])
        assert by_ph["C"][0] == {"name": "queue_depth", "cat": "metrics",
                                 "ph": "C", "pid": 0, "ts": 0.0,
                                 "args": {"queue_depth": 2.0}}
        names = {e["args"]["name"] for e in by_ph["M"]
                 if e["name"] == "process_name"}
        assert names == {"fleet", "replica 0 [unified]"}

    def test_durations_are_microseconds(self):
        tracer = Tracer()
        tracer.span(SpanKind.DECODE, 1.0, 1.5, request_id=0, lane=2)
        event = [e for e in build_chrome_trace(tracer)["traceEvents"]
                 if e["ph"] == "X"][0]
        assert event["ts"] == pytest.approx(1.0e6)
        assert event["dur"] == pytest.approx(0.5e6)
        assert event["pid"] == 3  # lane 2 -> pid 3 (fleet is pid 0)
        assert event["tid"] == 0

    def test_roundtrip_through_file(self, tmp_path):
        tracer = traced_pair()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer, manifest={"seed": 0})
        loaded = load_trace(path)
        direct = timelines_from_tracer(tracer)
        assert [t.request_id for t in loaded] == \
            [t.request_id for t in direct]
        for a, b in zip(loaded, direct):
            assert a.slo_class == b.slo_class
            assert a.e2e_s == pytest.approx(b.e2e_s)
            assert a.ttft_s == pytest.approx(b.ttft_s) \
                if b.ttft_s is not None else a.ttft_s is None
            assert a.breakdown() == pytest.approx(b.breakdown())

    def test_chrome_timelines_ignore_fleet_only_noise(self):
        payload = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 0,
             "args": {"name": "fleet"}},
            {"name": "queue_depth", "ph": "C", "pid": 0, "ts": 0.0,
             "args": {"queue_depth": 1.0}},
            {"name": "DRAIN", "ph": "X", "pid": 1, "tid": 0, "ts": 0.0,
             "dur": 5.0, "args": {"request": -1, "aux": 0.0}},
        ]}
        assert timelines_from_chrome(payload) == []
