"""End-to-end tracing invariants over the differential matrix.

Three properties make the telemetry layer trustworthy, and each is
asserted here across every configuration of the kernel-differential
matrix (``test_kernel_differential.CONFIGS``):

* **Zero cost when absent** — a run with no tracer and a run with one
  produce the *same* ``ClusterReport`` JSON byte-for-byte once the gated
  ``telemetry`` section is removed.  Tracing is purely observational.

* **Kernel independence** — the event kernel and the step loop emit the
  *identical span multiset* (compared as sorted row tuples) and the
  identical traced report, telemetry section included.  Observability
  must not become a second source of kernel divergence.

* **Exact attribution** — for every request, the :data:`LATENCY_KINDS`
  span durations tile ``[arrival, finish]``: their ``fsum`` reproduces
  the measured e2e latency to float tolerance, and the per-request e2e
  values recovered from spans reproduce the report's latency
  distribution.  This is what makes ``repro trace critical-path`` an
  attribution rather than an estimate.
"""

import json
import math

import pytest

from repro.models.config import GPT2
from repro.serving import Tracer
from repro.serving.cluster import Event, ServingCluster
from repro.serving.telemetry import SpanKind, timelines_from_tracer
from repro.serving.workload_gen import poisson_trace

from tests.serving.cluster.test_kernel_differential import CONFIGS

TOLERANCE_S = 1e-9


def run_traced(kernel, kwargs, trace):
    tracer = Tracer()
    cluster = ServingCluster(GPT2, kernel=kernel, tracer=tracer, **kwargs)
    return cluster, cluster.run(trace), tracer


def payload_without_telemetry(report):
    payload = report.to_dict()
    payload.pop("telemetry")
    return payload


class TestTracingInvariants:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_tracing_is_free_kernel_independent_and_exact(self, name):
        kwargs, trace = CONFIGS[name]
        untraced = ServingCluster(GPT2, kernel="event", **kwargs)
        untraced_payload = untraced.run(trace).to_dict()
        _, event_report, event_tracer = run_traced("event", kwargs, trace)
        _, step_report, step_tracer = run_traced("step", kwargs, trace)

        # 1. Tracing changes nothing the untraced run reported.
        assert json.dumps(payload_without_telemetry(event_report),
                          sort_keys=True) \
            == json.dumps(untraced_payload, sort_keys=True)

        # 2. Both kernels record the identical span multiset and the
        #    identical traced report (telemetry section included).
        assert event_tracer.sorted_tuples() == step_tracer.sorted_tuples()
        assert json.dumps(event_report.to_dict(), sort_keys=True) \
            == json.dumps(step_report.to_dict(), sort_keys=True)

        # 3. Per-request latency spans tile [arrival, finish] exactly,
        #    and the span-derived e2e distribution reproduces the
        #    report's (count exact, moments to float tolerance).
        timelines = timelines_from_tracer(event_tracer)
        assert len(timelines) == event_report.completed
        for timeline in timelines:
            tiled = math.fsum(end - start
                              for _, start, end, _ in timeline.spans)
            assert abs(tiled - timeline.e2e_s) <= TOLERANCE_S, \
                f"request {timeline.request_id}: spans sum to {tiled}, " \
                f"lifetime is {timeline.e2e_s}"
        e2e = event_report.to_dict()["e2e_latency_ms"]
        values = [t.e2e_s * 1e3 for t in timelines]
        assert e2e["count"] == len(values)
        assert e2e["mean"] == pytest.approx(
            sum(values) / len(values), abs=1e-6)
        assert e2e["max"] == pytest.approx(max(values), abs=1e-6)

    def test_traced_report_carries_telemetry_section(self):
        kwargs, trace = CONFIGS["fixed_least_queue"]
        _, report, tracer = run_traced("event", kwargs, trace)
        section = report.to_dict()["telemetry"]
        assert section["spans"] == tracer.span_counts()
        assert {"QUEUE", "ADMIT", "PREFILL_CHUNK", "DECODE",
                "FIRST_TOKEN"} <= set(section["spans"])
        counters = section["metrics"]["counters"]
        assert {"kv_migrations", "kv_bytes_transferred",
                "kv_stall_seconds", "preemptions"} <= set(counters)
        gauges = section["metrics"]["gauges"]
        assert {"queue_depth", "value_load", "active_replicas",
                "migrations_in_flight"} <= set(gauges)
        assert gauges["queue_depth"]["samples"] > 0

    def test_transfer_spans_cover_migrated_requests(self):
        """Every migration records a fleet-lane KV_TRANSFER span whose
        aux is the payload bytes; streamed configs add per-chunk wire
        spans."""
        kwargs, trace = CONFIGS["disagg_streamed_kv"]
        cluster, report, tracer = run_traced("event", kwargs, trace)
        counts = tracer.span_counts()
        assert counts["KV_TRANSFER"] == report.kv_migrations
        assert counts["STREAM_CHUNK"] == cluster.kv_chunks_landed
        transfer_bytes = sum(
            row[5] for row in tracer.rows()
            if int(row[0]) == SpanKind.KV_TRANSFER)
        assert transfer_bytes == pytest.approx(
            report.kv_bytes_transferred)

    def test_stall_spans_on_slow_streams(self):
        kwargs, trace = CONFIGS["disagg_streamed_stalling"]
        _, report, tracer = run_traced("event", kwargs, trace)
        assert tracer.span_counts().get("KV_STALL", 0) >= \
            report.kv_stall_steps

    def test_preempt_resume_markers_match_report(self):
        kwargs, trace = CONFIGS["kv_pressure_preempting"]
        _, report, tracer = run_traced("event", kwargs, trace)
        counts = tracer.span_counts()
        assert counts["PREEMPT"] == report.preemptions
        assert counts["RESUME"] == counts["PREEMPT"]

    def test_drain_spans_on_scaled_down_replicas(self):
        """Every replica the autoscaler drained leaves a DRAIN span on
        its own lane."""
        kwargs, trace = CONFIGS["autoscaled_slo_flash_crowd"]
        cluster, _, tracer = run_traced("event", kwargs, trace)
        drained = [replica for replica in cluster.replicas
                   if replica.drain_s is not None]
        drain_rows = [row for row in tracer.rows()
                      if int(row[0]) == SpanKind.DRAIN]
        assert len(drain_rows) == len(drained) >= 1
        assert {int(row[2]) for row in drain_rows} == \
            {replica.device_id for replica in drained}

    def test_first_token_instants_bound_ttft(self):
        kwargs, trace = CONFIGS["single_replica"]
        _, report, tracer = run_traced("event", kwargs, trace)
        timelines = timelines_from_tracer(tracer)
        ttfts = sorted(t.ttft_s for t in timelines)
        payload = report.to_dict()["ttft_ms"]
        assert payload["count"] == len(ttfts)
        assert payload["max"] == pytest.approx(ttfts[-1] * 1e3, abs=1e-6)


class TestManifest:
    def test_manifest_is_kernel_independent_and_descriptive(self):
        kwargs, trace = CONFIGS["disagg_autoscaled"]
        _, event_report, _ = run_traced("event", kwargs, trace)
        _, step_report, _ = run_traced("step", kwargs, trace)
        manifest = event_report.manifest
        assert manifest == step_report.manifest
        assert manifest["component"] == "cluster"
        assert manifest["model"] == GPT2.name
        assert "kernel" not in manifest  # implementation detail
        assert manifest["workload"]["num_requests"] == len(trace)
        assert manifest["disaggregation"]["prefill_replicas"] == 2
        assert manifest["autoscaler"]["slo_tpot_s"] == 0.05
        json.dumps(manifest)

    def test_manifest_present_without_a_tracer(self):
        kwargs, trace = CONFIGS["single_replica"]
        report = ServingCluster(GPT2, kernel="event", **kwargs).run(trace)
        assert report.manifest["component"] == "cluster"

    def test_manifest_extra_lands_verbatim(self):
        kwargs, trace = CONFIGS["single_replica"]
        cluster = ServingCluster(GPT2, kernel="event", **kwargs)
        report = cluster.run(trace, manifest_extra={"seed": 42})
        assert report.manifest["seed"] == 42

    def test_fixed_fleet_manifest_and_gated_telemetry(self):
        trace = poisson_trace(24, 12.0, seed=0)
        untraced = ServingCluster(GPT2, initial_replicas=2).run(trace)
        assert untraced.manifest["component"] == "cluster"
        assert "telemetry" not in untraced.to_dict()

        tracer = Tracer()
        traced = ServingCluster(GPT2, initial_replicas=2, tracer=tracer) \
            .run(trace)
        payload = traced.to_dict()
        assert payload["telemetry"]["spans"] == tracer.span_counts()
        payload.pop("telemetry")
        assert json.dumps(payload, sort_keys=True) \
            == json.dumps(untraced.to_dict(), sort_keys=True)
        timelines = timelines_from_tracer(tracer)
        assert len(timelines) == traced.completed
        for timeline in timelines:
            tiled = math.fsum(end - start
                              for _, start, end, _ in timeline.spans)
            assert abs(tiled - timeline.e2e_s) <= TOLERANCE_S


class TestRecordEventsView:
    """``record_events`` survives as a thin view over the tracer's
    kernel log — the one event-materialization path."""

    def test_event_log_without_user_tracer(self):
        kwargs, trace = CONFIGS["single_replica"]
        cluster = ServingCluster(GPT2, kernel="event", **kwargs)
        assert cluster.last_event_log is None
        cluster.record_events = True
        cluster.run(trace)
        log = cluster.last_event_log
        assert len(log) == cluster.events_processed
        assert all(isinstance(event, Event) for event in log)
        # Popped order is the kernel's delivery order.
        assert [e.time_s for e in log] == sorted(e.time_s for e in log)

    def test_event_log_lands_on_user_tracer(self):
        kwargs, trace = CONFIGS["single_replica"]
        tracer = Tracer()
        cluster = ServingCluster(GPT2, kernel="event", tracer=tracer,
                                 **kwargs)
        cluster.record_events = True
        cluster.run(trace)
        assert tracer.kernel_events() is not None
        assert cluster.last_event_log == tracer.kernel_events()

    def test_step_kernel_records_no_events(self):
        kwargs, trace = CONFIGS["single_replica"]
        cluster = ServingCluster(GPT2, kernel="step", **kwargs)
        cluster.record_events = True
        cluster.run(trace)
        assert cluster.last_event_log is None
