"""Trace analysis: latency decomposition over recorded span timelines.

The engine behind ``repro trace``.  A Chrome trace file (or a live
:class:`~repro.serving.telemetry.tracer.Tracer`) becomes a list of
:class:`RequestTimeline` records, and three queries decompose them:

* :func:`summarize` — fleet-wide p50/p95/p99 time-breakdown per SLO
  class: for each span kind, the distribution of per-request totals,
  plus each kind's share of all accounted time;
* :func:`critical_path` — one request's latency split into span
  contributions, largest first.  With no explicit request it picks the
  p95 exemplar (the request at the 95th-percentile rank of the chosen
  metric), i.e. "*why* is p95 what it is";
* :func:`slowest` — the top-N requests by a metric, each with its
  breakdown.

Because the tracer's latency spans partition ``[arrival, finish]``, the
per-request contributions sum to the measured latency — the breakdown is
an attribution, not a sampling estimate.  For ``metric="ttft"`` spans
are clipped to ``[arrival, first_token]`` so the same partition property
holds for the TTFT window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serving.metrics import percentile
from repro.serving.telemetry.tracer import LATENCY_KINDS, SpanKind, Tracer

#: Kind names whose durations partition a request's lifetime.
LATENCY_KIND_NAMES = tuple(sorted(kind.name for kind in LATENCY_KINDS))


@dataclass
class RequestTimeline:
    """One request's recorded spans plus derived boundary times."""

    request_id: int
    slo_class: Optional[str] = None
    #: (kind name, start_s, end_s, aux), latency kinds only.
    spans: List[Tuple[str, float, float, float]] = field(
        default_factory=list)
    first_token_s: Optional[float] = None

    @property
    def arrival_s(self) -> float:
        return min(span[1] for span in self.spans)

    @property
    def finish_s(self) -> float:
        return max(span[2] for span in self.spans)

    @property
    def e2e_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> Optional[float]:
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    def metric_value(self, metric: str) -> Optional[float]:
        """The request's value for ``metric`` ("e2e" or "ttft")."""
        return self.e2e_s if metric == "e2e" else self.ttft_s

    def breakdown(self, metric: str = "e2e") -> Dict[str, float]:
        """Seconds attributed to each span kind within the metric's
        window (full lifetime for "e2e"; clipped to first-token for
        "ttft")."""
        clip = None
        if metric == "ttft":
            if self.first_token_s is None:
                return {}
            clip = self.first_token_s
        totals: Dict[str, float] = {}
        for kind, start, end, _ in self.spans:
            if clip is not None:
                end = min(end, clip)
                if end <= start:
                    continue
            totals[kind] = totals.get(kind, 0.0) + (end - start)
        return totals


def timelines_from_tracer(tracer: Tracer) -> List[RequestTimeline]:
    """Per-request timelines from a live tracer's columnar spans."""
    timelines: Dict[int, RequestTimeline] = {}
    classes = tracer.request_classes
    for row in tracer.rows():
        request_id = int(row[1])
        if request_id < 0:
            continue
        kind = SpanKind(int(row[0]))
        timeline = timelines.get(request_id)
        if timeline is None:
            timeline = timelines[request_id] = RequestTimeline(
                request_id, slo_class=classes.get(request_id))
        if kind is SpanKind.FIRST_TOKEN:
            timeline.first_token_s = float(row[3])
        elif kind in LATENCY_KINDS:
            timeline.spans.append((kind.name, float(row[3]),
                                   float(row[4]), float(row[5])))
    return _finalize(timelines)


def timelines_from_chrome(payload: dict) -> List[RequestTimeline]:
    """Per-request timelines from a Chrome trace-event payload.

    Raises :class:`ValueError` when the payload is valid JSON but not a
    Chrome trace — e.g. ``[]``, ``null``, or an object whose
    ``traceEvents`` is not a list.  Anything a tracer did not write
    should fail loudly here, not crash deep inside the span loop.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            "not a Chrome trace payload: expected a JSON object with a "
            f"'traceEvents' list, got {type(payload).__name__}")
    events = payload.get("traceEvents", ())
    if not isinstance(events, (list, tuple)):
        raise ValueError(
            "not a Chrome trace payload: 'traceEvents' must be a list, "
            f"got {type(events).__name__}")
    timelines: Dict[int, RequestTimeline] = {}
    for event in events:
        if not isinstance(event, dict):
            raise ValueError(
                "not a Chrome trace payload: every trace event must be "
                f"an object, got {type(event).__name__}")
        args = event.get("args") or {}
        request_id = args.get("request", -1)
        name = event.get("name", "")
        if request_id is None or request_id < 0:
            continue
        timeline = timelines.get(request_id)
        if timeline is None:
            timeline = timelines[request_id] = RequestTimeline(
                request_id, slo_class=args.get("slo_class"))
        elif timeline.slo_class is None:
            timeline.slo_class = args.get("slo_class")
        start_s = event.get("ts", 0.0) / 1e6
        if event.get("ph") == "i" and name == SpanKind.FIRST_TOKEN.name:
            timeline.first_token_s = start_s
        elif event.get("ph") == "X" and name in LATENCY_KIND_NAMES:
            end_s = start_s + event.get("dur", 0.0) / 1e6
            timeline.spans.append((name, start_s, end_s,
                                   args.get("aux", 0.0)))
    return _finalize(timelines)


def load_trace(path) -> List[RequestTimeline]:
    """Timelines from a Chrome trace JSON file on disk."""
    with open(path) as handle:
        return timelines_from_chrome(json.load(handle))


def _finalize(timelines: Dict[int, RequestTimeline]
              ) -> List[RequestTimeline]:
    out = [t for t in timelines.values() if t.spans]
    for timeline in out:
        timeline.spans.sort(key=lambda span: (span[1], span[2], span[0]))
    out.sort(key=lambda t: t.request_id)
    return out


def _filter(timelines: Sequence[RequestTimeline],
            slo_class: Optional[str]) -> List[RequestTimeline]:
    if slo_class is None:
        return list(timelines)
    return [t for t in timelines if t.slo_class == slo_class]


def _pct_ms(values: List[float]) -> dict:
    return {"p50": percentile(values, 50.0) * 1e3,
            "p95": percentile(values, 95.0) * 1e3,
            "p99": percentile(values, 99.0) * 1e3}


def summarize(timelines: Sequence[RequestTimeline],
              slo_class: Optional[str] = None) -> dict:
    """Fleet-wide per-class time breakdown: for each span kind the
    p50/p95/p99 of per-request totals and its share of accounted time."""
    timelines = _filter(timelines, slo_class)
    by_class: Dict[str, List[RequestTimeline]] = {}
    for timeline in timelines:
        by_class.setdefault(timeline.slo_class or "all", []).append(
            timeline)

    classes = {}
    for name, members in sorted(by_class.items()):
        breakdowns = [t.breakdown() for t in members]
        e2e = [t.e2e_s for t in members]
        ttfts = [t.ttft_s for t in members if t.ttft_s is not None]
        total_s = sum(e2e)
        kinds = {}
        for kind in LATENCY_KIND_NAMES:
            totals = [b.get(kind, 0.0) for b in breakdowns]
            if not any(totals):
                continue
            kinds[kind] = dict(_pct_ms(totals),
                               share=sum(totals) / total_s
                               if total_s > 0 else 0.0)
        classes[name] = {
            "requests": len(members),
            "e2e_ms": _pct_ms(e2e),
            "ttft_ms": _pct_ms(ttfts) if ttfts else None,
            "breakdown_ms": kinds,
        }
    return {"requests": len(timelines), "classes": classes}


def _exemplar(timelines: List[RequestTimeline],
              metric: str) -> RequestTimeline:
    """The p95 exemplar: the request sitting at the 95th-percentile rank
    of the metric (deterministic: ties break on request id)."""
    ranked = sorted((t for t in timelines
                     if t.metric_value(metric) is not None),
                    key=lambda t: (t.metric_value(metric), t.request_id))
    if not ranked:
        raise ValueError(f"no requests carry the {metric!r} metric")
    index = min(len(ranked) - 1, round(0.95 * (len(ranked) - 1)))
    return ranked[index]


def critical_path(timelines: Sequence[RequestTimeline],
                  request_id: Optional[int] = None,
                  metric: str = "e2e",
                  slo_class: Optional[str] = None) -> dict:
    """One request's latency decomposed into span contributions,
    largest first.  Defaults to the p95 exemplar of ``metric``."""
    timelines = _filter(timelines, slo_class)
    if request_id is not None:
        matches = [t for t in timelines if t.request_id == request_id]
        if not matches:
            raise ValueError(f"request {request_id} is not in the trace")
        timeline = matches[0]
    else:
        timeline = _exemplar(timelines, metric)

    value = timeline.metric_value(metric)
    if value is None:
        raise ValueError(f"request {timeline.request_id} never emitted a "
                         f"first token; no {metric!r} to decompose")
    breakdown = timeline.breakdown(metric)
    spans = [{"kind": kind, "ms": seconds * 1e3,
              "share": seconds / value if value > 0 else 0.0}
             for kind, seconds in sorted(breakdown.items(),
                                         key=lambda kv: (-kv[1], kv[0]))]
    return {
        "request": timeline.request_id,
        "slo_class": timeline.slo_class,
        "metric": metric,
        "latency_ms": value * 1e3,
        "attributed_ms": sum(span["ms"] for span in spans),
        "spans": spans,
    }


def slowest(timelines: Sequence[RequestTimeline], n: int = 10,
            metric: str = "e2e",
            slo_class: Optional[str] = None) -> dict:
    """The top-``n`` requests by ``metric``, each with its breakdown."""
    timelines = [t for t in _filter(timelines, slo_class)
                 if t.metric_value(metric) is not None]
    ranked = sorted(timelines,
                    key=lambda t: (-t.metric_value(metric), t.request_id))
    rows = []
    for timeline in ranked[:n]:
        rows.append({
            "request": timeline.request_id,
            "slo_class": timeline.slo_class,
            "e2e_ms": timeline.e2e_s * 1e3,
            "ttft_ms": None if timeline.ttft_s is None
            else timeline.ttft_s * 1e3,
            "breakdown_ms": {kind: seconds * 1e3 for kind, seconds
                             in sorted(timeline.breakdown(metric).items())},
        })
    return {"metric": metric, "requests": rows}


# ----------------------------------------------------------------------
# Text rendering (the CLI's non-JSON output)
# ----------------------------------------------------------------------
def format_summary(summary: dict) -> str:
    lines = [f"trace summary: {summary['requests']} request(s)"]
    for name, entry in summary["classes"].items():
        e2e = entry["e2e_ms"]
        lines.append(f"  class {name}: {entry['requests']} request(s), "
                     f"e2e p50 {e2e['p50']:.1f} ms  "
                     f"p95 {e2e['p95']:.1f} ms  p99 {e2e['p99']:.1f} ms")
        if entry["ttft_ms"] is not None:
            ttft = entry["ttft_ms"]
            lines.append(f"    ttft p50 {ttft['p50']:.1f} ms  "
                         f"p95 {ttft['p95']:.1f} ms  "
                         f"p99 {ttft['p99']:.1f} ms")
        for kind, stats in sorted(entry["breakdown_ms"].items(),
                                  key=lambda kv: -kv[1]["share"]):
            lines.append(f"    {kind:<14} share {stats['share'] * 100:5.1f}%"
                         f"  p50 {stats['p50']:9.2f} ms"
                         f"  p95 {stats['p95']:9.2f} ms"
                         f"  p99 {stats['p99']:9.2f} ms")
    return "\n".join(lines)


def format_critical_path(result: dict) -> str:
    suffix = f" [{result['slo_class']}]" if result["slo_class"] else ""
    lines = [f"request {result['request']}{suffix}: "
             f"{result['metric']} {result['latency_ms']:.2f} ms "
             f"({result['attributed_ms']:.2f} ms attributed)"]
    for span in result["spans"]:
        lines.append(f"  {span['kind']:<14} {span['ms']:10.2f} ms  "
                     f"{span['share'] * 100:5.1f}%")
    return "\n".join(lines)


def format_slowest(result: dict) -> str:
    lines = [f"slowest requests by {result['metric']}:"]
    for row in result["requests"]:
        suffix = f" [{row['slo_class']}]" if row["slo_class"] else ""
        ttft = ("-" if row["ttft_ms"] is None
                else f"{row['ttft_ms']:.1f}")
        top = max(row["breakdown_ms"].items(),
                  key=lambda kv: kv[1], default=("-", 0.0))
        lines.append(f"  request {row['request']:>6}{suffix}: "
                     f"e2e {row['e2e_ms']:9.2f} ms, ttft {ttft:>9} ms, "
                     f"dominated by {top[0]} ({top[1]:.2f} ms)")
    return "\n".join(lines)
