"""Machine-readable benchmark artifacts: ``BENCH_serving.json``,
``BENCH_cluster.json`` and ``BENCH_compiler.json``.

Every serving benchmark records its headline numbers here; the conftest
session hook writes the collected entries once the run finishes — fixed-
fleet serving scenarios to ``benchmarks/BENCH_serving.json``
(:func:`record`), cluster scenarios to ``benchmarks/BENCH_cluster.json``
(:func:`record_cluster`).
CI uploads both files as build artifacts, so the serving perf trajectory
(throughput, TTFT/TPOT percentiles, preemptions, prefix hit rate, fleet
scaling, SLO attainment, replica-seconds) is tracked across PRs instead of
living only in pytest stdout.  The format is flat on purpose — one entry
per benchmark scenario, every value a number — so diffing two PRs'
artifacts is a one-liner.  The only non-numeric values are the two
provenance fields stamped on every entry (``git_sha`` and the wall-clock
``recorded_at`` date), which pin each artifact to the commit and day it
was measured.  A third file, ``BENCH_manifests.json``, keeps each entry's
full run manifest (config snapshot + workload fingerprint) so ``python -m
repro reproduce`` can regenerate — and ``--check`` can verify — every
entry from a fresh clone.

``BENCH_compiler.json`` records the median seconds of each compiler
benchmark (:func:`record_compiler`).  It is written only when the
benchmarks are timed, so ``repro reproduce``, which runs them with
``--benchmark-disable``, neither regenerates nor checks it.
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional

ARTIFACT_PATH = Path(__file__).resolve().parent / "BENCH_serving.json"
CLUSTER_ARTIFACT_PATH = Path(__file__).resolve().parent / "BENCH_cluster.json"
MANIFEST_ARTIFACT_PATH = Path(__file__).resolve().parent \
    / "BENCH_manifests.json"
COMPILER_ARTIFACT_PATH = Path(__file__).resolve().parent \
    / "BENCH_compiler.json"

_entries: Dict[str, dict] = {}
_cluster_entries: Dict[str, dict] = {}
_compiler_entries: Dict[str, dict] = {}
_manifests: Dict[str, dict] = {}
_provenance_cache: Optional[Dict[str, str]] = None


def _provenance() -> Dict[str, str]:
    """Commit + date stamp shared by every entry recorded this session:
    the short git SHA (``"unknown"`` outside a work tree) and the UTC
    date the benchmark ran."""
    global _provenance_cache
    if _provenance_cache is None:
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, check=True,
                cwd=Path(__file__).resolve().parent).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = ""
        _provenance_cache = {
            "git_sha": sha or "unknown",
            "recorded_at": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        }
    return dict(_provenance_cache)


def record(name: str, report, **extra) -> None:
    """Register one serving scenario's outcome under ``name``.

    ``report`` is the :class:`~repro.serving.cluster.ClusterReport` of a
    fixed fleet; ``extra`` adds scenario-specific scalars (speedups, sweep
    parameters, …).
    Re-recording a name overwrites it, so parametrised reruns stay
    idempotent.
    """
    if report.manifest is not None:
        _manifests[name] = report.manifest
    _entries[name] = {
        **_provenance(),
        "completed": report.completed,
        "num_requests": report.num_requests,
        "tokens_per_s": report.fleet_tokens_per_s,
        "makespan_s": report.makespan_s,
        "ttft_ms_p50": report.ttft.p50 * 1e3,
        "ttft_ms_p99": report.ttft.p99 * 1e3,
        "ttft_ms_mean": report.ttft.mean * 1e3,
        "tpot_ms_p50": report.tpot.p50 * 1e3,
        "tpot_ms_p99": report.tpot.p99 * 1e3,
        "preemptions": report.preemptions,
        "prefix_hit_rate": report.prefix_hit_rate,
        **extra,
    }


def record_cluster(name: str, report, **extra) -> None:
    """Register one cluster scenario's outcome under ``name``.

    ``report`` is a :class:`~repro.serving.cluster.ClusterReport`; ``extra``
    adds scenario-specific scalars (scaling factors, sweep parameters, …).
    """
    if report.manifest is not None:
        _manifests[name] = report.manifest
    entry = {
        **_provenance(),
        "completed": report.completed,
        "num_requests": report.num_requests,
        "fleet_tokens_per_s": report.fleet_tokens_per_s,
        "makespan_s": report.makespan_s,
        "ttft_ms_p50": report.ttft.p50 * 1e3,
        "ttft_ms_p95": report.ttft.p95 * 1e3,
        "ttft_ms_p99": report.ttft.p99 * 1e3,
        "replica_seconds": report.replica_seconds,
        "peak_replicas": report.peak_replicas,
        "preemptions": report.preemptions,
        **extra,
    }
    # Key present only when an SLO was configured, keeping the flat
    # every-value-a-number contract for numeric diffing.
    if report.slo_attainment is not None:
        entry["slo_attainment"] = report.slo_attainment
    _cluster_entries[name] = entry


def record_compiler(benchmark, **extra) -> None:
    """Register a timed compiler benchmark's median seconds under its
    test name; ``extra`` adds scalars of the compile it timed.  An untimed
    run (``--benchmark-disable``) records nothing."""
    if benchmark.stats is None:
        return
    stats = benchmark.stats.stats
    _compiler_entries[benchmark.name] = {
        **_provenance(),
        "median_s": stats.median,
        "rounds": stats.rounds,
        **extra,
    }


def write(path: Path = ARTIFACT_PATH,
          cluster_path: Path = CLUSTER_ARTIFACT_PATH,
          manifest_path: Path = MANIFEST_ARTIFACT_PATH,
          compiler_path: Path = COMPILER_ARTIFACT_PATH) -> Path:
    """Write the collected entries (sorted by name) as JSON; returns the
    serving-artifact path.  Each file is a no-op when nothing was recorded
    for it.  ``REPRO_BENCH_DIR`` redirects every artifact into that
    directory (creating it) — ``repro reproduce --check`` uses this to
    regenerate into a scratch directory without touching the committed
    files.

    Alongside the numeric artifacts, ``BENCH_manifests.json`` records
    each entry's run manifest (config snapshot + workload fingerprint,
    captured from ``report.manifest``) — the provenance ``repro
    reproduce`` regenerates every entry from.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        base = Path(override)
        base.mkdir(parents=True, exist_ok=True)
        path = base / ARTIFACT_PATH.name
        cluster_path = base / CLUSTER_ARTIFACT_PATH.name
        manifest_path = base / MANIFEST_ARTIFACT_PATH.name
        compiler_path = base / COMPILER_ARTIFACT_PATH.name
    if _entries:
        path.write_text(json.dumps(dict(sorted(_entries.items())), indent=2)
                        + "\n")
    if _cluster_entries:
        cluster_path.write_text(
            json.dumps(dict(sorted(_cluster_entries.items())), indent=2)
            + "\n")
    if _manifests:
        manifest_path.write_text(
            json.dumps(dict(sorted(_manifests.items())), indent=2) + "\n")
    if _compiler_entries:
        compiler_path.write_text(
            json.dumps(dict(sorted(_compiler_entries.items())), indent=2)
            + "\n")
    return path
