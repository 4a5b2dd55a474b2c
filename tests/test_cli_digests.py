"""Byte pins of the serving CLI's ``--json`` reports.

Each case is one ``serve-sim`` or ``serve-cluster`` invocation from the CI
smoke runs (``.github/workflows/ci.yml``) with ``--json`` added.  The sha256
of the written file is pinned in ``tests/pins.json`` under the case name, so
a change to how the CLI turns flags into engine, cluster, trace or KV
configuration that moves any report byte fails here, naming the invocation.
"""

import hashlib

import pytest

from repro.cli import main

CASES = {
    "serve-sim smoke": "serve-sim --requests 16 --devices 2",
    "serve-sim kv pressure": (
        "serve-sim --requests 16 --devices 1 --arrival-rate 50 "
        "--kv-capacity-mb 16 --block-size 16 --watermark 0.9 0.7 "
        "--no-baseline"),
    "serve-sim policies and prefix caching": (
        "serve-sim --requests 16 --devices 2 --arrival-rate 40 --policy "
        "priority --priority-levels 3 --router least_queue "
        "--preemption lowest_priority --kv-capacity-mb 256 --prefix-cache "
        "--shared-prefix 64 --no-baseline"),
    "serve-cluster autoscaling": (
        "serve-cluster --requests 24 --replicas 1 --trace flash_crowd "
        "--arrival-rate 4 --burst-rate 40 --router least_queue "
        "--autoscale --slo-ttft-ms 1500 --warmup-s 0.2 --max-replicas 3"),
    "serve-cluster streamed disaggregation": (
        "serve-cluster --requests 24 --arrival-rate 30 --disaggregate "
        "--prefill-replicas 1 --decode-replicas 2 --kv-transfer-gbs 48 "
        "--kv-stream-chunks 4"),
    "serve-cluster hybrid colocation": (
        "serve-cluster --requests 24 --replicas 2 --arrival-rate 40 "
        "--mode hybrid --prefill-token-cap 32"),
    "serve-cluster slo classes": (
        "serve-cluster --requests 24 --replicas 2 --arrival-rate 40 "
        "--scheduler score --slo-class-mix "
        "interactive=1,standard=2,best_effort=1"),
    "serve-cluster tracing": (
        "serve-cluster --requests 24 --arrival-rate 30 --disaggregate "
        "--prefill-replicas 1 --decode-replicas 2 --kv-transfer-gbs 1 "
        "--trace-out {tmp}/trace.json"),
    "serve-cluster faults": (
        "serve-cluster --requests 24 --replicas 3 --arrival-rate 40 "
        "--router least_queue --autoscale --min-replicas 3 "
        "--max-replicas 4 --warmup-s 0.2 "
        "--faults crash@0.3:1,slow@0.1:0x2.0+1 --max-retries 3"),
    "serve-cluster multi_turn": (
        "serve-cluster --requests 24 --replicas 2 --trace multi_turn "
        "--multi-turn 4 --router prefix_affinity --kv-capacity-mb 256 "
        "--prefix-cache"),
    "serve-cluster multi_turn reclaim": (
        "serve-cluster --requests 24 --replicas 2 --trace multi_turn "
        "--router prefix_affinity --kv-capacity-mb 16 --prefix-cache"),
    "serve-cluster multi_turn autoscaled reclaim": (
        "serve-cluster --requests 48 --replicas 4 --trace multi_turn "
        "--router prefix_affinity --autoscale --kv-capacity-mb 16 "
        "--prefix-cache"),
    "serve-cluster multi_turn autoscaled crash retry": (
        "serve-cluster --requests 48 --replicas 4 --trace multi_turn "
        "--router prefix_affinity --autoscale --kv-capacity-mb 16 "
        "--prefix-cache --faults crash@0.6:1 --max-retries 3"),
    "serve-cluster tool_use": (
        "serve-cluster --requests 24 --replicas 2 --trace tool_use "
        "--tool-calls 3 --tool-wait 0.2"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_report_digest(name, tmp_path, capsys, pin):
    argv = CASES[name].replace("{tmp}", str(tmp_path)).split()
    report = tmp_path / "report.json"
    assert main([*argv, "--json", str(report)]) == 0
    capsys.readouterr()
    pin(name, hashlib.sha256(report.read_bytes()).hexdigest())
