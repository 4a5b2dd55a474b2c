"""Byte pins of the serving CLI's ``--json`` reports.

Each case is one ``serve-sim`` or ``serve-cluster`` invocation from the CI
smoke runs (``.github/workflows/ci.yml``) with ``--json`` added.  The sha256
of the written file is pinned, so a change to how the CLI turns flags into
engine, cluster, trace or KV configuration that moves any report byte fails
here, naming the invocation.
"""

import hashlib

import pytest

from repro.cli import main

CASES = {
    "serve-sim smoke": (
        "serve-sim --requests 16 --devices 2",
        "da8c1233ce3089dd1ca6e5117639f7f46589f1818d9e13151f4d3023c300154d"),
    "serve-sim kv pressure": (
        "serve-sim --requests 16 --devices 1 --arrival-rate 50 "
        "--kv-capacity-mb 16 --block-size 16 --watermark 0.9 0.7 "
        "--no-baseline",
        "edea44d5d7701b87a6491c320148067ba71b1ce2ee6bffe9d42938e2f7363388"),
    "serve-sim policies and prefix caching": (
        "serve-sim --requests 16 --devices 2 --arrival-rate 40 --policy "
        "priority --priority-levels 3 --placement least_loaded "
        "--preemption lowest_priority --kv-capacity-mb 256 --prefix-cache "
        "--shared-prefix 64 --no-baseline",
        "4d8577fca28f4f7ba51760834f0e8b571030b84daff4635779696b6c0f68dfff"),
    "serve-cluster autoscaling": (
        "serve-cluster --requests 24 --replicas 1 --trace flash_crowd "
        "--arrival-rate 4 --burst-rate 40 --router least_queue "
        "--autoscale --slo-ttft-ms 1500 --warmup-s 0.2 --max-replicas 3",
        "ddcb1abdf001cb830cf3a7736767215fd88c7ff0423dddffb3b6d3f70859a8f4"),
    "serve-cluster streamed disaggregation": (
        "serve-cluster --requests 24 --arrival-rate 30 --disaggregate "
        "--prefill-replicas 1 --decode-replicas 2 --kv-transfer-gbs 48 "
        "--kv-stream-chunks 4",
        "bf780f9c1aee266c3bf2ead724961e2ef168ef6631ffd46a3e7242bf9278842a"),
    "serve-cluster hybrid colocation": (
        "serve-cluster --requests 24 --replicas 2 --arrival-rate 40 "
        "--mode hybrid --prefill-token-cap 32",
        "1fb6ed67d386e9e6cd8e67a7eb9a3443c77c9acdb8a33c01dc40854af1f22bf5"),
    "serve-cluster slo classes": (
        "serve-cluster --requests 24 --replicas 2 --arrival-rate 40 "
        "--scheduler score --slo-class-mix "
        "interactive=1,standard=2,best_effort=1",
        "298bb969c402f48ac3cc686366dc5d4f243fc2aefb1df419f263612eb6546707"),
    "serve-cluster tracing": (
        "serve-cluster --requests 24 --arrival-rate 30 --disaggregate "
        "--prefill-replicas 1 --decode-replicas 2 --kv-transfer-gbs 1 "
        "--trace-out {tmp}/trace.json",
        "9938cbc4b7e4373f7d9ad56d14c1aad2d9e15cf16a67a7301fc9787ac67d289a"),
    "serve-cluster faults": (
        "serve-cluster --requests 24 --replicas 3 --arrival-rate 40 "
        "--router least_queue --autoscale --min-replicas 3 "
        "--max-replicas 4 --warmup-s 0.2 "
        "--faults crash@0.3:1,slow@0.1:0x2.0+1 --max-retries 3",
        "1a490d1b36c81004757ec78152dba79b7cfc23dd8550e8d49a4daa3cae00487c"),
    "serve-cluster multi_turn": (
        "serve-cluster --requests 24 --replicas 2 --trace multi_turn "
        "--multi-turn 4 --router prefix_affinity --kv-capacity-mb 256 "
        "--prefix-cache",
        "ab3d21ef2c2e08b7233253dd7010e8cf744d1db1e16df5530627cfd8f09df75e"),
    "serve-cluster tool_use": (
        "serve-cluster --requests 24 --replicas 2 --trace tool_use "
        "--tool-calls 3 --tool-wait 0.2",
        "a8ec47ab8a0de03a99768e42dd542e69ac34ef91e2e6c768344a67a1cb179617"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_report_digest(name, tmp_path, capsys):
    command, digest = CASES[name]
    argv = command.replace("{tmp}", str(tmp_path)).split()
    report = tmp_path / "report.json"
    assert main([*argv, "--json", str(report)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, (
        f"{name}: `repro {command} --json` report bytes moved")
