"""Per-request call budget of a short-output serving run.

With 2-4-token outputs a serving run's cost is the fixed path each
request takes from its trace row to its finish: conversion, dispatch,
admission, the first token and the finish.  This check counts the Python
function calls that path makes into ``repro``, per request.  It is a
count, not a timing, so it does not flake; it fails when a change adds
calls to that path.

The bound is the count measured on CPython 3.11 (15.36 calls per request;
26.46 before the per-request trims that introduced this check) plus ~5%.
Later CPython versions inline more (3.12 inlines comprehensions), so they
count fewer calls, not more.
"""

import os
import sys
from pathlib import Path

import repro
from repro.models.config import GPT2
from repro.serving import SchedulerConfig, ServingCluster, diurnal_trace

CALLS_PER_REQUEST_BOUND = 16.1

PACKAGE = str(Path(repro.__file__).resolve().parent) + os.sep


def _calls_per_request():
    trace = diurnal_trace(2000, 2000.0, 8000.0, period_s=60.0, seed=1,
                          input_choices=(16, 32), output_choices=(2, 4))
    cluster = ServingCluster(GPT2, initial_replicas=8, router="round_robin",
                             scheduler_config=SchedulerConfig(
                                 max_batch_size=64, token_budget=4096))
    calls = [0]
    filenames = {}

    def count(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            inside = filenames.get(filename)
            if inside is None:
                inside = filenames[filename] = \
                    str(Path(filename).resolve()).startswith(PACKAGE)
            calls[0] += inside

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        report = cluster.run(trace)
    finally:
        sys.setprofile(previous)
    assert report.completed == len(trace)
    return calls[0] / len(trace)


def test_calls_per_request_within_budget():
    per_request = _calls_per_request()
    assert per_request <= CALLS_PER_REQUEST_BOUND, (
        f"{per_request:.2f} calls into repro per request, budget "
        f"{CALLS_PER_REQUEST_BOUND}")
