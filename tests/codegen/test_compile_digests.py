"""Byte pins of the artefacts ``repro compile`` writes.

Each case compiles one GPT-2 block through the CLI and pins the sha256 of
``kernel.cpp``, ``host.cpp`` and ``link.cfg``; a compiler change that moves
any byte of the generated design fails here, naming the file.  The CLI runs
in a fresh interpreter because edge uids come from a process-global counter
and appear in the generated stream names.  ``report.json`` is not pinned: it
records pass timings.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

CASES = {
    "gpt2 prefill explore": (
        "--model gpt2 --mode prefill --seq-len 256 --explore",
        {"kernel.cpp": "1e30d073f3229d24912f548d2bb2d94169c264a0ed510c03820de6f0f854610b",
         "host.cpp": "d473123b5a10490ce599d6051b2db758e7445d4b08e2875daeaf345575b2455c",
         "link.cfg": "2d87902988eb2969c1d0f4ab8486f0f2488f7dd9b2ce527a3e90be1498ffae5d"}),
    "gpt2 decode": (
        "--model gpt2 --mode decode",
        {"kernel.cpp": "272cf1918386d0c48aab69cadda1f81e8f5543f8850f55d8cabc54ee79910cce",
         "host.cpp": "63dc0ebd1bd27cc696f1fcd4a23dadf811334a9ed7836aeb57df87289eca9ace",
         "link.cfg": "333fb59ee4bce95d16dc54cde1e0c1ee781667c578a17494df6763df3bcbd74d"}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_compile_artefact_digests(name, tmp_path):
    flags, digests = CASES[name]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-m", "repro", "compile", *flags.split(),
                    "--out", str(tmp_path)],
                   check=True, env=env, capture_output=True)
    for filename, digest in digests.items():
        actual = hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        assert actual == digest, (
            f"{name}: `repro compile {flags}` moved the bytes of {filename}")
