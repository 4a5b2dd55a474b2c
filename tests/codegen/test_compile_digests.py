"""Byte pins of the artefacts ``repro compile`` writes.

Each case compiles one GPT-2 block through the CLI and pins the sha256 of
``kernel.cpp``, ``host.cpp`` and ``link.cfg`` in ``tests/pins.json``
(``<case>/<file>``); a compiler change that moves any byte of the generated
design fails here, naming the file.  Edges are
numbered within their own dataflow graph, so the generated names (``fifo_N``,
``dma_*_N``, ``m_axi_N``, ...) and hence the bytes do not depend on what
else the process compiled before; ``test_recompile_in_one_process`` holds
that.  ``report.json`` is not pinned: it records pass timings.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import MODEL_CONFIGS, StreamTensorCompiler, build_decode_block

SRC = Path(__file__).resolve().parents[2] / "src"

CASES = {
    "gpt2 prefill explore":
        "--model gpt2 --mode prefill --seq-len 256 --explore",
    "gpt2 decode": "--model gpt2 --mode decode",
}
ARTEFACTS = ("kernel.cpp", "host.cpp", "link.cfg")


@pytest.mark.parametrize("name", sorted(CASES))
def test_compile_artefact_digests(name, tmp_path, pin):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-m", "repro", "compile",
                    *CASES[name].split(), "--out", str(tmp_path)],
                   check=True, env=env, capture_output=True)
    for filename in ARTEFACTS:
        pin(f"{name}/{filename}",
            hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest())


def test_recompile_in_one_process():
    """A block compiles to the same bytes after another block was compiled."""
    def artefacts(model):
        config = MODEL_CONFIGS[model]
        result = StreamTensorCompiler().compile(
            build_decode_block(config, kv_len=64), config)
        return {"kernel.cpp": result.hls.source,
                "host.cpp": result.host.source,
                "link.cfg": result.connectivity.text}

    first = artefacts("gpt2")
    artefacts("llama")
    second = artefacts("gpt2")
    for filename, text in first.items():
        assert second[filename] == text, f"recompiling moved {filename}"
