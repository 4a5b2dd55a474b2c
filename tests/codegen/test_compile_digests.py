"""Byte pins of the artefacts ``repro compile`` writes.

Each case compiles one GPT-2 block through the CLI and pins the sha256 of
``kernel.cpp``, ``host.cpp`` and ``link.cfg``; a compiler change that moves
any byte of the generated design fails here, naming the file.  Edges are
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
    "gpt2 prefill explore": (
        "--model gpt2 --mode prefill --seq-len 256 --explore",
        {"kernel.cpp": "a675e086b6e35f3001dda60c54f53104ca433134dfd7cad260d7fdd3a9e663a2",
         "host.cpp": "ff094bdd6e4e7e811bce4cf8e293e9d68e990c905ed67276baefe6af81863f06",
         "link.cfg": "e537f68559e21a7a2a383866ca78c0dd9623b7b0762c3c7a78436b4ada1d7435"}),
    "gpt2 decode": (
        "--model gpt2 --mode decode",
        {"kernel.cpp": "eff5b01f29fcf0af11bb5b8fa0f1128e8e6a689db58bc9c25a78a9fd56a678a2",
         "host.cpp": "bd2096464e6467abfb3fd57fb039b35496d15ce2cab8404f302fa45fa7fe1225",
         "link.cfg": "c6971d51dff4b50be59dfb96a9401394ffc431c13ee3a879d5a46fd72f91e54b"}),
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
