"""What importing the package and compiling a block load.

scipy serves only the compiler's FIFO-sizing LP, so a serving user should
not pay for importing it; no part of the package needs networkx at all.
Each check runs in a fresh interpreter, since this test process has long
since imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(code):
    """Which of scipy and networkx a fresh interpreter holds after code."""
    code += ("; import sys; print(sorted(name for name in "
             "('scipy', 'networkx') if name in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip().splitlines()[-1]


def test_serving_import_loads_no_solver():
    assert loaded_after("import repro, repro.serving") == "[]"


def test_compile_loads_no_networkx():
    code = ("from repro import GPT2, StreamTensorCompiler, "
            "build_decode_block; StreamTensorCompiler().compile("
            "build_decode_block(GPT2, kv_len=64), GPT2)")
    assert loaded_after(code) == "['scipy']"
