"""Importing the package and its serving stack loads no compiler solver.

scipy and networkx serve only the compiler's LP and ILP; a serving user
should not pay for importing them.  The check runs in a fresh interpreter,
since this test process has long since imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_serving_import_loads_no_solver():
    code = ("import sys, repro, repro.serving; "
            "print(sorted(name for name in ('scipy', 'networkx') "
            "if name in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
