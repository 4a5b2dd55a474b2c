"""Lint guard: no module imports a name it never uses.

The guard scans ``src/repro`` and the ``tests``, ``benchmarks`` and
``examples`` trees.  Package ``__init__.py`` files are skipped, since
their imports are the package's exports.  A name counts as used when the
module reads it, as :func:`tests.ast_reads.names_read` defines a read (a
quoted annotation included).  Uses only the standard library, so it runs
in the tier-1 suite without a linter installed.
"""

import ast
from pathlib import Path

from tests.ast_reads import names_read

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """``(line, name)`` of every name ``source`` imports and never reads."""
    imported = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = names_read(source)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_finds_unused_and_accepts_used_names():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from typing import List, Optional\n"
              "from os import path as p\n"
              "def f(x: 'Optional[int]') -> List[int]:\n"
              "    return [x]\n")
    assert unused_imports(source) == [(2, "math"), (4, "p")]


def unused_imports_under(*trees):
    """``path:line: name`` of every unused import below ``trees``."""
    found = []
    for tree in trees:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    return found


def test_no_unused_imports_in_src():
    found = unused_imports_under("src/repro")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_no_unused_imports_in_tests_benchmarks_and_examples():
    found = unused_imports_under("tests", "benchmarks", "examples")
    assert not found, "unused imports:\n" + "\n".join(found)
