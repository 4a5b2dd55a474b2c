"""Lint guard: every definition in ``src/repro`` has a reader outside the tests.

A definition is a module-level function or class, or a method or class
nested in a class.  It is read when a module of ``src``, ``benchmarks``,
``examples`` or ``perfbench`` reads its name, as
:func:`tests.ast_reads.names_read` defines a read.  That counts the dotted
string constants ``perfbench/layers.py`` wraps methods by
(``"EventQueue.push"``, ``KV_MUTATORS``).  Special methods (``__repr__``,
``__post_init__``, ...) are read by Python itself and never flagged.

The scan goes by name, so a name shared with a live definition hides a dead
one.  A definition that only tests read is deleted with those tests, or
listed in :data:`ALLOWED` with the reason it stays.
"""

import ast
from pathlib import Path

from tests.ast_reads import names_read

ROOT = Path(__file__).resolve().parents[1]
READER_TREES = ("src", "benchmarks", "examples", "perfbench")

#: Definitions kept without a reader outside the tests, and why.
ALLOWED = {
    "repro.compiler.pipeline.compile_model_block":
        "the library entry point README.md documents",
    "repro.itensor.itensor_type.itensor_from_tiling":
        "the itensor front end DESIGN.md documents",
    "repro.serving.workload_gen.trace_from_specs":
        "the trace generator docs/serving_tour.md documents",
    "repro.resource.token_model.simulate_max_tokens":
        "the cycle-stepped reference the closed-form FIFO bound is "
        "compared against",
    "repro.serving.request.ServingRequest.queue_wait_s":
        "the reference the inline queue-wait metric rows are compared "
        "against",
    "repro.serving.request.ServingRequest.tpot_s":
        "the reference the inline TPOT metric rows are compared against",
    "repro.serving.telemetry.tracer.Tracer.sorted_tuples":
        "the canonical span form the event-vs-step kernel tests compare",
    "repro.serving.cluster.cluster.ServingCluster.last_event_log":
        "the typed event log the kernel invariant tests replay",
    "repro.serving.cluster.router.PrefixAffinityRouting.pinned_groups":
        "the live pin count the router's boundedness tests check",
}


def definitions(tree, prefix):
    """``(qualified name, node)`` of every module-level function and
    class of ``tree`` and, recursively, of every method and nested class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            yield name, node
            if isinstance(node, ast.ClassDef):
                yield from definitions(node, name)


def unread_definitions(modules, readers, allowed):
    """Qualified names of the definitions in ``modules`` (module name ->
    source) whose name no source in ``readers`` reads, minus ``allowed``."""
    read = set()
    for source in readers:
        read |= names_read(source)
    unread = []
    for module, source in modules.items():
        for name, node in definitions(ast.parse(source), module):
            special = node.name.startswith("__") and node.name.endswith("__")
            if not special and node.name not in read and name not in allowed:
                unread.append(name)
    return unread


def src_modules():
    """Module name -> source of every module of the ``repro`` package."""
    modules = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path.read_text()
    return modules


def reader_sources():
    return [path.read_text() for tree in READER_TREES
            for path in sorted((ROOT / tree).rglob("*.py"))]


def test_scanner_flags_unread_and_accepts_read_names():
    module = {"m": ("class Queue:\n"
                    "    def push(self): pass\n"
                    "    def pop(self): pass\n"
                    "    def drain(self): pass\n"
                    "    def __len__(self): return 0\n")}
    reader = "Queue().push()\n"
    # An unread method is flagged; a special method never is.
    assert unread_definitions(module, [reader], {}) == ["m.Queue.pop",
                                                        "m.Queue.drain"]
    # A name read only through a dotted string constant counts as read.
    by_name = reader + 'TARGETS = ("Queue.pop",)\n'
    assert unread_definitions(module, [by_name], {}) == ["m.Queue.drain"]
    # An allowlisted name is accepted.
    assert unread_definitions(module, [by_name], {"m.Queue.drain"}) == []


def test_every_src_definition_has_a_reader():
    unread = unread_definitions(src_modules(), reader_sources(), ALLOWED)
    assert not unread, ("definitions no src, benchmark, example or perfbench "
                        "code reads (delete them, or list them in ALLOWED "
                        "with a reason):\n" + "\n".join(unread))


def test_allowlist_names_only_unread_definitions():
    """An allowlisted name that gained a reader, or no longer exists,
    leaves the list."""
    defined = {name for module, source in src_modules().items()
               for name, _ in definitions(ast.parse(source), module)}
    assert set(ALLOWED) <= defined
    assert sorted(unread_definitions(src_modules(), reader_sources(), {})) \
        == sorted(ALLOWED)
