"""Shared fixtures for the test suite, and the pin ledger.

Every recorded sha256 the suite checks lives in ``tests/pins.json``, keyed
``"<test file>::<case>"`` with the file relative to ``tests/``.  A test
checks a digest through the :func:`pin` fixture, always by strict
equality.  ``pytest --regen-pins`` instead records what each check
computed, rewrites the ledger, prints the keys that moved and drops the
keys of cases that no longer exist; CI never passes it, so a moved digest
fails CI until a commit re-pins it on purpose.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Set

import pytest

from repro.compiler import CompilerOptions, StreamTensorCompiler
from repro.ir.affine import AffineMap
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import FLOAT32
from repro.itensor.itensor_type import ITensorType
from repro.models.config import GPT2
from repro.models.transformer import build_decode_block, build_prefill_block


@pytest.fixture
def itensor_a() -> ITensorType:
    """Figure 5(a): itensor<2x2xf32, iter_space [4,4]*[2,2], identity map>."""
    return ITensorType((2, 2), FLOAT32, (4, 4), (2, 2), AffineMap.identity(2))


@pytest.fixture
def itensor_b() -> ITensorType:
    """Figure 5(b): itensor<4x2xf32, iter_space [4,2]*[2,4], (d0,d1)->(d1,d0)>."""
    return ITensorType((4, 2), FLOAT32, (4, 2), (2, 4),
                       AffineMap.from_results(2, [1, 0]))


@pytest.fixture
def itensor_c() -> ITensorType:
    """Figure 5(c): itensor<4x2xf32, iter_space [4,2,2]*[2,1,4], (d0,d1,d2)->(d2,d0)>."""
    return ITensorType((4, 2), FLOAT32, (4, 2, 2), (2, 1, 4),
                       AffineMap.from_results(3, [2, 0]))


@pytest.fixture
def matmul_gelu_graph():
    """A two-op graph: matmul followed by GELU (the running example)."""
    builder = GraphBuilder("toy")
    x = builder.input((64, 64))
    w = builder.weight((64, 64))
    y = builder.matmul(x, w)
    z = builder.gelu(y)
    builder.output(z)
    return builder.build()


@pytest.fixture(scope="session")
def gpt2_decode_graph():
    """GPT-2 decode-stage transformer block (seq=1, kv=64)."""
    return build_decode_block(GPT2, kv_len=64)


@pytest.fixture(scope="session")
def gpt2_prefill_graph():
    """GPT-2 prefill-stage transformer block (seq=64)."""
    return build_prefill_block(GPT2, 64)


@pytest.fixture(scope="session")
def gpt2_compiled(gpt2_decode_graph):
    """A full compilation of the GPT-2 decode block (shared across tests)."""
    compiler = StreamTensorCompiler(CompilerOptions())
    return compiler.compile(gpt2_decode_graph, GPT2)


# ----------------------------------------------------------------------
# Pin ledger
# ----------------------------------------------------------------------
TESTS_DIR = Path(__file__).resolve().parent
PINS_PATH = TESTS_DIR / "pins.json"


class PinLedger:
    """The recorded digests of ``tests/pins.json`` and, under
    ``--regen-pins``, the digests this run computed in their place.

    A regenerated ledger also drops the stale keys of every test file this
    run checked in full: a recorded key under that file's prefix that no
    check computed (a renamed or removed case).  Files the run only
    partly covered (tests deselected, named by node id, or failed) keep
    their recorded keys."""

    def __init__(self, path: Path, regen: bool) -> None:
        self.path = path
        self.regen = regen
        self.recorded: Dict[str, str] = json.loads(path.read_text())
        self.observed: Dict[str, str] = {}
        self.partial: Set[str] = set()   # test files not run in full
        self.dropped: List[str] = []

    def check(self, key: str, actual: str) -> None:
        if self.regen:
            self.observed[key] = actual
            return
        assert key in self.recorded, (
            f"{key}: no digest recorded in tests/pins.json "
            "(record it with pytest --regen-pins)")
        assert actual == self.recorded[key], (
            f"{key}: digest moved to {actual} "
            f"(recorded {self.recorded[key]})")

    def moved(self) -> list:
        """Observed keys whose digest differs from (or is missing in) the
        recorded ledger, sorted."""
        return sorted(key for key, digest in self.observed.items()
                      if self.recorded.get(key) != digest)

    def stale(self) -> list:
        """Recorded keys of the files this run checked in full that no
        check computed, sorted."""
        checked = {key.split("::", 1)[0] for key in self.observed}
        checked -= self.partial
        return sorted(key for key in self.recorded
                      if key not in self.observed
                      and key.split("::", 1)[0] in checked)

    def write(self) -> None:
        self.dropped = self.stale()
        merged = {**self.recorded, **self.observed}
        for key in self.dropped:
            del merged[key]
        self.path.write_text(
            json.dumps(dict(sorted(merged.items())), indent=2) + "\n")


def ledger_file(path: Path) -> Optional[str]:
    """``path``'s ledger prefix (relative to ``tests/``), or ``None`` for
    a file outside it."""
    try:
        return path.resolve().relative_to(TESTS_DIR).as_posix()
    except ValueError:
        return None


class FilePins:
    """One test file's view of the ledger: ``pin(case, digest)`` checks
    the key ``"<file>::<case>"``."""

    def __init__(self, ledger: PinLedger, file: str) -> None:
        self.ledger = ledger
        self.prefix = f"{file}::"

    def __call__(self, case: str, actual: str) -> None:
        self.ledger.check(self.prefix + case, actual)

    @property
    def regen(self) -> bool:
        """Whether this run rewrites the ledger (tests then skip checks
        that the recorded case set matches what they compute)."""
        return self.ledger.regen

    @property
    def cases(self) -> Set[str]:
        """The case names recorded for this file."""
        return {key[len(self.prefix):] for key in self.ledger.recorded
                if key.startswith(self.prefix)}


_LEDGER = pytest.StashKey[PinLedger]()


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-pins", action="store_true", default=False,
        help="rewrite tests/pins.json with the digests this run computes "
             "and print the keys that moved")


def pytest_configure(config: pytest.Config) -> None:
    ledger = PinLedger(PINS_PATH, config.getoption("--regen-pins"))
    config.stash[_LEDGER] = ledger
    # A file named down to its tests on the command line runs in part.
    for arg in config.args:
        if "::" in arg:
            file = ledger_file(Path(arg.split("::", 1)[0]))
            if file is not None:
                ledger.partial.add(file)


def _mark_partial(config: pytest.Config, path: Path) -> None:
    ledger = config.stash.get(_LEDGER, None)
    file = ledger_file(path)
    if ledger is not None and file is not None:
        ledger.partial.add(file)


def pytest_deselected(items) -> None:
    for item in items:
        _mark_partial(item.config, item.path)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item: pytest.Item, call):
    report = yield
    if report.failed:
        _mark_partial(item.config, item.path)
    return report


def pytest_sessionfinish(session: pytest.Session, exitstatus) -> None:
    ledger = session.config.stash.get(_LEDGER, None)
    if ledger is None or not ledger.regen:
        return
    if exitstatus == pytest.ExitCode.INTERRUPTED:
        # An interrupted run may have left any file half done.
        ledger.partial.update(key.split("::", 1)[0]
                              for key in ledger.observed)
    ledger.write()


def pytest_terminal_summary(terminalreporter, config: pytest.Config) -> None:
    ledger = config.stash.get(_LEDGER, None)
    if ledger is None or not ledger.regen:
        return
    moved = ledger.moved()
    terminalreporter.write_line(
        f"pin ledger: {len(ledger.observed)} key(s) checked, "
        f"{len(moved)} moved, {len(ledger.dropped)} dropped")
    for key in moved:
        terminalreporter.write_line(f"  moved: {key}")
    for key in ledger.dropped:
        terminalreporter.write_line(f"  dropped: {key}")


@pytest.fixture
def pin(request: pytest.FixtureRequest) -> FilePins:
    """Check a digest against the ledger entry of the calling test file."""
    return FilePins(request.config.stash[_LEDGER],
                    ledger_file(request.node.path))
