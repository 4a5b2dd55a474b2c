"""Tests of the pin ledger behind the ``pin`` fixture and
``pytest --regen-pins``."""

import json

import pytest


@pytest.fixture
def ledger_type(pin):
    """The ledger class (read off the fixture, as conftest modules are not
    importable by name)."""
    return type(pin.ledger)


def make_ledger(ledger_type, tmp_path, recorded, regen=True):
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(recorded))
    return ledger_type(path, regen)


def written(ledger):
    return json.loads(ledger.path.read_text())


class TestPinLedger:
    RECORDED = {"a.py::old": "1", "a.py::keep": "2", "b.py::other": "3"}

    def test_check_is_strict_equality(self, ledger_type, tmp_path):
        ledger = make_ledger(ledger_type, tmp_path, self.RECORDED,
                             regen=False)
        ledger.check("a.py::keep", "2")
        with pytest.raises(AssertionError, match="moved"):
            ledger.check("a.py::keep", "3")
        with pytest.raises(AssertionError, match="no digest recorded"):
            ledger.check("a.py::new", "1")

    def test_regen_drops_a_renamed_case(self, ledger_type, tmp_path):
        """A case renamed from ``old`` to ``new`` leaves no stale key; the
        unchecked file's keys are kept."""
        ledger = make_ledger(ledger_type, tmp_path, self.RECORDED)
        ledger.check("a.py::new", "1")
        ledger.check("a.py::keep", "2")
        ledger.write()
        assert written(ledger) == {"a.py::keep": "2", "a.py::new": "1",
                                   "b.py::other": "3"}
        assert ledger.moved() == ["a.py::new"]
        assert ledger.dropped == ["a.py::old"]

    def test_regen_keeps_keys_of_a_partly_run_file(self, ledger_type,
                                                    tmp_path):
        ledger = make_ledger(ledger_type, tmp_path, self.RECORDED)
        ledger.check("a.py::keep", "4")
        ledger.partial.add("a.py")
        ledger.write()
        assert written(ledger) == {"a.py::keep": "4", "a.py::old": "1",
                                   "b.py::other": "3"}
        assert ledger.dropped == []
