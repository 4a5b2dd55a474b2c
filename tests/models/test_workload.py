"""Tests for inference workload descriptions."""

import pytest

from repro.models.workload import (
    FIGURE9_WORKLOADS,
    TABLE4_WORKLOADS,
    Workload,
    workload_from_label,
)


class TestWorkload:
    def test_label(self):
        assert Workload(32, 64).label == "[32:64]"

    def test_total_tokens(self):
        assert Workload(32, 64).total_tokens == 96

    def test_decode_kv_lengths(self):
        lengths = list(Workload(8, 4).decode_kv_lengths())
        assert lengths == [9, 10, 11]

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            Workload(0, 4)
        with pytest.raises(ValueError):
            Workload(4, 0)

    def test_parse_label(self):
        assert workload_from_label("[128:64]") == Workload(128, 64)
        assert workload_from_label(" 32:32 ") == Workload(32, 32)
        with pytest.raises(ValueError):
            workload_from_label("[32]")


class TestSweeps:
    def test_table4_sweep(self):
        assert [w.label for w in TABLE4_WORKLOADS] == [
            "[32:32]", "[64:64]", "[128:128]", "[256:256]"]

    def test_figure9_sweep_is_3x3(self):
        assert len(FIGURE9_WORKLOADS) == 9
        assert {w.input_len for w in FIGURE9_WORKLOADS} == {32, 64, 128}
        assert {w.output_len for w in FIGURE9_WORKLOADS} == {32, 64, 128}
