"""Tests for LP-based FIFO sizing (Section 5.3.4, Figure 8(f))."""

import hashlib
import random

import numpy as np
import pytest
import scipy.optimize

from repro.resource.fifo_sizing import (
    FifoSizingResult,
    SizingEdge,
    size_fifos,
    size_graph_fifos,
    sizing_edges_from_graph,
    solve_delays,
)
from repro.resource.token_model import EqualizationStrategy, KernelTiming


def figure8f_setup():
    """Kernel0 feeds Kernel1 and Kernel2; Kernel1 feeds Kernel2."""
    timings = {
        "kernel0": KernelTiming("kernel0", initial_delay=10, pipeline_ii=1,
                                total_tokens=32),
        "kernel1": KernelTiming("kernel1", initial_delay=20, pipeline_ii=1,
                                total_tokens=32),
        "kernel2": KernelTiming("kernel2", initial_delay=5, pipeline_ii=1,
                                total_tokens=32),
    }
    edges = [
        SizingEdge("kernel0", "kernel1", total_tokens=32),
        SizingEdge("kernel1", "kernel2", total_tokens=32),
        SizingEdge("kernel0", "kernel2", total_tokens=32),
    ]
    return edges, timings


class TestSolveDelays:
    def test_figure8f_constraints(self):
        """delay[0][1] >= D[0], delay[1][2] >= D[1], delay[0][2] >= D[0]+D[1]."""
        edges, timings = figure8f_setup()
        delays, status = solve_delays(edges, timings)
        assert status == "optimal"
        assert delays[("kernel0", "kernel1")] >= 10
        assert delays[("kernel1", "kernel2")] >= 20
        assert delays[("kernel0", "kernel2")] >= 30

    def test_objective_is_minimal(self):
        """The LP pushes every delay to its lower bound."""
        edges, timings = figure8f_setup()
        delays, _ = solve_delays(edges, timings)
        assert delays[("kernel0", "kernel1")] == pytest.approx(10)
        assert delays[("kernel1", "kernel2")] == pytest.approx(20)
        assert delays[("kernel0", "kernel2")] == pytest.approx(30)

    def test_empty_edges(self):
        delays, status = solve_delays([], {})
        assert delays == {} and status == "empty"

    def test_cycle_rejected(self):
        timings = {
            "a": KernelTiming("a", 1, 1, 4),
            "b": KernelTiming("b", 1, 1, 4),
        }
        edges = [SizingEdge("a", "b", 4), SizingEdge("b", "a", 4)]
        with pytest.raises(ValueError, match="acyclic"):
            solve_delays(edges, timings)


class TestSizeFifos:
    def test_reconvergent_path_gets_deeper_fifo(self):
        """The FIFO on the short path must buffer the long path's head start."""
        edges, timings = figure8f_setup()
        result = size_fifos(edges, timings)
        assert result.depth_of("kernel0", "kernel2") \
            > result.depth_of("kernel1", "kernel2")

    def test_depths_are_at_least_two(self):
        edges, timings = figure8f_setup()
        result = size_fifos(edges, timings)
        assert all(depth >= 2 for depth in result.depths.values())

    def test_conservative_never_larger_than_normal(self):
        timings = {
            "fast": KernelTiming("fast", 2, 1, 64),
            "slow": KernelTiming("slow", 2, 8, 64),
            "sink": KernelTiming("sink", 2, 8, 64),
        }
        edges = [SizingEdge("fast", "slow", 64), SizingEdge("slow", "sink", 64)]
        normal = size_fifos(edges, timings, EqualizationStrategy.NORMAL)
        conservative = size_fifos(edges, timings, EqualizationStrategy.CONSERVATIVE)
        assert conservative.total_depth <= normal.total_depth

    def test_missing_timing_raises(self):
        edges, timings = figure8f_setup()
        del timings["kernel1"]
        with pytest.raises(KeyError):
            size_fifos(edges, timings)

    def test_total_fifo_bytes_accumulates(self):
        edges, timings = figure8f_setup()
        result = size_fifos(edges, timings)
        assert result.total_fifo_bytes == pytest.approx(
            sum(result.depths[(e.producer, e.consumer)] * e.token_bytes
                for e in edges))


class TestGraphIntegration:
    def test_size_graph_fifos_applies_depths(self, gpt2_compiled):
        graph = gpt2_compiled.dataflow_graph
        for edge in graph.stream_edges():
            assert edge.fifo_depth is not None
            assert edge.fifo_depth >= 2

    def test_sizing_edges_extraction(self, gpt2_compiled):
        graph = gpt2_compiled.dataflow_graph
        edges = sizing_edges_from_graph(graph)
        assert len(edges) == len([e for e in graph.stream_edges()
                                  if e.producer and e.consumer])
        assert all(e.total_tokens >= 1 for e in edges)

    def test_lp_status_recorded(self, gpt2_compiled):
        assert gpt2_compiled.fifo_sizing.lp_status in ("optimal", "no-stream-edges")


def random_sizing_case(seed):
    """A seeded DAG of 2-14 kernels, listed in shuffled order with a few
    repeated edges; some kernels have zero initial delay.  Of seeds 0-199,
    11 have a kernel pair with more than 64 paths."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    density = rng.uniform(0.15, 0.7)
    names = [f"k{i}" for i in range(n)]
    rng.shuffle(names)
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density] or [(names[0], names[1])]
    pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 2))]
    rng.shuffle(pairs)
    timings = {
        name: KernelTiming(name, float(rng.choice([0, rng.randint(0, 500)])),
                           float(rng.randint(1, 4)), rng.randint(1, 100))
        for name in names}
    edges = [SizingEdge(a, b, rng.randint(1, 100)) for a, b in pairs]
    return edges, timings


def lp_digest(lps):
    """sha256 of the objective, rows, right-hand sides and bounds of LPs."""
    digest = hashlib.sha256()
    for c, a_ub, b_ub, bounds in lps:
        digest.update(np.asarray(c, dtype=float).tobytes())
        if a_ub is None:
            digest.update(b"no rows")
        else:
            digest.update(repr(a_ub.shape).encode())
            digest.update(np.ascontiguousarray(a_ub, dtype=float).tobytes())
            digest.update(np.asarray(b_ub, dtype=float).tobytes())
        digest.update(repr(bounds).encode())
    return digest.hexdigest()


class TestDelayLpPinned:
    """The delay LP's rows (Eq. 4) are pinned byte for byte: pairs in
    ``permutations`` order of first appearance, paths depth first over each
    kernel's consumers, at most 64 paths per pair.  The digests were taken
    from the networkx-built LP."""

    def test_random_dags(self, monkeypatch, pin):
        lps = []
        linprog = scipy.optimize.linprog

        def capture(c, A_ub=None, b_ub=None, bounds=None, **kwargs):
            lps.append((c, A_ub, b_ub, bounds))
            return linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", capture)
        for seed in range(200):
            solve_delays(*random_sizing_case(seed))
        pin("TestDelayLpPinned/random_dags", lp_digest(lps))

    def test_zoo_blocks(self, zoo_allocations, pin):
        blocks = list(zoo_allocations.values())
        pin("TestDelayLpPinned/zoo_lp_rows",
            lp_digest([block["lp"] for block in blocks]))
        depths = [sorted(block["compiled"].fifo_sizing.depths.items())
                  for block in blocks]
        pin("TestDelayLpPinned/zoo_fifo_depths",
            hashlib.sha256(repr(depths).encode()).hexdigest())
