"""Tests for building simulations from compiled dataflow graphs."""

from repro.compiler import CompilerOptions, StreamTensorCompiler
from repro.ir.builder import GraphBuilder
from repro.ir.dtypes import INT8
from repro.platform.fpga import AMD_U55C
from repro.sim.builder import build_simulation


def compile_small_chain(fifo_scale=1):
    builder = GraphBuilder("net")
    x = builder.input((32, 32), INT8)
    w = builder.weight((32, 32), INT8)
    y = builder.matmul(x, w, name="mm")
    z = builder.gelu(y, name="act")
    builder.output(z)
    options = CompilerOptions(default_tile_size=8, overall_unroll_size=16)
    return StreamTensorCompiler(options).compile(builder.build())


class TestBuildSimulation:
    def test_simulation_structure(self):
        result = compile_small_chain()
        simulation = build_simulation(result.dataflow_graph, AMD_U55C)
        graph = result.dataflow_graph
        assert len(simulation.edge_fifo_names) == len(graph.edges)
        # One simulated kernel per dataflow kernel plus host DMAs.
        expected = (len(graph.kernels) + len(graph.external_input_edges())
                    + len(graph.external_output_edges()))
        assert len(simulation.simulator.kernels) == expected

    def test_compiled_design_runs_to_completion(self):
        result = compile_small_chain()
        simulation = build_simulation(result.dataflow_graph, AMD_U55C)
        outcome = simulation.run(max_cycles=1e8)
        assert not outcome.deadlocked
        assert outcome.total_cycles > 0

    def test_sized_fifos_do_not_deadlock(self):
        """The LP-sized FIFO depths must keep the design deadlock-free."""
        result = compile_small_chain()
        graph = result.dataflow_graph
        assert all(e.fifo_depth and e.fifo_depth >= 2 for e in graph.stream_edges())
        outcome = build_simulation(graph, AMD_U55C).run(max_cycles=1e8)
        assert not outcome.deadlocked

    def test_stream_fifo_capacity_uses_sized_depth(self):
        result = compile_small_chain()
        graph = result.dataflow_graph
        simulation = build_simulation(graph, AMD_U55C)
        for edge in graph.stream_edges():
            fifo = simulation.simulator.fifos[simulation.edge_fifo_names[edge.uid]]
            assert fifo.capacity == max(2, edge.fifo_depth)

    def test_observed_occupancy_within_sized_depth(self):
        result = compile_small_chain()
        graph = result.dataflow_graph
        simulation = build_simulation(graph, AMD_U55C)
        outcome = simulation.run(max_cycles=1e8)
        for edge in graph.stream_edges():
            name = simulation.edge_fifo_names[edge.uid]
            assert outcome.fifo_max_occupancy[name] <= max(2, edge.fifo_depth)
