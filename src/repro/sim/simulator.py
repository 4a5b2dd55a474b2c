"""Cycle-approximate dataflow simulator.

The simulator executes a graph of dataflow kernels connected by bounded FIFOs
with the same token semantics the generated hardware would have:

* a kernel *fires* once per output token; firing ``k`` cannot start before
  ``start + initial_delay + k * pipeline_ii`` cycles;
* a firing consumes its per-firing share of tokens from every input FIFO and
  pushes one token to every output FIFO;
* a firing blocks while any input FIFO lacks tokens (starvation) or any
  output FIFO is full (back-pressure) — exactly the stall/deadlock behaviour
  Pitfall 4 describes.

It is used to validate the analytical token behaviour model and the LP FIFO
sizing: a correctly sized design finishes with zero back-pressure stalls,
while undersized FIFOs either slow the pipeline down or deadlock it.
Token-granular simulation is intentionally exact rather than fast — the
end-to-end LLM latency numbers come from the analytical model, and the
simulator validates small and medium graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class DeadlockError(RuntimeError):
    """Raised when the simulated dataflow graph can make no further progress."""


@dataclass
class SimFifo:
    """A bounded FIFO channel between two simulated kernels."""

    name: str
    capacity: int
    occupancy: int = 0
    max_occupancy: int = 0
    total_pushed: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"FIFO {self.name}: capacity must be positive")

    @property
    def free_slots(self) -> int:
        return self.capacity - self.occupancy

    def push(self, count: int = 1) -> None:
        if self.occupancy + count > self.capacity:
            raise OverflowError(f"FIFO {self.name} overflow")
        self.occupancy += count
        self.total_pushed += count
        self.max_occupancy = max(self.max_occupancy, self.occupancy)

    def pop(self, count: int = 1) -> None:
        if self.occupancy < count:
            raise RuntimeError(f"FIFO {self.name} underflow")
        self.occupancy -= count


@dataclass
class SimKernel:
    """A simulated dataflow kernel.

    Attributes:
        name: Kernel name.
        total_firings: Output tokens the kernel produces in one execution.
        initial_delay: Cycles before the first firing can complete.
        pipeline_ii: Cycles between consecutive firings.
        input_fifos: ``(fifo_name, tokens_consumed_per_firing)`` pairs.
        output_fifos: ``(fifo_name, tokens_produced_per_firing)`` pairs.
    """

    name: str
    total_firings: int
    initial_delay: float = 0.0
    pipeline_ii: float = 1.0
    input_fifos: List[Tuple[str, float]] = field(default_factory=list)
    output_fifos: List[Tuple[str, float]] = field(default_factory=list)

    firings_done: int = 0
    finish_time: float = 0.0
    starvation_stalls: int = 0
    backpressure_stalls: int = 0

    def __post_init__(self) -> None:
        if self.pipeline_ii <= 0:
            raise ValueError(f"kernel {self.name}: pipeline II must be positive")
        if self.total_firings < 0:
            raise ValueError(f"kernel {self.name}: negative firing count")

    @property
    def done(self) -> bool:
        return self.firings_done >= self.total_firings

    def earliest_next_firing(self) -> float:
        return self.initial_delay + self.firings_done * self.pipeline_ii

    def tokens_needed(self, per_firing: float) -> int:
        """Cumulative integer tokens needed from an input after the next firing."""
        return int(math.ceil((self.firings_done + 1) * per_firing))

    def tokens_consumed(self, per_firing: float) -> int:
        return int(math.ceil(self.firings_done * per_firing))


@dataclass
class SimulationResult:
    """Outcome of one simulated accelerator execution."""

    total_cycles: float
    kernel_finish_times: Dict[str, float]
    fifo_max_occupancy: Dict[str, int]
    starvation_stalls: Dict[str, int]
    backpressure_stalls: Dict[str, int]
    deadlocked: bool = False

    @property
    def total_backpressure_stalls(self) -> int:
        return sum(self.backpressure_stalls.values())


class DataflowSimulator:
    """Simulates kernels and FIFOs at token granularity."""

    def __init__(self) -> None:
        self.kernels: Dict[str, SimKernel] = {}
        self.fifos: Dict[str, SimFifo] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_kernel(self, kernel: SimKernel) -> SimKernel:
        if kernel.name in self.kernels:
            raise ValueError(f"duplicate kernel {kernel.name!r}")
        self.kernels[kernel.name] = kernel
        return kernel

    def add_fifo(self, fifo: SimFifo) -> SimFifo:
        if fifo.name in self.fifos:
            raise ValueError(f"duplicate FIFO {fifo.name!r}")
        self.fifos[fifo.name] = fifo
        return fifo

    def preload_fifo(self, name: str, tokens: int) -> None:
        """Fill an input FIFO before simulation starts (host-supplied data)."""
        self.fifos[name].push(tokens)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _can_fire(self, kernel: SimKernel) -> Tuple[bool, str]:
        for fifo_name, per_firing in kernel.input_fifos:
            fifo = self.fifos[fifo_name]
            needed = kernel.tokens_needed(per_firing) - kernel.tokens_consumed(per_firing)
            if fifo.occupancy < needed:
                return False, "starved"
        for fifo_name, per_firing in kernel.output_fifos:
            fifo = self.fifos[fifo_name]
            produced = int(math.ceil(per_firing))
            if fifo.free_slots < produced:
                return False, "backpressure"
        return True, "ready"

    def _fire(self, kernel: SimKernel, time: float) -> None:
        for fifo_name, per_firing in kernel.input_fifos:
            fifo = self.fifos[fifo_name]
            consume = (kernel.tokens_needed(per_firing)
                       - kernel.tokens_consumed(per_firing))
            if consume > 0:
                fifo.pop(consume)
        kernel.firings_done += 1
        for fifo_name, per_firing in kernel.output_fifos:
            produce = int(math.ceil(per_firing))
            if produce > 0:
                self.fifos[fifo_name].push(produce)
        kernel.finish_time = time

    def run(self, max_cycles: float = 1e9,
            raise_on_deadlock: bool = True) -> SimulationResult:
        """Run until every kernel has completed all its firings.

        Raises:
            DeadlockError: if no kernel can ever fire again but work remains
                (and ``raise_on_deadlock`` is True).
        """
        time = 0.0
        while True:
            pending = [k for k in self.kernels.values() if not k.done]
            if not pending:
                break

            # Find the fireable kernel with the earliest candidate time.
            best: Optional[SimKernel] = None
            best_time = math.inf
            blocked_reasons: Dict[str, str] = {}
            for kernel in pending:
                candidate = max(time, kernel.earliest_next_firing())
                fireable, reason = self._can_fire(kernel)
                if fireable:
                    if candidate < best_time:
                        best, best_time = kernel, candidate
                else:
                    blocked_reasons[kernel.name] = reason

            if best is None:
                result = self._result(time, deadlocked=True)
                if raise_on_deadlock:
                    raise DeadlockError(
                        "dataflow deadlock: no kernel can fire "
                        f"(blocked: {blocked_reasons})"
                    )
                return result

            # Account stalls for kernels that were ready in time but blocked.
            for kernel in pending:
                if kernel is best or kernel.name not in blocked_reasons:
                    continue
                if kernel.earliest_next_firing() <= best_time:
                    if blocked_reasons[kernel.name] == "starved":
                        kernel.starvation_stalls += 1
                    else:
                        kernel.backpressure_stalls += 1

            time = best_time
            if time > max_cycles:
                raise RuntimeError(f"simulation exceeded {max_cycles} cycles")
            self._fire(best, time)

        return self._result(time, deadlocked=False)

    def _result(self, time: float, deadlocked: bool) -> SimulationResult:
        return SimulationResult(
            total_cycles=time,
            kernel_finish_times={k.name: k.finish_time
                                 for k in self.kernels.values()},
            fifo_max_occupancy={f.name: f.max_occupancy
                                for f in self.fifos.values()},
            starvation_stalls={k.name: k.starvation_stalls
                               for k in self.kernels.values()},
            backpressure_stalls={k.name: k.backpressure_stalls
                                 for k in self.kernels.values()},
            deadlocked=deadlocked,
        )
