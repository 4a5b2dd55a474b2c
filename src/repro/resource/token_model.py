"""Piecewise-linear token behaviour model (Section 5.3.1-5.3.3, Figure 8).

Each dataflow kernel is characterised by three metrics obtained from the HLS
profiler:

* ``initial_delay`` (D) — cycles from kernel start to its first output token;
* ``pipeline_ii`` (II) — cycles between consecutive output tokens;
* ``latency`` (L) — total cycles for the kernel to process all its tokens.

The number of tokens a kernel has produced (or consumed) by time ``t`` is a
piecewise-linear function of ``t`` built from these metrics.  For a FIFO
between a source and a target kernel, the maximum number of tokens ever
resident in the FIFO (``max_tokens``) follows analytically from the *delay*
between the two kernels' start times — Equations (1) and (2) of the paper —
and setting the FIFO depth to exactly ``max_tokens`` prevents back-pressure
without wasting memory.

Two equalisation strategies trade area against performance:

* ``Normal`` — kernels produce at their profiled throughput; FIFOs absorb
  the rate mismatch.
* ``Conservative`` — every kernel's II is scaled up to the slowest kernel's
  throughput; FIFOs shrink but faster kernels stall on back-pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional


class EqualizationStrategy(Enum):
    """FIFO-sizing equalisation strategy (Section 5.3.3)."""

    NORMAL = "normal"
    CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class KernelTiming:
    """Token-production timing of one kernel.

    Attributes:
        name: Kernel name.
        initial_delay: D — cycles until the first output token.
        pipeline_ii: II — cycles between consecutive output tokens.
        total_tokens: T — tokens produced per accelerator execution.
    """

    name: str
    initial_delay: float
    pipeline_ii: float
    total_tokens: int

    def __post_init__(self) -> None:
        if self.pipeline_ii <= 0:
            raise ValueError(f"{self.name}: pipeline II must be positive")
        if self.total_tokens < 0:
            raise ValueError(f"{self.name}: token count must be non-negative")
        if self.initial_delay < 0:
            raise ValueError(f"{self.name}: initial delay must be non-negative")

    @property
    def latency(self) -> float:
        """L — total cycles from start until the last token is produced."""
        if self.total_tokens == 0:
            return self.initial_delay
        return self.initial_delay + (self.total_tokens - 1) * self.pipeline_ii

    @property
    def throughput(self) -> float:
        """Tokens per cycle in steady state."""
        return 1.0 / self.pipeline_ii

    def with_ii(self, pipeline_ii: float) -> "KernelTiming":
        return KernelTiming(self.name, self.initial_delay, pipeline_ii,
                            self.total_tokens)

    def scaled_to_throughput(self, throughput: float) -> "KernelTiming":
        """Scale the II so the kernel matches ``throughput`` tokens/cycle."""
        if throughput <= 0:
            raise ValueError("throughput must be positive")
        new_ii = max(self.pipeline_ii, 1.0 / throughput)
        return self.with_ii(new_ii)


def max_tokens_from_delay(source: KernelTiming, target: KernelTiming,
                          delay: float, total_tokens: Optional[int] = None) -> int:
    """Maximum FIFO occupancy for a source-target pair started ``delay`` apart.

    Implements Equations (1) and (2): when the source is faster than the
    target the FIFO fills while the target lags (Eq. 1); when the source is
    slower the occupancy is bounded by the head start the target grants the
    source (Eq. 2).  ``delay`` is measured from the source's start to the
    target's start and can never be smaller than the source's initial delay.

    Args:
        source: Producer timing.
        target: Consumer timing.
        delay: Target start time minus source start time (cycles).
        total_tokens: T — tokens crossing the FIFO; defaults to the source's
            total token count.

    Returns:
        The maximum number of tokens simultaneously resident in the FIFO.
    """
    tokens = source.total_tokens if total_tokens is None else total_tokens
    if tokens <= 0:
        return 0
    delay = max(delay, source.initial_delay)

    if source.throughput > target.throughput:
        # Equation (1): the FIFO drains only after the source finishes.
        latency = source.initial_delay + (tokens - 1) * source.pipeline_ii
        remaining = math.floor((latency - delay) / target.pipeline_ii)
        max_tokens = tokens - remaining
    else:
        # Equation (2): occupancy is bounded by the source's head start.
        max_tokens = math.ceil((delay - source.initial_delay) / source.pipeline_ii)

    return int(min(tokens, max(1, max_tokens)))


def simulate_max_tokens(source: KernelTiming, target: KernelTiming,
                        delay: float, total_tokens: Optional[int] = None,
                        time_step: float = 1.0) -> int:
    """Reference (discrete-time) computation of the maximum FIFO occupancy.

    Used by tests and the simulator to validate the analytical equations:
    the target consumes token ``k`` as soon as it has been produced and the
    target has finished the previous token.
    """
    tokens = source.total_tokens if total_tokens is None else total_tokens
    if tokens <= 0:
        return 0
    delay = max(delay, source.initial_delay)

    produce_times = [source.initial_delay + k * source.pipeline_ii
                     for k in range(tokens)]
    consume_times: List[float] = []
    ready = delay
    for k in range(tokens):
        start = max(ready, produce_times[k])
        finish = start + target.pipeline_ii
        consume_times.append(start)
        ready = finish

    # A push and a pop in the same cycle net out (the paper's Figure 8(a)
    # narration uses the same convention: at time 5 the source pushes token 1
    # while the target consumes token 0, leaving one token in the FIFO).
    max_occupancy = 0
    events = sorted(set(produce_times + consume_times))
    for time in events:
        produced = sum(1 for t in produce_times if t <= time)
        consumed = sum(1 for t in consume_times if t <= time)
        max_occupancy = max(max_occupancy, produced - consumed)
    return max_occupancy


def equalize_timings(timings: List[KernelTiming],
                     strategy: EqualizationStrategy) -> List[KernelTiming]:
    """Apply an equalisation strategy to a set of kernel timings.

    ``NORMAL`` returns the timings unchanged; ``CONSERVATIVE`` scales every
    kernel's II up so that all kernels match the slowest kernel's throughput,
    shrinking downstream FIFO requirements at the cost of stalls.
    """
    if strategy is EqualizationStrategy.NORMAL or not timings:
        return list(timings)
    slowest_throughput = min(t.throughput for t in timings)
    return [t.scaled_to_throughput(slowest_throughput) for t in timings]
