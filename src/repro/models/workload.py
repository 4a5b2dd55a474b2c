"""Inference workload descriptions (the paper's [input:output] configurations).

Tables 4/5 and Figure 9 sweep input/output sequence-length pairs such as
``[32:32]`` or ``[128:64]``.  A :class:`Workload` captures one such pair and
derives the per-stage token counts the latency model needs: the prefill
processes ``input_len`` tokens at once, then the decode loop produces
``output_len`` tokens one at a time against a growing KV cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Union


@dataclass(frozen=True)
class Workload:
    """One [input_len : output_len] inference request."""

    input_len: int
    output_len: int

    def __post_init__(self) -> None:
        if self.input_len <= 0 or self.output_len <= 0:
            raise ValueError("input and output lengths must be positive")

    @property
    def label(self) -> str:
        return f"[{self.input_len}:{self.output_len}]"

    @property
    def total_tokens(self) -> int:
        return self.input_len + self.output_len

    def decode_kv_lengths(self) -> Iterator[int]:
        """KV-cache length seen by each decode step (first step included).

        The first generated token comes out of the prefill pass; each of the
        remaining ``output_len - 1`` decode steps attends over the prompt plus
        every token generated so far.
        """
        for step in range(1, self.output_len):
            yield self.input_len + step


# Sequence-length sweeps used in the paper's evaluation.
TABLE4_WORKLOADS: List[Workload] = [
    Workload(32, 32),
    Workload(64, 64),
    Workload(128, 128),
    Workload(256, 256),
]

FIGURE9_WORKLOADS: List[Workload] = [
    Workload(i, o)
    for i in (32, 64, 128)
    for o in (32, 64, 128)
]


def random_workloads(count: int,
                     rng: Union[int, random.Random, None] = None,
                     input_choices: Sequence[int] = (32, 64, 128),
                     output_choices: Sequence[int] = (32, 64, 128)) -> List[Workload]:
    """Sample ``count`` workloads with lengths drawn from the paper's sweeps.

    ``rng`` may be a seed or a :class:`random.Random`; the defaults cover the
    Figure 9 grid, so a sampled serving trace stays within the sequence
    lengths the evaluation characterises.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    return [Workload(rng.choice(list(input_choices)),
                     rng.choice(list(output_choices)))
            for _ in range(count)]


def workload_from_label(label: str) -> Workload:
    """Parse a ``"[32:64]"``-style label into a :class:`Workload`."""
    text = label.strip().strip("[]")
    try:
        input_len, output_len = (int(part) for part in text.split(":"))
    except ValueError:
        raise ValueError(f"malformed workload label {label!r}") from None
    return Workload(input_len, output_len)
