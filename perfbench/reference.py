"""Reference loop that measures how fast the machine is right now.

On a shared host the CPU time of identical work moves between speed
regimes: the benchmark's own runs flipped between two levels about 1.6x
apart that last for minutes, with smaller drift inside each.  This loop is
fixed, self-contained Python of the same kind as the simulator (objects,
dict lookups, a sort), independent of the program under test; one pass
takes about 0.1 s.  Timed next to a repetition it tracks those regimes
(1.65x between them, against 1.6x for the simulator), so ``run.py`` scales
every host time to :data:`REFERENCE_S` of reference time: a host second is
the time the work would take on a machine where this loop takes 0.1 s.
"""

import gc
import statistics
import time

REFERENCE_S = 0.1

_ITEMS = 20_000
_ROUNDS = 12


class _Item:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0.0
        self.hits = 0


def _one_pass() -> float:
    start = time.process_time()
    items = [_Item(key) for key in range(_ITEMS)]
    index = {item.key: item for item in items}
    for round_ in range(_ROUNDS):
        for item in items:
            other = index[(item.key * 7 + round_) % _ITEMS]
            other.hits += 1
            item.value += other.hits * 0.5
        items.sort(key=lambda it: (it.hits, it.key))
    return time.process_time() - start


def reference_s() -> float:
    """CPU seconds of the reference loop: the median of three passes, so
    that a burst of speed lasting one pass does not set the scale of a
    whole repetition.  The collector is held off so the caller's heap does
    not leak into the figure."""
    gc.collect()
    gc.disable()
    try:
        return statistics.median(_one_pass() for _ in range(3))
    finally:
        gc.enable()
