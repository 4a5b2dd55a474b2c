"""A registry of named counters and time-sampled gauges for fleet runs.

Counters are monotone totals bumped as things happen (migrations, scale
events, preemptions); gauges are instantaneous fleet readings (queue
depth, KV occupancy, value-load, migrations in flight) sampled by the
cluster on arrival dispatch and control ticks, throttled by the tracer's
``metrics_interval_s`` in *simulated* time so both kernels sample at
identical instants and the traced report stays kernel-independent.

Gauge series are stored columnar (:class:`~repro.serving.metrics
.SampleBuffer`, two columns: time, value) so a million-tick run costs
amortized O(1) per sample, and every reading lands in the Chrome trace
as a ``ph: "C"`` counter track.  :meth:`summary` is the gated
``telemetry`` report section: plain floats only, deterministic key
order.
"""

from __future__ import annotations

from typing import Dict

from repro.serving.metrics import SampleBuffer


class MetricsRegistry:
    """Named counters (monotone floats) and gauges (time series)."""

    __slots__ = ("_counters", "_gauges")

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, SampleBuffer] = {}

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named counter (created at 0)."""
        self._counters[name] = self._counters.get(name, 0.0) + value

    def count(self, name: str, value: float) -> None:
        """Set the named counter to an absolute total."""
        self._counters[name] = float(value)

    @property
    def counters(self) -> Dict[str, float]:
        """All counters, sorted by name."""
        return dict(sorted(self._counters.items()))

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def sample(self, name: str, time_s: float, value: float) -> None:
        """Append one (time, value) reading to the named gauge series."""
        series = self._gauges.get(name)
        if series is None:
            series = self._gauges[name] = SampleBuffer(2)
        series.append(time_s, value)

    @property
    def gauges(self) -> Dict[str, SampleBuffer]:
        """All gauge series, sorted by name."""
        return dict(sorted(self._gauges.items()))

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges)

    # ------------------------------------------------------------------
    # Report section
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready summary: counter totals plus per-gauge sample
        count / last / mean / max."""
        gauges = {}
        for name, series in sorted(self._gauges.items()):
            values = series.column(1)
            gauges[name] = {
                "samples": len(series),
                "last": float(values[-1]) if len(series) else 0.0,
                "mean": float(values.mean()) if len(series) else 0.0,
                "max": float(values.max()) if len(series) else 0.0,
            }
        return {"counters": self.counters, "gauges": gauges}
