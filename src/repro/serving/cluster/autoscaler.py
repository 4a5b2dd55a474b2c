"""SLO-aware replica autoscaling from a step-driven control loop.

The autoscaler is a pure decision function evaluated at fixed control
intervals of simulated time.  It reads two fleet signals:

* **queue depth per routable replica** — the congestion signal.  Arrivals
  outpacing service show up here first, before any latency percentile
  moves.
* **rolling p95 TTFT** — the SLO signal.  Computed over the first-token
  times that landed inside the trailing ``ttft_window_s``, compared
  against the configured ``slo_ttft_s`` target.

Scale **up** when either signal crosses its high threshold (queue deeper
than ``queue_high_per_replica`` per routable replica, or rolling p95 TTFT
above the SLO) and the fleet is below ``max_replicas``.  A new replica is
not free: it pays a warm-up cost before taking traffic (see
:class:`~repro.serving.engine.DeviceWorker`), so provisioned
(active + warming) capacity is what is bounded, not just what is serving.

Scale **down** when the queue is shallow (below ``queue_low_per_replica``)
*and* the SLO has comfortable margin (rolling p95 under ``slo_margin`` of
the target, or no SLO configured), draining one replica gracefully — never
below ``min_replicas``.  ``cooldown_s`` separates consecutive actions so
one congested window cannot flap the fleet.

Everything is deterministic: thresholds are pure arithmetic over the
observed state and ties never depend on iteration order.

A disaggregated fleet (see :class:`~repro.serving.cluster.cluster.
DisaggregationConfig`) runs one instance of this loop per role pool.  The
prefill pool uses the classic signals above; the decode pool swaps the
latency signal for rolling p95 **TPOT** (against ``slo_tpot_s``) and adds
a memory signal — mean KV-pool occupancy against ``kv_pressure_high`` —
because decode congestion shows up as imported KV piling up and token
cadence stretching, not as first-token latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.serving.metrics import percentile


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the control loop.

    Attributes:
        min_replicas: Never drain below this many provisioned
            (active + warming) replicas.
        max_replicas: Never spawn above this many provisioned
            (active + warming) replicas.  A replica draining its in-flight
            work is no longer counted — the fleet's physical footprint can
            therefore briefly exceed this bound while a drain overlaps a
            spawn (visible as ``ClusterReport.peak_replicas``).
        slo_ttft_s: Rolling-p95 TTFT target in seconds; ``None`` scales on
            queue depth alone.
        control_interval_s: Simulated seconds between control evaluations.
        queue_high_per_replica: Scale up when the fleet admission backlog
            exceeds this many requests per routable replica.
        queue_low_per_replica: Scale down only when the backlog is below
            this many requests per routable replica.
        ttft_window_s: Width of the trailing window the rolling p95 TTFT
            is computed over.
        min_window_samples: Fewer first-token samples than this in the
            window means "no latency evidence" — the SLO signal is then
            neutral (neither triggers an up-scale nor blocks a down-scale).
        cooldown_s: Minimum simulated seconds between two scaling actions.
        slo_margin: Down-scaling requires rolling p95 below
            ``slo_margin * slo_ttft_s`` (hysteresis against flapping).
        warmup_s: Warm-up charged to each scaled-up replica; ``None`` uses
            the replica's own parameter-packing time (the model-grounded
            deploy cost).
        slo_tpot_s: Rolling-p95 TPOT target in seconds — the latency
            signal of a disaggregated fleet's *decode* pool (a prefill
            pool keeps watching TTFT).  ``None`` (the default) disables
            the signal.
        kv_pressure_high: Mean KV-pool utilisation across the observed
            pool above this fraction triggers a scale-up — the decode
            pool's memory signal (imported KV piling up faster than
            decodes retire it).  ``None`` (the default) disables it;
            down-scaling then also ignores KV occupancy.
        class_miss_high: Value-weighted per-class SLO miss fraction above
            this triggers a scale-up — the multi-tenant signal.  The
            cluster computes, over the trailing window's first tokens,
            the class-value-weighted fraction whose TTFT exceeded their
            *own class's* target; a single global ``slo_ttft_s`` cannot
            see an interactive tenant drowning while the fleet-wide p95
            still looks fine.  Down-scaling requires the miss fraction
            under ``slo_margin`` of this threshold.  ``None`` (the
            default) disables the signal entirely.
    """

    min_replicas: int = 1
    max_replicas: int = 4
    slo_ttft_s: Optional[float] = None
    control_interval_s: float = 0.25
    queue_high_per_replica: float = 4.0
    queue_low_per_replica: float = 1.0
    ttft_window_s: float = 2.0
    min_window_samples: int = 5
    cooldown_s: float = 0.5
    slo_margin: float = 0.8
    warmup_s: Optional[float] = None
    slo_tpot_s: Optional[float] = None
    kv_pressure_high: Optional[float] = None
    class_miss_high: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be at least 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.slo_ttft_s is not None and self.slo_ttft_s <= 0:
            raise ValueError("slo_ttft_s must be positive")
        if self.control_interval_s <= 0:
            raise ValueError("control_interval_s must be positive")
        if self.queue_low_per_replica > self.queue_high_per_replica:
            raise ValueError(
                "queue_low_per_replica must not exceed "
                "queue_high_per_replica")
        if self.ttft_window_s <= 0:
            raise ValueError("ttft_window_s must be positive")
        if self.min_window_samples < 1:
            raise ValueError("min_window_samples must be at least 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if not 0 < self.slo_margin <= 1:
            raise ValueError("slo_margin must be within (0, 1]")
        if self.warmup_s is not None and self.warmup_s < 0:
            raise ValueError("warmup_s must be non-negative")
        if self.slo_tpot_s is not None and self.slo_tpot_s <= 0:
            raise ValueError("slo_tpot_s must be positive")
        if self.kv_pressure_high is not None \
                and not 0 < self.kv_pressure_high <= 1:
            raise ValueError("kv_pressure_high must be within (0, 1]")
        if self.class_miss_high is not None \
                and not 0 < self.class_miss_high <= 1:
            raise ValueError("class_miss_high must be within (0, 1]")


@dataclass(frozen=True)
class ScaleDecision:
    """One control-tick outcome (also the autoscaler's audit trail)."""

    time_s: float
    action: str                 # "up" | "down" | "hold"
    queue_depth: int
    routable: int
    provisioned: int
    rolling_p95_ttft_s: Optional[float]   # None = too few window samples
    # Decode-pool signals of a disaggregated fleet (None on the classic
    # TTFT/queue loop).
    rolling_p95_tpot_s: Optional[float] = None
    kv_utilization: Optional[float] = None
    # Value-weighted per-class SLO miss over the window (None when the
    # class signal is disabled or the window holds too little evidence).
    class_miss: Optional[float] = None


class Autoscaler:
    """Evaluates the scaling policy at one control tick at a time."""

    def __init__(self, config: Optional[AutoscalerConfig] = None) -> None:
        self.config = config if config is not None else AutoscalerConfig()
        self._last_action_s = -math.inf
        self.decisions: list = []

    def reset(self) -> None:
        """Forget cooldown state and the audit trail (a fresh run).  The
        cluster calls this at the top of every ``run()`` so repeated runs
        of one cluster object replay identically."""
        self._last_action_s = -math.inf
        self.decisions = []

    def rolling_p95(self, ttfts: Sequence[float]) -> Optional[float]:
        """p95 of the window sample, or ``None`` below the evidence floor.

        Deliberately the pure-python :func:`percentile` over a small
        window, not the vectorized report-time path: window entries may
        arrive as numpy scalars (the workers' columnar sample feeds), so
        the result is pinned back to a plain float to keep the audit
        trail (:class:`ScaleDecision`) JSON-clean."""
        if len(ttfts) < self.config.min_window_samples:
            return None
        return float(percentile(ttfts, 95.0))

    def decide(self, now: float, queue_depth: int, routable: int,
               provisioned: int, window_ttfts: Sequence[float],
               window_tpots: Sequence[float] = (),
               kv_utilization: Optional[float] = None,
               class_miss: Optional[float] = None) -> str:
        """One control evaluation; returns ``"up"``, ``"down"`` or
        ``"hold"`` and records the decision.

        Args:
            now: Simulated control-tick time.
            queue_depth: Fleet-wide admission backlog (submitted, not yet
                admitted into any batch).
            routable: Replicas currently taking traffic (ACTIVE).
            provisioned: Replicas consuming capacity (ACTIVE + WARMING).
            window_ttfts: TTFTs of requests whose first token landed in
                the trailing window.
            window_tpots: TPOTs of requests that completed within the
                trailing window — the decode-pool latency signal, judged
                against ``slo_tpot_s`` (pass nothing to disable).
            kv_utilization: Mean KV-pool occupancy of the observed pool,
                judged against ``kv_pressure_high`` (``None`` disables).
            class_miss: Value-weighted fraction of the window's classed
                first tokens that missed their own class's TTFT target,
                judged against ``class_miss_high`` (``None`` = signal
                disabled or too little window evidence).
        """
        config = self.config
        p95 = self.rolling_p95(window_ttfts)
        p95_tpot = self.rolling_p95(window_tpots)
        queue_per_replica = queue_depth / max(1, routable)
        cooled = now - self._last_action_s >= config.cooldown_s

        action = "hold"
        if provisioned < config.min_replicas:
            # Dead-replica replacement: only a crash can leave fewer
            # replicas provisioned (ACTIVE + WARMING) than the floor —
            # drains are gated on provisioned > min — so this is the
            # fault-recovery path and it bypasses the cooldown: waiting
            # out a cooldown while under-provisioned would just stretch
            # the outage.  Fault-free runs never enter this branch.
            action = "up"
        elif cooled:
            congested = queue_per_replica > config.queue_high_per_replica
            kv_pressured = (config.kv_pressure_high is not None
                            and kv_utilization is not None
                            and kv_utilization > config.kv_pressure_high)
            slo_missed = (
                (config.slo_ttft_s is not None and p95 is not None
                 and p95 > config.slo_ttft_s)
                or (config.slo_tpot_s is not None and p95_tpot is not None
                    and p95_tpot > config.slo_tpot_s)
                or (config.class_miss_high is not None
                    and class_miss is not None
                    and class_miss > config.class_miss_high))
            slo_clear = (
                (config.slo_ttft_s is None or p95 is None
                 or p95 <= config.slo_margin * config.slo_ttft_s)
                and (config.slo_tpot_s is None or p95_tpot is None
                     or p95_tpot <= config.slo_margin * config.slo_tpot_s)
                and (config.kv_pressure_high is None
                     or kv_utilization is None
                     or kv_utilization <= config.slo_margin
                     * config.kv_pressure_high)
                and (config.class_miss_high is None or class_miss is None
                     or class_miss <= config.slo_margin
                     * config.class_miss_high))
            if (congested or slo_missed or kv_pressured) \
                    and provisioned < config.max_replicas:
                action = "up"
            elif queue_per_replica < config.queue_low_per_replica \
                    and slo_clear and provisioned > config.min_replicas \
                    and routable > 1:
                # routable > 1: a drain must leave at least one replica
                # taking traffic, so with only warming spares there is no
                # admissible victim — deciding "down" anyway would burn
                # the cooldown on an action the fleet cannot apply.
                action = "down"
        if action != "hold":
            self._last_action_s = now
        self.decisions.append(ScaleDecision(
            time_s=now, action=action, queue_depth=queue_depth,
            routable=routable, provisioned=provisioned,
            rolling_p95_ttft_s=p95, rolling_p95_tpot_s=p95_tpot,
            kv_utilization=kv_utilization, class_miss=class_miss))
        return action
