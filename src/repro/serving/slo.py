"""Multi-tenant SLO classes and the value-density request score.

Real fleets do not schedule on a bare integer priority: they differentiate
*tenant classes* — interactive chat, standard API traffic, batch jobs,
best-effort backfill — each with its own latency targets and a value weight,
and order work by **value density with aging**::

    score(request, now) = value * urgency / expected_cost + aging

* ``value`` is the request's class weight — what a unit of its service is
  worth relative to the other classes.
* ``urgency = 1 + wait / ttft_target`` grows as the request ages toward (and
  past) its class's TTFT target, so a class with a tight target climbs the
  queue quickly while a loose-target class ambles.
* ``expected_cost`` is the work still to be done (remaining prompt + output
  tokens, normalised by :data:`COST_NORM_TOKENS`), making the ratio a
  value *density* — cheap requests of equal value are served first, the
  classic SJF-flavoured throughput win.
* ``aging = aging_rate * wait`` is the anti-starvation term.

**Why starvation is impossible under the score.**  A freshly arrived
request's score is bounded: ``wait = 0`` makes ``urgency = 1`` and
``aging = 0``, so no fresh arrival can score above
``max_value / min_cost`` — a constant of the class registry and the
workload.  A waiting request's score grows at least linearly in its wait
(``d score / d wait >= aging_rate > 0``), hence without bound.  Therefore
every waiting request — a best-effort one included — eventually outscores
every possible fresh arrival and reaches the head of the queue; and the
scheduler's no-overtake rule (admission always takes the queue head, see
:mod:`repro.serving.policies.admission`) then admits it.  The bound on its
wait is roughly ``(max_value / min_cost) / aging_rate`` seconds past the
point where the backlog ahead of it drains — finite and independent of the
trace length, which is exactly what the starvation-prone ``priority``
policy cannot offer.

The one score function below is consumed everywhere a scheduling decision
ranks requests: admission ordering (``score``), preemption victim selection
(``lowest_score``), cluster routing (``score``) and the autoscaler's
class-weighted SLO-miss signal — one consistent notion of "who matters
most right now" across the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.serving.request import ServingRequest


@dataclass(frozen=True)
class SLOClass:
    """One tenant class: latency targets plus a value weight.

    Attributes:
        name: Registry key (``interactive`` / ``standard`` / ``batch`` /
            ``best_effort``).
        ttft_target_s: Time-to-first-token target; also the urgency
            normaliser — a request one target past its arrival has
            ``urgency = 2``.
        tpot_target_s: Time-per-output-token target (reporting only; the
            score keys on TTFT because admission is what it orders).
        value: Relative worth of serving this class (the score numerator
            and the weight in class-weighted attainment).
        tier: Integer rank (higher = more important) — the priority the
            class maps onto for the legacy ``priority`` policies, so the
            baseline remains meaningful on class-mixed traces.
    """

    name: str
    ttft_target_s: float
    tpot_target_s: float
    value: float
    tier: int

    def __post_init__(self) -> None:
        if self.ttft_target_s <= 0:
            raise ValueError("ttft_target_s must be positive")
        if self.tpot_target_s <= 0:
            raise ValueError("tpot_target_s must be positive")
        if self.value <= 0:
            raise ValueError("value must be positive")


SLO_CLASSES: Dict[str, SLOClass] = {
    cls.name: cls
    for cls in (
        SLOClass("interactive", ttft_target_s=0.3, tpot_target_s=0.03,
                 value=8.0, tier=3),
        SLOClass("standard", ttft_target_s=1.0, tpot_target_s=0.06,
                 value=4.0, tier=2),
        SLOClass("batch", ttft_target_s=4.0, tpot_target_s=0.15,
                 value=2.0, tier=1),
        SLOClass("best_effort", ttft_target_s=15.0, tpot_target_s=0.5,
                 value=1.0, tier=0),
    )
}

#: The class assumed for requests that carry none — chosen so an unclassed
#: trace scores every request identically and the score policies reduce to
#: deterministic arrival order.
DEFAULT_SLO_CLASS = SLO_CLASSES["standard"]

#: Token count one "unit of cost" corresponds to.  Pure normalisation: it
#: sets the scale of ``value / expected_cost`` against the aging term, and
#: 100 tokens ~ the midpoint of the default trace-generator workloads.
COST_NORM_TOKENS = 100.0

#: Default aging rate (score units per waiting second).  High enough that a
#: best-effort request overtakes fresh interactive arrivals within a few
#: tens of seconds of waiting (see the module docstring for the bound),
#: low enough that classes stay differentiated at sub-second waits.
DEFAULT_AGING_RATE = 0.2


def resolve_slo_class(slo_class: Union[str, SLOClass, None]
                      ) -> "SLOClass | None":
    """Accepts a class name (``best-effort`` normalises to ``best_effort``),
    an :class:`SLOClass` instance, or ``None`` (pass-through)."""
    if slo_class is None or isinstance(slo_class, SLOClass):
        return slo_class
    try:
        return SLO_CLASSES[slo_class.replace("-", "_")]
    except KeyError:
        raise ValueError(
            f"unknown SLO class {slo_class!r}; "
            f"choose from {sorted(SLO_CLASSES)}") from None


def request_value(request: "ServingRequest") -> float:
    """The request's class value weight (the default class's for an
    unclassed request)."""
    slo = request.slo_class
    return (slo if slo is not None else DEFAULT_SLO_CLASS).value


def request_score(request: "ServingRequest", now: float,
                  aging_rate: float = DEFAULT_AGING_RATE) -> float:
    """The global scheduling score at time ``now`` (higher = serve first).

    ``wait`` is measured from :attr:`ServingRequest.enqueue_s` — the moment
    the request became visible to its current device (arrival, or a KV
    migration landing) — clamped at 0 for requests scored before they are
    technically visible.  ``expected_cost`` is the *remaining* work
    (total tokens minus those already emitted), so a preempted or
    half-decoded request looks cheaper to finish than to start a fresh
    one of the same shape — finishing started work is the preemption
    policy's tie-breaker for free.
    """
    slo = request.slo_class
    if slo is None:
        slo = DEFAULT_SLO_CLASS
    wait = now - request.enqueue_s
    if wait < 0.0:
        wait = 0.0
    remaining = request.workload.total_tokens - request.tokens_emitted
    if remaining < 1:
        remaining = 1
    expected_cost = remaining / COST_NORM_TOKENS
    urgency = 1.0 + wait / slo.ttft_target_s
    return slo.value * urgency / expected_cost + aging_rate * wait


def parse_class_mix(spec: Union[str, Mapping[str, float],
                                Sequence[Tuple[str, float]]],
                    ) -> List[Tuple[str, float]]:
    """Normalise a class-mix spec into ``[(name, probability), ...]``.

    Accepts ``"interactive=1,batch=3"`` (the CLI form), a mapping, or a
    sequence of pairs.  Names are validated against the registry (and
    ``-``/``_`` normalised), weights must be positive, and the result is
    ordered by class tier (most important first) with weights scaled to
    sum to 1 — a deterministic drawing order whatever form the spec came
    in.
    """
    if isinstance(spec, str):
        pairs = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, eq, weight = part.partition("=")
            if not eq:
                raise ValueError(
                    f"class-mix entry {part!r} is not name=weight")
            try:
                pairs.append((name.strip(), float(weight)))
            except ValueError:
                raise ValueError(
                    f"class-mix weight {weight!r} is not a number"
                    ) from None
    elif isinstance(spec, Mapping):
        pairs = list(spec.items())
    else:
        pairs = [(name, float(weight)) for name, weight in spec]
    if not pairs:
        raise ValueError("a class mix needs at least one class")
    resolved: Dict[str, float] = {}
    for name, weight in pairs:
        cls = resolve_slo_class(name)
        if weight <= 0:
            raise ValueError(
                f"class-mix weight for {cls.name!r} must be positive, "
                f"got {weight}")
        if cls.name in resolved:
            raise ValueError(f"class {cls.name!r} listed twice in the mix")
        resolved[cls.name] = weight
    total = sum(resolved.values())
    ordered = sorted(resolved.items(),
                     key=lambda item: -SLO_CLASSES[item[0]].tier)
    return [(name, weight / total) for name, weight in ordered]
