"""Per-layer host-time accounting for the traced benchmark run.

The benchmark never edits the program: it wraps the public functions of
each layer from the outside for the duration of one traced repetition and
restores them afterwards.  A wrapper only observes — it forwards every
argument and return value unchanged — so a traced run must produce the same
report bytes as an untraced one (``run.py`` checks the digests).

Self time is the time inside a wrapped function minus the time inside the
wrapped functions it called.  The wrappers are installed only around
``ServingCluster.run``, so the self times of all layers sum to that call's
inclusive time.  They read the wall clock (``time.perf_counter``), which
costs a sixth of a CPU-time reading at a million calls per run; read them
as shares of ``cluster.run.total_s``.

``StepCost`` derives the ``hw.*`` figures from tensor sizes with the public
``block_flops`` and ``FpgaPerformanceModel`` attributes.  They are computed
from simulated time, not measured hardware utilisation.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

# Public KVBlockManager methods that change pool state.
KV_MUTATORS = ("claim", "release", "pin_prefix", "extend_prefix",
               "mark_prefix_computed", "mark_pressure", "refresh_pressure",
               "export", "export_kv", "import_kv", "reset")

CLUSTER_MODULE = "repro.serving.cluster.cluster"

# Layer name -> the (module, attribute path) targets wrapped for it.  The
# two module-level functions are wrapped where ServingCluster.run looks
# them up.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "cluster.run": [(CLUSTER_MODULE, "ServingCluster.run")],
    "events": [("repro.serving.cluster.events", f"EventQueue.{name}")
               for name in ("push", "pop", "arm_step", "disarm_step")],
    "router.dispatch": [("repro.serving.cluster.router",
                         "ClusterRouter.dispatch")],
    "autoscaler.decide": [("repro.serving.cluster.autoscaler",
                           "Autoscaler.decide")],
    "report.build": [(CLUSTER_MODULE, "build_cluster_report")],
    "request.from_trace": [(CLUSTER_MODULE, "requests_from_trace")],
    "engine.step": [("repro.serving.engine", "DeviceWorker.step")],
    "scheduler.plan_step": [("repro.serving.scheduler",
                             "ContinuousBatchingScheduler.plan_step")],
    "session.execute_step": [("repro.runtime.session",
                              "InferenceSession.execute_step")],
    "session.start_request": [("repro.runtime.session",
                               "InferenceSession.start_request")],
    "session.record": [("repro.runtime.session", "ActiveRequest.record")],
    "kv_manager": [("repro.serving.kv_manager", f"KVBlockManager.{name}")
                   for name in KV_MUTATORS],
}

# Layers whose work is per request rather than per token or per step.
PER_REQUEST_LAYERS = ("router.dispatch", "request.from_trace",
                      "session.start_request", "report.build")


def resolve(module_name: str, path: str):
    """(owner, attribute name, current value), or None when the target no
    longer exists in the program."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    value = owner.__dict__.get(name) if isinstance(owner, type) \
        else getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


class Patch:
    """Replaces attributes for the life of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class LayerClock:
    """Calls and self time per layer, taken by wrapping its functions.

    ``observers`` maps a layer name to a callback ``(args, result)`` run
    after each call of that layer returns; it feeds :class:`StepCost`.  A
    callback runs outside the call's timing, so its cost lands in the
    caller's self time.
    """

    def __init__(self, observers: Optional[Dict[str, Callable]] = None
                 ) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.absent: List[str] = []
        self._observers = observers or {}
        self._stack: List[float] = []

    def install(self, patch: Patch) -> None:
        """Wrap every layer target that still exists; a layer none of
        whose targets exist is listed in ``absent``."""
        for layer, targets in LAYERS.items():
            found = False
            for module_name, path in targets:
                resolved = resolve(module_name, path)
                if resolved is None:
                    continue
                owner, name, original = resolved
                patch.replace(owner, name, self._wrap(layer, original))
                found = True
            if found:
                self.calls[layer] = 0
                self.self_s[layer] = 0.0
                self.total_s[layer] = 0.0
            else:
                self.absent.append(layer)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        observe = self._observers.get(layer)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    total_s[layer] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class StepCost:
    """Modelled hardware cost of the engine steps one run executed.

    Each ``ActiveRequest.record`` call adds its slice to the current step;
    the enclosing ``DeviceWorker.step`` call closes it.  Step time is the
    ``seconds`` the engine passed to ``record``.  Block FLOPs come from the
    public ``block_flops``, which is linear in ``tokens`` and
    ``tokens * kv_len``; the two coefficients are read off it once and
    checked at a third point.
    """

    def __init__(self, config, model) -> None:
        from repro.models.transformer import block_flops

        per_token = block_flops(config, 1, 0)
        per_token_kv = block_flops(config, 1, 1) - per_token
        probe = block_flops(config, 3, 5)
        if abs(probe - (3 * per_token + 15 * per_token_kv)) > 1e-9 * probe:
            raise ValueError("block_flops is not linear in tokens and "
                             "tokens * kv_len; hw.* needs another form")
        activation_bytes = model.platform.quantization.activation_bits / 8.0
        self._layers = config.num_layers
        self._flops_per_token = per_token
        self._flops_per_token_kv = per_token_kv
        self._ops_per_s = model.effective_ops_per_s
        self._weight_bytes = model.weight_bytes(config.layer_params())
        self._kv_bytes_per_row = 2 * config.kv_hidden_size * activation_bytes
        self._head_bytes = model.weight_bytes(config.vocab_size
                                              * config.hidden_size)
        self._hbm = model.weight_stream_gbs * 1e9
        self._open()
        self.steps = 0
        self.slices = 0
        self.tokens = 0
        self.prefill_tokens = 0
        self.emitted = 0
        self.compute_bound_steps = 0
        self.bytes_moved = 0.0
        self.step_seconds = 0.0

    def _open(self) -> None:
        self._n = 0
        self._tokens = 0
        self._token_kv = 0
        self._kv = 0
        self._emitted = 0
        self._seconds = 0.0

    def on_record(self, args, emitted) -> None:
        work, seconds = args[1], args[2]
        self._n += 1
        self._tokens += work.tokens
        self._token_kv += work.tokens * work.kv_len
        self._kv += work.kv_len
        self._emitted += emitted
        self._seconds = seconds
        if work.kind == "prefill":
            self.prefill_tokens += work.tokens

    def on_step(self, args, stepped) -> None:
        if not self._n:
            return
        compute_s = (self._flops_per_token * self._tokens
                     + self._flops_per_token_kv * self._token_kv) \
            / self._ops_per_s
        kv_bytes = self._kv_bytes_per_row * self._kv
        memory_s = (self._weight_bytes + kv_bytes) / self._hbm
        self.steps += 1
        self.slices += self._n
        self.tokens += self._tokens
        self.emitted += self._emitted
        self.compute_bound_steps += compute_s > memory_s
        self.bytes_moved += self._layers * (self._weight_bytes + kv_bytes) \
            + (self._head_bytes if self._emitted else 0.0)
        self.step_seconds += self._seconds
        self._open()

    def observers(self) -> Dict[str, Callable]:
        return {"session.record": self.on_record,
                "engine.step": self.on_step}

    def metrics(self, replica_seconds: float) -> Dict[str, float]:
        steps = max(self.steps, 1)
        return {
            "hw.steps": self.steps,
            "hw.slices_per_step": self.slices / steps,
            "hw.prefill_token_share": self.prefill_tokens
            / max(self.tokens, 1),
            "hw.busy_share": self.step_seconds / replica_seconds
            if replica_seconds > 0 else 0.0,
            "hw.compute_bound_share": self.compute_bound_steps / steps,
            "hw.bytes_per_token": self.bytes_moved / max(self.emitted, 1),
        }
