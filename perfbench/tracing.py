"""Span recorder and layer wrappers for the traced benchmark run.

The benchmark measures the program from outside: nothing under ``src/``
knows it is being traced.  :func:`install` replaces each layer's public
functions with timing wrappers, patching every place a caller looks the
function up (a module-level function imported with ``from ... import`` is
patched in each importing module, a method on its class), and
:meth:`Layers.uninstall` puts the originals back.

Spans are aggregated as they close, per thread, into ``calls``,
``inclusive`` (outermost occurrence of a name only, so recursion and
same-layer nesting are not double counted) and ``self`` (duration minus
the direct child spans it covers).  ``edges`` keeps inclusive time per
``(parent, child)`` pair so a caller can attribute one layer's time to the
layer that caused it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

#: ``(span name, module, attribute path)``: the public entry points of each
#: layer.  Names are ``<layer module>.<what>``.
TARGETS = (
    ("circuit.build", "repro.api.spec", "PipelineSpec.build"),
    ("circuit.compile", "repro.circuit.netlist", "Netlist.timing_schedule"),
    ("circuit.accessor", "repro.circuit.netlist", "Netlist.sizes"),
    ("circuit.accessor", "repro.circuit.netlist", "Netlist.positions"),
    ("circuit.accessor", "repro.circuit.netlist", "Netlist.cell_coefficients"),
    ("circuit.accessor", "repro.circuit.netlist", "Netlist.load_capacitances"),
    ("process.sample", "repro.process.sampling", "ParameterSampler.sample"),
    ("timing.delay_model", "repro.timing.delay_model", "GateDelayModel.delay_samples"),
    ("timing.delay_model", "repro.timing.delay_model", "GateDelayModel.nominal_delays"),
    ("timing.propagate", "repro.timing.sta", "max_delay"),
    ("timing.propagate", "repro.timing.sta", "arrival_times"),
    ("timing.ssta", "repro.timing.ssta", "StatisticalTimingAnalyzer.gate_delay_components"),
    ("timing.ssta", "repro.timing.ssta", "StatisticalTimingAnalyzer.arrival_components"),
    ("timing.ssta", "repro.timing.ssta", "StatisticalTimingAnalyzer.combinational_delay"),
    ("timing.ssta", "repro.timing.ssta", "StatisticalTimingAnalyzer.flipflop_form"),
    ("timing.ssta", "repro.timing.ssta", "StatisticalTimingAnalyzer.stage_delay"),
    ("timing.ssta", "repro.timing.ssta", "StatisticalTimingAnalyzer.pipeline_stage_forms"),
    ("timing.ssta", "repro.timing.ssta", "StatisticalTimingAnalyzer.correlation_matrix"),
    ("montecarlo.run", "repro.montecarlo.engine", "MonteCarloEngine.run_pipeline"),
    ("core.clark", "repro.core.pipeline_delay", "PipelineDelayModel.estimate"),
    ("core.clark", "repro.core.clark", "max_of_gaussians"),
    ("optimize.size_stage", "repro.optimize.lagrangian", "LagrangianSizer.size_stage"),
    ("optimize.size_stage", "repro.optimize.greedy", "GreedySizer.size_stage"),
    ("optimize.curve", "repro.optimize.area_delay", "characterize_stage"),
    ("api.session", "repro.api.session", "Session.run"),
    ("api.session", "repro.api.session", "Session.analyze"),
    ("api.session", "repro.api.session", "Session.design"),
    ("robust.create_pool", "repro.robust.executor", "create_pool"),
    ("robust.store_get", "repro.robust.checkpoint", "CheckpointStore.get"),
    ("robust.store_put", "repro.robust.checkpoint", "CheckpointStore.put"),
)


class Recorder:
    """Thread-safe per-name span aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        # Re-entrant: a signal handler may reset the recorder on a thread
        # that is inside a span's bookkeeping.
        self._lock = threading.RLock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.totals: dict[str, list] = {}  # name -> [calls, inclusive, self]
            self.edges: dict[tuple[str, str], float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += elapsed
                outermost = all(entry[0] != name for entry in stack)
                with recorder._lock:
                    entry = recorder.totals.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed if outermost else 0.0
                    entry[2] += elapsed - frame[1]
                    if parent is not None and parent != name:
                        key = (parent, name)
                        recorder.edges[key] = recorder.edges.get(key, 0.0) + elapsed

        return wrapper

    def snapshot(self) -> dict:
        """JSON-safe copy: ``{"spans": {name: {...}}, "edges": {...}}``."""
        with self._lock:
            return {
                "spans": {
                    name: {"calls": c, "inclusive_s": inc, "self_s": own}
                    for name, (c, inc, own) in self.totals.items()
                },
                "edges": {f"{p}>{c}": t for (p, c), t in self.edges.items()},
            }


class Layers:
    """The installed wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(recorder: Recorder, extra=()) -> Layers:
    """Wrap every target in :data:`TARGETS` (plus ``extra``) with spans."""
    # Load every importer first, so each lookup site exists to be patched.
    for module_name in ("repro", "repro.api", "repro.robust.shard", "repro.timing.paths"):
        importlib.import_module(module_name)
    layers = Layers()
    for name, module_name, path in tuple(TARGETS) + tuple(extra):
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = inspect.getattr_static(owner, attr)
            if not inspect.isfunction(original):
                raise TypeError(f"{module_name}.{path} is not a plain method")
            layers.patch(owner, attr, recorder.wrap(name, original))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(name, original)
        # Patch the function wherever a caller looks it up by name.
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.startswith("repro") and loaded is not None:
                if loaded.__dict__.get(attr) is original:
                    layers.patch(loaded, attr, wrapper)
    return layers
