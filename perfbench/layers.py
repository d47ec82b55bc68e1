"""Per-layer instrumentation for the traced run.

:meth:`Probe.install` wraps the public entry point of every layer with a
timer and counters, and installs a private :class:`repro.obs.Tracer`
that also collects the ``stage.*``/``pass.*``/``unit.*``/``cache.*``/
``store.*`` spans the program already emits (and, on ``serve``, the
worker spans the service ships back with each reply).

Two kinds of wrapper:

* **span** wrappers, for entry points called at most a few thousand
  times a second: the call becomes a span named ``<layer>.<entry>``,
  nested in the span tree like the program's own spans;
* **timer** wrappers, for per-event dispatch loops where a span per call
  would distort the run: a counter and a clock, charged to the layer
  and subtracted from the span that was open around the call.

:func:`layer_table` turns the spans and timers into self time per layer:
a span's duration minus its child spans and the timer time charged to
it.  Wrapped calls never nest inside timer calls.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.obs.trace import Tracer, current_context, set_tracer, span

LAYERS = ("semantics", "optim", "codegen", "compiler", "vm", "fleet",
          "fuzz", "engine", "store", "service")

#: Span-name prefix -> layer, for the spans the program emits itself.
_PREFIXES = (
    ("stage.generate", "codegen"), ("stage.assemble", "vm"),
    ("stage.", "compiler"), ("pass.", "compiler"), ("unit.", "compiler"),
    ("cache.", "engine"), ("client.", "service"), ("worker.", "service"),
    ("loadgen.", "service"),
)

#: (module, attribute, span or timer name, kind)
_ENTRY_POINTS = (
    ("repro.optim.manager", "optimize", "optim.optimize", "span"),
    ("repro.optim.equivalence", "check_equivalence",
     "semantics.equivalence", "span"),
    ("repro.semantics.runtime", "MachineInstance.dispatch",
     "semantics.dispatch", "timer"),
    ("repro.compiler.frontend.lower", "lower_unit", "compiler.lower", "span"),
    ("repro.compiler.driver", "optimize_function",
     "compiler.optimize_function", "span"),
    ("repro.compiler.driver", "backend_function",
     "compiler.backend_function", "span"),
    ("repro.compiler.units", "compile_one_unit", "compiler.unit_compile",
     "span"),
    ("repro.vm.image", "assemble", "vm.assemble", "span"),
    ("repro.vm.harness", "CompiledMachineVM.dispatch", "vm.dispatch",
     "timer"),
    ("repro.fleet.table", "compile_table", "fleet.compile_table", "span"),
    ("repro.fleet.engine", "Fleet.dispatch_all", "fleet.dispatch", "timer"),
    ("repro.fuzz.generate", "generate_case", "fuzz.generate", "span"),
    ("repro.fuzz.oracle", "DifferentialOracle.run_case", "fuzz.oracle",
     "span"),
    ("repro.engine.cache", "CompileCache.get_or_compute", "engine.lookup",
     "span"),
    ("repro.store.artifact", "ArtifactStore.get", "store.get", "span"),
    ("repro.store.artifact", "ArtifactStore.put", "store.put", "span"),
)


def layer_of(name: str) -> Optional[str]:
    """The layer a span or timer name belongs to (None: not a layer)."""
    head = name.split(".", 1)[0]
    if head in LAYERS:
        return head
    for prefix, layer in _PREFIXES:
        if name.startswith(prefix):
            return layer
    return None


class Probe:
    """Counters, timers and the private tracer of one traced run."""

    def __init__(self) -> None:
        self.tracer = Tracer(sample_ratio=1.0, max_spans=2_000_000,
                             process="bench")
        self.counts: Dict[str, float] = defaultdict(float)
        self.timer_s: Dict[str, float] = defaultdict(float)
        #: span id -> timer seconds that ran inside that span
        self.charged: Dict[Optional[str], float] = defaultdict(float)
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        self._previous_tracer = None

    def _count_result(self, name: str, result: Any) -> None:
        counts = self.counts
        if name == "semantics.equivalence":
            counts["semantics.scenarios"] += result.scenarios_run
        elif name == "optim.optimize":
            counts["optim.elements_removed"] += (
                len(result.removed_states) + len(result.removed_transitions)
                + len(result.removed_events))
        elif name == "vm.assemble":
            counts["vm.text_bytes"] += len(result.text)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        probe = self

        def wrapper(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            with probe._lock:
                probe._count_result(name, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _timer_wrapper(self, name: str, fn: Callable) -> Callable:
        probe = self
        clock = time.perf_counter
        count_name = name + "es"          # e.g. vm.dispatch -> vm.dispatches

        def wrapper(*args, **kwargs):
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - began
                ctx = current_context()
                with probe._lock:
                    probe.counts[count_name] += 1
                    probe.timer_s[name] += spent
                    probe.charged[ctx.span_id if ctx else None] += spent
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Probe":
        """Wrap every entry point and install the private tracer."""
        from repro.codegen import ALL_PATTERNS
        targets = []
        for module_name, attr, name, kind in _ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            targets.append((owner, attr, name, kind))
        targets += [(gen_cls, "generate", "codegen.generate", "span")
                    for gen_cls in ALL_PATTERNS]
        for owner, attr, name, kind in targets:
            make = self._span_wrapper if kind == "span" \
                else self._timer_wrapper
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, make(name, original))
                continue
            # Module functions: rebind every ``from x import f`` copy.
            original = getattr(owner, attr)
            wrapped = make(name, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") \
                        and getattr(module, attr, None) is original:
                    self._patch(module, attr, original, wrapped)
        self._previous_tracer = set_tracer(self.tracer)
        return self

    def _patch(self, owner: Any, attr: str, original: Any,
               wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()
        if self._previous_tracer is not None:
            set_tracer(self._previous_tracer)
            self._previous_tracer = None


def layer_table(probe: Probe) -> Dict[str, Any]:
    """Self time per layer plus total, self time and count per span
    name."""
    spans = probe.tracer.spans()
    child_s: Dict[str, float] = defaultdict(float)
    for entry in spans:
        if entry["parent_id"] is not None:
            child_s[entry["parent_id"]] += entry["dur"]
    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    total: Dict[str, float] = defaultdict(float)
    own_total: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    written = 0
    for entry in spans:
        name = entry["name"]
        own = entry["dur"] - child_s[entry["span_id"]] \
            - probe.charged.get(entry["span_id"], 0.0)
        total[name] += entry["dur"]
        own_total[name] += own
        count[name] += 1
        if name == "store.write":
            written += int((entry.get("attrs") or {}).get("bytes") or 0)
        layer = layer_of(name)
        if layer is not None:
            self_s[layer] += own
    for name, seconds in probe.timer_s.items():
        self_s[layer_of(name)] += seconds
    return {"self_s": self_s, "total_s": dict(total),
            "span_self_s": dict(own_total), "count": dict(count),
            "store_bytes_written": written, "dropped": probe.tracer.dropped}
