"""Layer spans for the traced pass, recorded from outside the program.

:class:`Spans` wraps the public entry points of each ``repro`` layer
(:data:`TARGETS`) and keeps, per wrapped callable, its call count, its
inclusive time and its self time -- the span's duration minus the time
its child spans cover.  Nothing under ``src/`` is edited: installing
replaces every module attribute and class attribute that ``is`` the
original callable (``from x import f`` aliases included) and
uninstalling puts each one back.

Two details keep traced runs byte-identical to untraced ones:

* each wrapper runs with globals named after the wrapped callable's
  module and its own code object, so ``repro.heatmap.attribution``'s
  stack walk (which skips simulator modules by ``__name__`` and caches
  the decision per code object) sees the wrapper exactly as it sees the
  callable it wraps;
* ``CudaRuntime.launch`` passes the kernel through a span of the
  kernel's own layer (application kernels are ``workloads`` time, not
  ``cudart`` time) and names the launch exactly as ``launch`` would.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import sys
import time
import types
from collections import defaultdict

__all__ = ["LAYERS", "TARGETS", "WRITERS", "Spans", "layer_of"]

#: The ``src/repro`` packages reported as layers; ``workloads`` is the
#: application itself.
LAYERS = ("instrument", "interp", "codegen", "runtime", "memsim", "cudart",
          "analysis", "heatmap", "causes", "signature", "telemetry",
          "stream", "workloads")

#: module -> callables (``name`` or ``Class.method``) recorded as spans of
#: the module's layer.  Workload ``run`` methods are found by scanning.
TARGETS: dict[str, tuple[str, ...]] = {
    "repro.instrument.parser": ("parse",),
    "repro.instrument.transform": ("instrument",),
    "repro.interp.interpreter": ("Interpreter.run",),
    "repro.codegen.backend": ("run_compiled",),
    "repro.codegen.emitter": ("compile_scalar",),
    "repro.codegen.vectorize": ("compile_vec",),
    "repro.runtime.tracer": tuple(f"Tracer.{m}" for m in (
        "on_alloc", "on_free", "on_access", "on_memcpy", "on_kernel_launch",
        "on_kernel_complete", "on_advice", "traceR", "traceW", "traceRW",
        "advance_epoch")),
    "repro.memsim.unified_memory": tuple(f"UnifiedMemoryDriver.{m}" for m in (
        "access", "access_bytes", "prefetch", "set_read_mostly",
        "set_preferred_location", "set_accessed_by")),
    "repro.cudart.api": tuple(f"CudaRuntime.{m}" for m in (
        "malloc", "malloc_managed", "host_malloc", "free", "memcpy", "memset",
        "mem_advise", "mem_prefetch", "launch", "device_synchronize",
        "cpu_compute", "record_access")),
    "repro.analysis.advisor": ("diagnose",),
    "repro.heatmap.store": ("HeatStore.record", "HeatStore.advance_epoch",
                            "HeatStore.to_csv", "HeatStore.to_npz"),
    "repro.heatmap.html": ("build_report",),
    "repro.causes.capture": ("build_report",),
    "repro.signature.vector": ("signature_from_store", "RunSignature.save",
                               "epoch_vector", "combine_vectors"),
    "repro.signature.phases": ("PhaseDetector.update",),
    "repro.signature.tracker": ("PhaseTracker.finish",),
    "repro.telemetry.recorder": tuple(f"TelemetryRecorder.{m}" for m in (
        "on_alloc", "on_free", "on_access", "on_memcpy", "on_kernel_launch",
        "on_kernel_complete", "on_advice", "record_diagnosis", "flush")),
    "repro.stream.segments": ("SegmentWriter.write_segment", "read_segment"),
    "repro.stream.merge": ("merge_shards", "MergedRun.write"),
    "repro.stream.shard": ("run_streaming", "split_stream"),
    "repro.stream.spill": ("SpillingHeatStore.advance_epoch",
                           "StreamSpiller.on_alloc", "StreamSpiller.close"),
}

#: Packages whose classes' own ``run`` methods are ``workloads`` spans.
WORKLOAD_PACKAGES = ("repro.workloads.rodinia", "repro.workloads.lulesh",
                     "repro.workloads.smithwaterman", "repro.workloads.spatter")

#: Writer metrics: inclusive time of these spans (keys as in :meth:`Spans.key`).
WRITERS: dict[str, tuple[str, ...]] = {
    "heatmap.write": ("repro.heatmap.store:HeatStore.to_csv",
                      "repro.heatmap.store:HeatStore.to_npz",
                      "repro.heatmap.html:build_report"),
    "telemetry.write": ("repro.telemetry.recorder:TelemetryRecorder.flush",),
    "causes.write": ("repro.causes.capture:build_report",),
    "signature.write": ("repro.signature.vector:signature_from_store",
                        "repro.signature.vector:RunSignature.save"),
    "stream.write": ("repro.stream.segments:SegmentWriter.write_segment",),
    "stream.read": ("repro.stream.segments:read_segment",),
    "stream.merge": ("repro.stream.merge:merge_shards",
                     "repro.stream.merge:MergedRun.write"),
}

_LAUNCH = "repro.cudart.api:CudaRuntime.launch"

#: Spans kept per key for the Chrome trace (totals count every span).
KEEP_PER_KEY = 1000


def layer_of(module: str) -> str:
    """The layer of a ``repro`` module (``repro.heatmap.store`` -> ``heatmap``)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


class Spans:
    """Span recorder: wrappers, per-key totals, and kept spans for a trace.

    :param clock: integer nanosecond clock (tests pass a fake one).
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: Time covered by outermost spans (the rest of an iteration is
        #: the untraced remainder).
        self.covered_ns = [0]
        #: Kept spans: ``(key, start_ns, duration_ns)``.
        self.kept: list[tuple[str, int, int]] = []
        self._kept_n: dict[str, int] = defaultdict(int)
        #: Sessions built by ``make_session`` while installed.
        self.sessions: list = []
        self._stack: list[int] = []
        #: ``{id(original): (original, wrapper)}`` while installed.
        self._installed: dict[int, tuple[object, object]] = {}
        self._kernel_spans: dict[str, object] = {}

    @staticmethod
    def key(module: str, qualname: str) -> str:
        return f"{module}:{qualname}"

    def reset(self) -> None:
        """Zero the totals (between iterations); kept spans stay."""
        self.self_ns.clear()
        self.incl_ns.clear()
        self.calls.clear()
        self.covered_ns[0] = 0
        self.sessions.clear()

    # ------------------------------------------------------------------ #
    # wrappers

    def wrap(self, fn, module: str, qualname: str, *, launch: bool = False):
        """A span wrapper for ``fn`` that looks like ``fn``'s module to
        stack walkers.  With ``fn=None`` the wrapper calls its first
        argument with the rest (kernels); ``launch=True`` marks
        ``CudaRuntime.launch``, whose kernel argument gets its own span."""
        key = self.key(module, qualname)
        clock, stack = self.clock, self._stack
        self_ns, incl_ns, calls = self.self_ns, self.incl_ns, self.calls
        covered, kept, kept_n = self.covered_ns, self.kept, self._kept_n
        # Everything the wrapper uses is a closure cell: its globals are
        # replaced by the wrapped module's name below.
        keep = KEEP_PER_KEY
        kernel_args = self._kernel_args

        def span(*args, **kwargs):
            if launch:
                args, kwargs = kernel_args(args, kwargs)
            stack.append(0)
            t0 = clock()
            try:
                if fn is None:
                    return args[0](*args[1:], **kwargs)
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_ns[key] += dur - stack.pop()
                incl_ns[key] += dur
                calls[key] += 1
                if stack:
                    stack[-1] += dur
                else:
                    covered[0] += dur
                if kept_n[key] < keep:
                    kept_n[key] += 1
                    kept.append((key, t0, dur))

        name = qualname.rsplit(".", 1)[-1]
        code = span.__code__.replace(co_name=name)
        if hasattr(code, "co_qualname"):
            code = code.replace(co_qualname=qualname)
        wrapper = types.FunctionType(
            code, {"__name__": module, "__builtins__": builtins}, name,
            None, span.__closure__)
        if fn is not None:
            functools.update_wrapper(wrapper, fn)
        return wrapper

    def _kernel_args(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """``launch(rt, kernel, ...)`` arguments with the kernel wrapped in
        a span of its own module's layer, named as ``launch`` would."""
        rt, kernel, *rest = args
        kwargs["name"] = (kwargs.get("name")
                          or getattr(kernel, "__name__", "kernel"))
        module = getattr(kernel, "__module__", None) or "kernel"
        kspan = self._kernel_spans.get(module)
        if kspan is None:
            kspan = self._kernel_spans[module] = self.wrap(
                None, module, "<kernel>")
        return (rt, functools.partial(kspan, kernel), *rest), kwargs

    # ------------------------------------------------------------------ #
    # install / uninstall

    @staticmethod
    def _replace_all(mapping: dict[int, tuple[object, object]]) -> None:
        """Set every ``repro`` module or class attribute that ``is`` a
        mapped object (``{id(old): (old, new)}``) to its replacement."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type)
                              and v.__module__.startswith("repro")]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    hit = mapping.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(owner, attr, hit[1])

    def _targets(self):
        """``(module, qualname, original)`` for every span target, after
        importing every module involved (so no import binds a wrapper)."""
        modules = [*TARGETS, *WORKLOAD_PACKAGES, "repro.workloads.base"]
        for module in modules:
            importlib.import_module(module)
        for module, names in TARGETS.items():
            mod = sys.modules[module]
            for qualname in names:
                cls_name, _, attr = qualname.rpartition(".")
                owner = getattr(mod, cls_name) if cls_name else mod
                yield module, qualname, vars(owner)[attr]
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro.workloads."):
                continue
            for cls in list(vars(mod).values()):
                if isinstance(cls, type) and cls.__module__ == mod_name \
                        and "run" in vars(cls):
                    yield mod_name, f"{cls.__name__}.run", vars(cls)["run"]

    def install(self) -> "Spans":
        """Wrap every target and capture each ``make_session`` result."""
        if self._installed:
            raise RuntimeError("spans already installed")
        mapping: dict[int, tuple[object, object]] = {}
        for module, qualname, original in self._targets():
            fn = getattr(original, "__func__", original)
            wrapper = self.wrap(fn, module, qualname,
                                launch=self.key(module, qualname) == _LAUNCH)
            if isinstance(original, (staticmethod, classmethod)):
                wrapper = type(original)(wrapper)
            mapping[id(original)] = (original, wrapper)
        make_session = sys.modules["repro.workloads.base"].make_session

        def capture(*args, **kwargs):
            session = make_session(*args, **kwargs)
            self.sessions.append(session)
            return session

        mapping[id(make_session)] = (
            make_session, functools.update_wrapper(capture, make_session))
        self._installed = mapping
        self._replace_all(mapping)
        return self

    def uninstall(self) -> None:
        """Put every original back, wherever a wrapper is now bound --
        including aliases made by modules imported while installed."""
        undo = {id(new): (new, old) for old, new in self._installed.values()}
        self._installed = {}
        self._replace_all(undo)

    # ------------------------------------------------------------------ #
    # results

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_s", "calls"}}`` for every layer."""
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for key, ns in self.self_ns.items():
            layer = layer_of(key.split(":", 1)[0])
            entry = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += ns / 1e9
            entry["calls"] += self.calls[key]
        return out

    def writer_totals(self) -> dict[str, float]:
        """Inclusive seconds per :data:`WRITERS` entry."""
        return {name: sum(self.incl_ns.get(k, 0) for k in keys) / 1e9
                for name, keys in WRITERS.items()}

    def chrome_events(self, pid: int, process: str) -> list[dict]:
        """Kept spans as Chrome trace events, one track (tid) per layer."""
        tracks = {layer: i + 1 for i, layer in enumerate(LAYERS)}
        events: list[dict] = [{"ph": "M", "name": "process_name", "pid": pid,
                               "tid": 0, "args": {"name": process}}]
        for layer, tid in tracks.items():
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": layer}})
        for key, t0, dur in self.kept:
            module, qualname = key.split(":", 1)
            layer = layer_of(module)
            events.append({"ph": "X", "name": qualname, "cat": layer,
                           "pid": pid, "tid": tracks.get(layer, 0),
                           "ts": t0 / 1e3, "dur": dur / 1e3})
        return events
