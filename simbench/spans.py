"""Layer spans and counters, installed from outside the program.

``Tracer.install()`` replaces every public function and method of the
traced ``repro`` packages with a span wrapper, and a few of them with
counting wrappers; ``uninstall()`` puts the originals back. Nothing under
``src/`` is edited: the wrappers sit on the module and class attributes
that callers look up at call time.

A span opens when control crosses into a layer (a call from the same layer
opens none) and is kept as an aggregate, not a record: on close its
duration minus its children's durations is added to the layer's self time.
Generators returned by wrapped functions, and every generator handed to
``Environment.process``, are wrapped too, so each resumption of a simulated
process is a span of the layer that wrote the process. Engine work that no
span covers (the event loop, callbacks) stays with the ``Environment.run``
span, that is with ``simcore``.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from types import FunctionType, GeneratorType

#: module prefix -> layer name; the first matching prefix wins.
LAYER_PREFIXES = (
    ("repro.simcore.cpu", "simcore.cpu"),
    ("repro.simcore.rng", "simcore.rng"),
    ("repro.simcore", "simcore"),
    ("repro.kernel.ebpf", "kernel.ebpf"),
    ("repro.kernel", "kernel.ops"),
    ("repro.mem", "mem"),
    ("repro.protocols", "protocols"),
    ("repro.dataplane", "dataplane"),
    ("repro.workloads", "workloads"),
    ("repro.runtime", "runtime"),
    ("repro.cluster", "cluster"),
    ("repro.faults", "faults"),
    ("repro.recovery", "recovery"),
    ("repro.stats", "stats"),
)
LAYERS = tuple(layer for _, layer in LAYER_PREFIXES)
PACKAGES = ("repro.simcore", "repro.kernel", "repro.mem", "repro.protocols",
            "repro.dataplane", "repro.workloads", "repro.runtime",
            "repro.cluster", "repro.faults", "repro.recovery", "repro.stats")


def layer_of(module_name: str):
    for prefix, layer in LAYER_PREFIXES:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


def _is_bytes(value) -> bool:
    return isinstance(value, (bytes, bytearray, memoryview))


class Tracer:
    """Per-layer self time and entry counts, plus named counters."""

    def __init__(self) -> None:
        self.self_time: dict = defaultdict(float)
        self.entries: Counter = Counter()
        self.counts: Counter = Counter()
        self.stack: list = [["", 0.0, 0.0]]
        self._restore: list = []

    # -- spans -----------------------------------------------------------------
    def span(self, fn, layer: str):
        """``fn`` timed as a span of ``layer``; generator results are wrapped."""
        stack, self_time, entries = self.stack, self.self_time, self.entries
        clock = time.perf_counter
        tracer = self
        count_bytes = layer == "protocols"
        counts = self.counts

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack[-1][0] is layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, clock(), 0.0]
                stack.append(frame)
                entries[layer] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    elapsed = clock() - frame[1]
                    self_time[layer] += elapsed - frame[2]
                    stack[-1][2] += elapsed
                if count_bytes:
                    counts["protocols.bytes"] += sum(
                        len(arg) for arg in args if _is_bytes(arg)
                    ) + (len(result) if _is_bytes(result) else 0)
            if type(result) is GeneratorType:
                return SpanGenerator(result, layer, tracer)
            return result

        return spanned

    # -- installation ------------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the traced packages; call before building any simulation."""
        modules = _import_all()
        self._install_counters()
        replaced: dict = {}
        for module in modules:
            layer = layer_of(module.__name__)
            if layer is None:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    replaced[id(obj)] = (obj, self.span(obj, layer))
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        # Rebind every module-level reference, including ``from x import f``
        # copies held by other modules.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, name, hit[1])
        self._install_process_hook()

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, FunctionType):
                self._set(cls, name, self.span(attr, layer))
            elif isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self.span(attr.__func__, layer)))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self.span(attr.__func__, layer)))

    def _install_process_hook(self) -> None:
        """Attribute each simulated process to the layer whose code it runs."""
        from repro.simcore import Environment

        original = Environment.__dict__["process"]
        tracer = self

        @functools.wraps(original)
        def process(env, generator, name=""):
            if type(generator) is GeneratorType:
                frame = generator.gi_frame
                layer = layer_of(frame.f_globals.get("__name__", "")) if frame else None
                if layer is not None:
                    generator = SpanGenerator(generator, layer, tracer)
            return original(env, generator, name)

        self._set(Environment, "process", process)

    def _count(self, owner, name: str, on_call) -> None:
        """Wrap ``owner.name`` so ``on_call(args, result)`` runs after each call."""
        original = owner.__dict__[name]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            on_call(args, result)
            return result

        self._set(owner, name, counted)

    def _install_counters(self) -> None:
        from repro.dataplane.base import Dataplane
        from repro.kernel.ebpf.vm import Vm
        from repro.mem.pool import PoolRegistry, SharedMemoryPool
        from repro.runtime.kubelet import Deployment
        from repro.simcore import CpuSet, RandomStreams

        counts = self.counts

        def bump(key):
            def on_call(args, result):
                counts[key] += 1
            return on_call

        def scan(args, result):
            counts["runtime.pods_scanned"] += len(args[0].pods)

        def vm_run(args, result):
            counts["kernel.ebpf.runs"] += 1
            counts["kernel.ebpf.insns"] += result.insns_executed

        def pool_created(args, result):
            counts["mem.pool_bytes"] += result.total_bytes

        self._count(CpuSet, "execute", bump("simcore.cpu.charges"))
        for name in ("exponential", "uniform", "lognormal_service", "choice", "spread"):
            self._count(RandomStreams, name, bump("simcore.rng.draws"))
        for name in ("pick_round_robin", "pick_residual_capacity"):
            self._count(Deployment, name, bump("runtime.picks"))
        for name in ("servable_pods", "live_pods"):
            self._count(Deployment, name, scan)
        self._count(Vm, "run", vm_run)
        self._count(SharedMemoryPool, "alloc", bump("mem.allocs"))
        self._count(PoolRegistry, "create", pool_created)
        self._count(Dataplane, "deliver_once", bump("faults.attempts"))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


class SpanGenerator:
    """A generator stand-in whose every resumption is a span of ``layer``."""

    __slots__ = ("_gen", "_layer", "_tracer", "__name__")

    def __init__(self, gen, layer: str, tracer: Tracer) -> None:
        self._gen = gen
        self._layer = layer
        self._tracer = tracer
        self.__name__ = gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._gen.send, None)

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, *exc):
        return self._step(self._gen.throw, *exc)

    def close(self):
        self._gen.close()

    def _step(self, resume, *args):
        tracer = self._tracer
        stack = tracer.stack
        layer = self._layer
        if stack[-1][0] is layer:
            return resume(*args)
        frame = [layer, time.perf_counter(), 0.0]
        stack.append(frame)
        tracer.entries[layer] += 1
        try:
            return resume(*args)
        finally:
            stack.pop()
            elapsed = time.perf_counter() - frame[1]
            tracer.self_time[layer] += elapsed - frame[2]
            stack[-1][2] += elapsed


def _import_all() -> list:
    """Import every module of the traced packages (so all can be wrapped)."""
    modules = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        modules.append(package)
        for info in pkgutil.walk_packages(package.__path__, package_name + "."):
            modules.append(importlib.import_module(info.name))
    return modules
