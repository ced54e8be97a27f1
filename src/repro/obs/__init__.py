"""Unified observability: span tracing, metrics registry, CPU profiling.

Every :class:`~repro.runtime.WorkerNode` owns an :class:`Observability`
bundle. The metrics registry is always on (it backs ``node.counters``);
the tracer and profiler are opt-in — enabled per node, or process-wide via
:func:`set_default_observe` (what the CLI's ``--trace``/``--profile`` flags
and the ``spright-repro trace`` command set) or the ``SPRIGHT_REPRO_TRACE``
/ ``SPRIGHT_REPRO_PROFILE`` environment variables.

Disabled observability is free *and exact*: no RNG draws, no simulation
events, no extra CPU charges — default runs are byte-identical to a build
without this package. Even with tracing/profiling on, the simulation's
event sequence is untouched; only passive records accumulate, so a traced
run's tables equal an untraced run's byte for byte.
"""

from __future__ import annotations

import contextlib
import os
from typing import TYPE_CHECKING, Optional

from . import export, live, slo
from .metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    LegacyCounters,
    MetricsRegistry,
    log_bucket_bounds,
    sanitize_metric_name,
)
from .profiler import CpuProfiler
from .span import Span, Tracer, coverage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore import CpuAccounting, Environment


def _env_flag(raw: Optional[str]) -> bool:
    return raw is not None and raw.strip().lower() not in ("", "0", "false", "no", "off")


_default_trace = _env_flag(os.environ.get("SPRIGHT_REPRO_TRACE"))
_default_profile = _env_flag(os.environ.get("SPRIGHT_REPRO_PROFILE"))

#: Process-wide LiveSink every new Observability bundle auto-attaches to —
#: how the CLI's --serve flag sees the nodes an experiment creates without
#: the experiment knowing a dashboard exists.
_default_live_sink: Optional["live.LiveSink"] = None


def set_default_live_sink(sink: Optional["live.LiveSink"]) -> None:
    """Install (or clear, with ``None``) the process-wide live sink."""
    global _default_live_sink
    _default_live_sink = sink


def default_live_sink() -> Optional["live.LiveSink"]:
    return _default_live_sink

#: Open ``capture_sessions`` lists; each collects the bundles that enable
#: tracing or profiling while it is open.
_CAPTURES: list[list] = []


def set_default_observe(
    trace: Optional[bool] = None, profile: Optional[bool] = None
) -> None:
    """Set the process-wide tracing/profiling defaults (None = leave as is)."""
    global _default_trace, _default_profile
    if trace is not None:
        _default_trace = bool(trace)
    if profile is not None:
        _default_profile = bool(profile)


def default_observe() -> tuple[bool, bool]:
    """The process-wide (trace, profile) defaults new nodes pick up."""
    return (_default_trace, _default_profile)


@contextlib.contextmanager
def capture_sessions():
    """Collect, and keep alive, every bundle that enables tracing or
    profiling inside the block: what ``--out`` exports after a run."""
    captured: list = []
    _CAPTURES.append(captured)
    try:
        yield captured
    finally:
        _CAPTURES.remove(captured)


class Observability:
    """One node's observability bundle: registry + optional tracer/profiler."""

    def __init__(self, env: "Environment", label: Optional[str] = None) -> None:
        self.env = env
        self.label = label
        self.registry = MetricsRegistry()
        self.counters = LegacyCounters(self.registry)
        self.tracer: Optional[Tracer] = None
        self.profiler: Optional[CpuProfiler] = None
        #: Basename its ``--out`` artifacts take; None means ``<run>-node<i>``.
        self.export_name: Optional[str] = None
        self._kernel_counters: dict = {}
        self._registered = False
        if _default_live_sink is not None:
            _default_live_sink.attach(self)

    # -- enabling ------------------------------------------------------------
    def enable_tracing(self) -> Tracer:
        if self.tracer is None:
            self.tracer = Tracer(self.env)
            self._register()
        return self.tracer

    def enable_profiling(self, accounting: "CpuAccounting") -> CpuProfiler:
        if self.profiler is None:
            self.profiler = CpuProfiler()
            accounting.profiler = self.profiler
            self._register()
        return self.profiler

    def _register(self) -> None:
        if not self._registered:
            self._registered = True
            for captured in _CAPTURES:
                captured.append(self)

    @property
    def detailed(self) -> bool:
        """True when per-operation detail (tracer or profiler) is on."""
        return self.tracer is not None or self.profiler is not None

    # -- kernel-op accounting (Tables 1/2 reconciliation) ---------------------
    def count_kernel_op(self, tag: str, kind, amount: int = 1) -> None:
        """Mirror an audited kernel op into ``ops/<plane>/<kind>`` counters.

        Called by :class:`repro.kernel.KernelOps` under exactly the same
        condition as the audit-trace count, so each registry counter equals
        the sum of that kind over every :class:`RequestTrace` — the basis of
        the OpenMetrics <-> Table 1/2 reconciliation.
        """
        plane = tag.split("/", 1)[0]
        key = (plane, kind)
        metric = self._kernel_counters.get(key)
        if metric is None:
            metric = self.registry.counter(f"ops/{plane}/{kind.name.lower()}")
            self._kernel_counters[key] = metric
        metric.incr(amount)


__all__ = [
    "CounterMetric",
    "CpuProfiler",
    "GaugeMetric",
    "HistogramMetric",
    "LegacyCounters",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
    "capture_sessions",
    "coverage",
    "default_live_sink",
    "default_observe",
    "export",
    "live",
    "log_bucket_bounds",
    "sanitize_metric_name",
    "set_default_live_sink",
    "set_default_observe",
    "slo",
]
