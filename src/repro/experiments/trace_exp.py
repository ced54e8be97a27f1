"""Traced runs: span trees, OpenMetrics, and CPU flamegraphs for one plane.

``spright-repro trace`` runs a short workload with the full observability
stack on — causal span tracing, the metrics registry mirroring every audited
kernel op, and the simulated-CPU profiler — then reports:

* span statistics and **coverage**: the fraction of each request's wall time
  tiled by its phase spans (the acceptance bar is >= 95%; by construction
  phases are contiguous, so completed requests sit at ~100%);
* the **reconciliation table**: per :class:`~repro.audit.OverheadKind`, the
  registry's ``ops/<plane>/<kind>`` counter against the sum over every
  audit :class:`~repro.audit.RequestTrace` — equal *exactly*, because both
  are incremented by the same ``KernelOps`` call under the same condition;
* the profiler's hottest stacks.

With ``--out``, the scenario runner writes the artifacts (Chrome/Perfetto
``trace_event`` JSON, OpenMetrics text, folded flamegraph stacks) as
``<plane>-<workload>.*``, the name :func:`run_traced` gives the session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..audit import OverheadKind
from ..obs import Observability, coverage, default_observe, set_default_observe
from ..stats import format_table
from ..workloads import boutique
from .boutique_exp import SPAWN_RATES, USERS, knative_boutique_params
from .common import run_closed_loop
from .motion_exp import run_motion

WORKLOADS = ("boutique", "motion")


@dataclass
class TracedRun:
    """One traced run and everything its report needs."""

    plane: str
    workload: str
    duration: float
    obs: Observability
    recorder: object
    node: object
    plane_obj: object
    auditor: Optional[object] = None
    extras: dict = field(default_factory=dict)

    # -- span-tree views -----------------------------------------------------
    def coverages(self) -> list[float]:
        """Per-request phase coverage of the root span's wall time."""
        tracer = self.obs.tracer
        if tracer is None:
            return []
        children = tracer.children_index()
        return [coverage(root, children) for root in tracer.roots()]

    def reconciliation(self) -> list[tuple[str, int, int, bool]]:
        """(kind, registry count, audit-trace sum, exact match) per kind."""
        if self.auditor is None:
            return []
        plane_key = self.plane_obj.plane
        rows = []
        for kind in OverheadKind:
            metric = self.obs.registry.find(f"ops/{plane_key}/{kind.name.lower()}")
            registry_count = int(metric.value) if metric is not None else 0
            audited = sum(
                trace.total(kind) for trace in self.auditor.traces
            )
            rows.append((kind.name.lower(), registry_count, audited, registry_count == audited))
        return rows

    def reconciled(self) -> bool:
        """True when every kind's registry counter equals the audit sum."""
        return all(match for _, _, _, match in self.reconciliation())


def run_traced(
    plane: str = "s-spright",
    workload: str = "boutique",
    scale: float = 0.05,
    duration: float = 10.0,
    seed: int = 2022,
) -> TracedRun:
    """Run one (plane, workload) with tracing + profiling forced on.

    The process-wide observe defaults are saved and restored, so a traced
    run in the middle of a larger program does not leak tracing into later
    experiments.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    saved = default_observe()
    set_default_observe(trace=True, profile=True)
    try:
        if workload == "boutique":
            users = max(8, int(USERS[plane] * scale))
            spawn_rate = max(4.0, SPAWN_RATES[plane] * scale)
            functions = (
                boutique.spright_functions()
                if plane in ("s-spright", "d-spright")
                else boutique.go_grpc_functions()
            )
            result = run_closed_loop(
                plane,
                functions,
                boutique.request_classes(),
                concurrency=users,
                duration=duration,
                scale=scale,
                seed=seed,
                spawn_rate=spawn_rate,
                think_time=boutique.locust_think_time,
                client_overhead=0.0005,
                knative_params=knative_boutique_params() if plane == "knative" else None,
                audit=True,
            )
            run = TracedRun(
                plane=plane,
                workload=workload,
                duration=duration,
                obs=result.node.obs,
                recorder=result.recorder,
                node=result.node,
                plane_obj=result.plane_obj,
                auditor=result.auditor,
                extras=result.extras,
            )
        else:
            motion = run_motion(plane, duration=duration, seed=seed)
            run = TracedRun(
                plane=plane,
                workload=workload,
                duration=duration,
                obs=motion.node.obs,
                recorder=motion.recorder,
                node=motion.node,
                plane_obj=motion.plane_obj,
                extras={"generator": motion.generator},
            )
    finally:
        set_default_observe(trace=saved[0], profile=saved[1])
    run.obs.export_name = f"{run.plane_obj.plane}-{workload}"
    _record_latency_histogram(run)
    return run


def _record_latency_histogram(run: TracedRun) -> None:
    """Post-hoc: fold the recorder's samples into a registry histogram."""
    histogram = run.obs.registry.histogram("latency/request_seconds")
    for latency in run.recorder.all_latencies():
        histogram.observe(latency)


def format_trace_report(run: TracedRun) -> str:
    """The ``spright-repro trace`` report: spans, coverage, reconciliation."""
    tracer = run.obs.tracer
    profiler = run.obs.profiler
    sections = []

    rows = [
        ["plane", run.plane],
        ["workload", run.workload],
        ["duration (s)", run.duration],
        ["requests traced", tracer.requests_started if tracer else 0],
        ["requests finished", tracer.requests_finished if tracer else 0],
        ["spans", len(tracer.finished_spans()) if tracer else 0],
    ]
    covs = run.coverages()
    if covs:
        rows.append(["coverage min", f"{min(covs):.4f}"])
        rows.append(["coverage mean", f"{sum(covs) / len(covs):.4f}"])
        rows.append(["coverage >= 0.95", str(min(covs) >= 0.95)])
    sections.append(format_table(["metric", "value"], rows, title="Traced run"))

    reconciliation = run.reconciliation()
    if reconciliation:
        sections.append(
            format_table(
                ["overhead kind", "registry ops/*", "audit traces", "exact"],
                [
                    [kind, registry_count, audited, "yes" if match else "NO"]
                    for kind, registry_count, audited, match in reconciliation
                ],
                title=f"OpenMetrics <-> audit reconciliation ({run.plane_obj.plane})",
            )
        )

    if profiler is not None and profiler.samples:
        sections.append(
            format_table(
                ["stack", "seconds"],
                [
                    [stack, f"{seconds:.6f}"]
                    for stack, seconds in profiler.top_stacks(10)
                ],
                title="Hottest simulated-CPU stacks",
            )
        )
    return "\n\n".join(sections)


def run_config(config: dict) -> str:
    """Scenario entry point for ``spright-repro trace``."""
    (plane,) = config["planes"]
    run = run_traced(
        plane=plane,
        workload=config["kind"],
        scale=config["scale"],
        duration=config["duration"],
        seed=config["seed"],
    )
    return format_trace_report(run)
