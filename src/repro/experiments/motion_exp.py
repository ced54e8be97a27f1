"""E8 (Fig 11): IoT motion detection — cold start vs always-warm.

Knative runs with scale-to-zero enabled (30 s grace period) on cold-start
pods, so bursts arriving after an idle gap pay seconds of startup latency
that cascades down the 2-function chain. S-SPRIGHT keeps one pod per
function warm — affordable because its event-driven pods consume no CPU
when idle — and shows flat response times throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime import Autoscaler, AutoscalerPolicy, Kubelet, MetricsServer
from ..stats import LatencyRecorder, format_table
from ..workloads import OpenLoopGenerator
from ..workloads.motion import (
    MotionTraceParams,
    motion_functions,
    synthesize_motion_trace,
)
from .common import attach_recovery, build_plane, make_node


@dataclass
class MotionRun:
    plane: str
    duration: float
    recorder: LatencyRecorder
    node: object
    plane_obj: object
    cold_starts: int
    generator: object = None  # the OpenLoopGenerator (submitted/failed counts)
    supervisor: object = None  # the PodSupervisor, when recovery is attached

    def latency_ms(self, which: str = "mean") -> float:
        summary = self.recorder.summary("")
        return getattr(summary, which) * 1e3

    def max_latency_s(self) -> float:
        return self.recorder.summary("").maximum

    def fn_cpu_percent(self) -> float:
        return self.node.cpu_percent_prefix(f"{self.plane_obj.plane}/fn", self.duration)

    def qp_cpu_percent(self) -> float:
        return self.node.cpu_percent_prefix(f"{self.plane_obj.plane}/qp", self.duration)

    def latency_series(self, bucket: float = 30.0):
        return self.recorder.latency_series(bucket=bucket)


def run_motion(
    plane: str,
    duration: float = 3600.0,
    seed: int = 2022,
    grace_period: float = 30.0,
    trace_params: Optional[MotionTraceParams] = None,
    fault_plan=None,
    resilience=None,
    admission=None,
    recovery=None,
    sanitize=None,
) -> MotionRun:
    """One plane over the same synthetic MERL-like trace.

    ``fault_plan``/``resilience`` (see :mod:`repro.faults`) rerun the trace
    under injected failures with gateway-side retries; ``admission``/
    ``recovery`` (see :mod:`repro.recovery`) bound the front door and attach
    the pod supervisor. All default inert.
    """
    params = trace_params or MotionTraceParams(duration=duration)
    node = make_node(seed=seed)
    zero_scale = plane in ("knative", "grpc")
    functions = motion_functions(min_scale=0 if zero_scale else 1)
    kubelet = Kubelet(
        node,
        cold_start_enabled=zero_scale,
        termination_lag=30.0 if zero_scale else 0.0,
    )
    metrics = MetricsServer(registry=node.obs.registry)
    spright_params = None
    if sanitize is not None:
        from ..dataplane import SprightParams

        spright_params = SprightParams(sanitize=sanitize)
    plane_obj = build_plane(
        plane,
        node,
        functions,
        kubelet=kubelet,
        metrics_server=metrics,
        spright_params=spright_params,
    )
    if fault_plan is not None:
        node.faults.arm(fault_plan)
    if resilience is not None:
        plane_obj.use_resilience(resilience)
    if admission is not None:
        plane_obj.use_admission(admission)
    supervisor = None
    if recovery is not None:
        supervisor = attach_recovery(node, plane_obj, recovery)
    if zero_scale:
        autoscaler = Autoscaler(node, metrics)
        for deployment in plane_obj.deployments.values():
            autoscaler.register(
                deployment,
                AutoscalerPolicy(scale_to_zero=True, grace_period=grace_period),
            )
        autoscaler.start()
    recorder = LatencyRecorder()
    trace = synthesize_motion_trace(node, params)
    generator = OpenLoopGenerator(node, plane_obj, trace, recorder)
    generator.start()
    node.run(until=duration)
    return MotionRun(
        plane=plane,
        duration=duration,
        recorder=recorder,
        node=node,
        plane_obj=plane_obj,
        cold_starts=node.counters.get(f"{plane_obj.plane}/cold_starts"),
        generator=generator,
        supervisor=supervisor,
    )


def run_fig11(duration: float = 3600.0, seed: int = 2022):
    return {
        "knative": run_motion("knative", duration=duration, seed=seed),
        "s-spright": run_motion("s-spright", duration=duration, seed=seed),
    }


def format_report(runs: dict) -> str:
    rows = []
    for plane, run in runs.items():
        summary = run.recorder.summary("")
        rows.append(
            [
                plane,
                summary.count,
                summary.mean * 1e3,
                summary.p99 * 1e3,
                run.max_latency_s(),
                run.cold_starts,
                round(run.fn_cpu_percent() + run.qp_cpu_percent(), 1),
            ]
        )
    return format_table(
        ["plane", "events", "mean (ms)", "p99 (ms)", "max (s)", "cold starts", "CPU %"],
        rows,
        title="Fig 11: motion detection — cold start vs warm event-driven pods",
    )


def run_config(config: dict) -> str:
    """Scenario entry point for ``spright-repro motion``."""
    runs = run_fig11(duration=config["duration"], seed=config["seed"])
    return format_report(runs)
