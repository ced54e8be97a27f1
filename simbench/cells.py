"""The benchmark's workloads, run through the public experiment entry points.

A workload is a list of cells, one per dataplane. A cell calls one entry
point of ``repro.experiments`` on a fresh node (or fabric), times it, and
checks what it produced:

* request conservation at the horizon: every request the load generator
  issued is completed, failed, shed or still in flight;
* the plane completed requests, and the latency recorder holds exactly the
  requests the plane completed;
* after a drain, no request is in flight and no shared-memory slot is held.

See ``README.md`` in this directory for why each workload exists.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.cluster import ClusterDataplane
from repro.dataplane.base import Dataplane
from repro.experiments import boutique_exp, cluster_exp, common, motion_exp
from repro.faults import default_resilience_for_plane, load_plan
from repro.recovery import SupervisorPolicy
from repro.runtime.pod import PodPhase
from repro.simcore import Environment, RandomStreams
from repro.workloads import boutique
from repro.workloads.motion import MotionTraceParams, synthesize_motion_trace

BOUTIQUE_SCALE = 0.1
BOUTIQUE_HORIZON_S = 10.0
MOTION_HORIZON_S = 2 * 3600.0
CLUSTER_HORIZON_S = 0.2
#: motion-fig11's trace must have this many arrivals (± 3%) and idle gaps
#: over 60 s (± 1), each gap a scale-from-zero on knative and grpc.
MOTION_ARRIVALS = 650
MOTION_GAPS = 18
#: simulated seconds run after the horizon before the leak checks
DRAIN_S = {"boutique-fig910": 5.0, "boutique-faults": 15.0, "motion-fig11": 120.0}

WORKLOADS = {
    "boutique-fig910": ("knative", "grpc", "s-spright", "d-spright"),
    "motion-fig11": ("knative", "grpc", "s-spright", "d-spright"),
    "cluster-3node": ("grpc", "s-spright", "lambda-nic"),
    "boutique-faults": ("grpc", "s-spright"),
}
ALL_PLANES = ("knative", "grpc", "s-spright", "d-spright", "lambda-nic")
LIVE_PHASES = (PodPhase.PENDING, PodPhase.STARTING, PodPhase.RUNNING)


class Hooks:
    """Harness hooks on the public API, installed once per process.

    ``Environment.run`` marks the first simulated event of a cell, which
    splits set-up from simulation; ``submit`` on both dataplane bases counts
    requests entering and leaving a plane, which gives the in-flight count.
    Each costs one call per cell or per request.
    """

    def __init__(self) -> None:
        self.first_run = None
        self.entered = 0
        self.returned = 0
        hooks = self
        run = Environment.run

        @functools.wraps(run)
        def marked_run(env, until=None):
            if hooks.first_run is None:
                hooks.first_run = time.perf_counter()
            return run(env, until)

        Environment.run = marked_run
        for cls in (Dataplane, ClusterDataplane):
            cls.submit = self._counted(cls.submit)

    def _counted(self, submit):
        hooks = self

        @functools.wraps(submit)
        def counted_submit(plane, request):
            hooks.entered += 1
            result = yield from submit(plane, request)
            hooks.returned += 1
            return result

        return counted_submit

    def reset(self) -> None:
        self.first_run = None
        self.entered = 0
        self.returned = 0


@dataclass
class Cell:
    """One plane's run: host times, simulated digest, layer state, checks."""

    plane: str
    setup_s: float
    wall_s: float
    digest: dict
    state: dict
    failures: list = field(default_factory=list)


@dataclass
class _Run:
    """What a cell needs from an entry point's result."""

    env: object
    plane: object
    generator: object
    recorder: object
    duration: float
    nodes: list
    supervisor: object = None

    @property
    def issued(self) -> int:
        gen = self.generator
        return gen.requests_sent if hasattr(gen, "requests_sent") else gen.submitted

    @property
    def failed(self) -> int:
        gen = self.generator
        return gen.requests_failed if hasattr(gen, "requests_failed") else gen.failed

    def cpu_percent(self) -> float:
        if isinstance(self.plane, ClusterDataplane):
            return self.plane.host_cpu_percent(self.duration)
        return self.nodes[0].cpu_percent_prefix(f"{self.plane.plane}/", self.duration)

    def leaked_slots(self) -> int:
        if isinstance(self.plane, ClusterDataplane):
            return self.plane.leaked_slots()
        pool = getattr(getattr(self.plane, "runtime", None), "pool", None)
        return pool.in_use_count if pool is not None else 0

    def reclaimed_slots(self) -> int:
        pool = getattr(getattr(self.plane, "runtime", None), "pool", None)
        return pool.stats.reclaims if pool is not None else 0


def _boutique_args(plane: str) -> dict:
    """``run_boutique``'s closed-loop configuration, for the faults cells."""
    scale = BOUTIQUE_SCALE
    return dict(
        functions=(
            boutique.spright_functions()
            if plane in ("s-spright", "d-spright")
            else boutique.go_grpc_functions()
        ),
        request_classes=boutique.request_classes(),
        concurrency=max(8, int(boutique_exp.USERS[plane] * scale)),
        duration=BOUTIQUE_HORIZON_S,
        scale=scale,
        spawn_rate=max(4.0, boutique_exp.SPAWN_RATES[plane] * scale),
        think_time=boutique.locust_think_time,
        client_overhead=0.0005,
    )


def _from_scenario(result) -> _Run:
    return _Run(
        env=result.node.env,
        plane=result.plane_obj,
        generator=result.extras["generator"],
        recorder=result.recorder,
        duration=result.duration,
        nodes=[result.node],
        supervisor=result.extras.get("supervisor"),
    )


def _boutique_fig910(plane: str, seed: int) -> _Run:
    run = boutique_exp.run_boutique(
        plane, scale=BOUTIQUE_SCALE, duration=BOUTIQUE_HORIZON_S, seed=seed
    )
    return _from_scenario(run.result)


def _boutique_faults(plane: str, seed: int) -> _Run:
    result = common.run_closed_loop(
        plane,
        seed=seed,
        fault_plan=load_plan("loss-crash"),
        resilience=default_resilience_for_plane(plane),
        recovery=SupervisorPolicy(),
        **_boutique_args(plane),
    )
    return _from_scenario(result)


@functools.lru_cache(maxsize=None)
def motion_seed(seed: int) -> int:
    """The simulation seed motion-fig11 uses for ``seed``.

    The trace's size varies a lot between seeds: its arrivals and its idle
    gaps, which cost a cold start each. This takes the first of
    ``seed * 10000 + k`` whose trace has MOTION_ARRIVALS arrivals and
    MOTION_GAPS gaps, so every seed asks the same work of the simulator
    while the trace keeps the paper's shape. ``run_motion`` draws the trace
    from the node's RNG streams, which this seed reproduces.
    """
    params = MotionTraceParams(duration=MOTION_HORIZON_S)
    for k in range(100_000):
        candidate = seed * 10000 + k
        trace = synthesize_motion_trace(SimpleNamespace(rng=RandomStreams(candidate)), params)
        gaps = sum(1 for a, b in zip(trace, trace[1:]) if b.time - a.time > 60.0)
        if abs(len(trace) - MOTION_ARRIVALS) <= 0.03 * MOTION_ARRIVALS and abs(gaps - MOTION_GAPS) <= 1:
            return candidate
    raise ValueError(f"no motion trace of the wanted size derives from seed {seed}")


def _motion_fig11(plane: str, seed: int) -> _Run:
    run = motion_exp.run_motion(plane, duration=MOTION_HORIZON_S, seed=seed)
    return _Run(
        env=run.node.env,
        plane=run.plane_obj,
        generator=run.generator,
        recorder=run.recorder,
        duration=run.duration,
        nodes=[run.node],
        supervisor=run.supervisor,
    )


def _cluster_3node(plane: str, seed: int) -> _Run:
    run = cluster_exp.run_cluster_case(
        plane, "chain_locality", 3, duration=CLUSTER_HORIZON_S, seed=seed
    )
    fabric = run.dataplane.fabric
    return _Run(
        env=fabric.env,
        plane=run.dataplane,
        generator=run.extras["generator"],
        recorder=run.recorder,
        duration=run.duration,
        nodes=list(fabric.nodes.values()),
    )


ENTRY_POINTS = {
    "boutique-fig910": _boutique_fig910,
    "motion-fig11": _motion_fig11,
    "cluster-3node": _cluster_3node,
    "boutique-faults": _boutique_faults,
}


def run_cell(workload: str, plane: str, seed: int, hooks: Hooks, window=None) -> Cell:
    """Run one plane of ``workload``; ``window`` brackets the timed call."""
    entry = ENTRY_POINTS[workload]
    hooks.reset()
    if window is not None:
        window.open()
    start = time.perf_counter()
    run = entry(plane, seed)
    end = time.perf_counter()
    if window is not None:
        window.close()
    first = hooks.first_run if hooks.first_run is not None else end

    completed = run.plane.requests_completed
    issued, failed = run.issued, run.failed
    shed = sum(node.counters.get(f"{run.plane.plane}/shed") for node in run.nodes)
    in_flight = hooks.entered - hooks.returned
    recorded = run.recorder.count("")
    summary = run.recorder.summary("") if recorded else None
    digest = {
        "plane": plane,
        "issued": issued,
        "completed": completed,
        "failed": failed,
        "shed": shed,
        "in_flight": in_flight,
        "events": run.env.events_processed,
        "p50_ms": summary.p50 * 1e3 if summary else None,
        "p99_ms": summary.p99 * 1e3 if summary else None,
        "cpu_pct": run.cpu_percent(),
    }
    failures = []
    if completed == 0 or recorded == 0:
        failures.append("no completed requests")
    if recorded != completed:
        failures.append(f"recorder holds {recorded} requests, plane completed {completed}")
    if hooks.entered != issued:
        failures.append(f"{issued} issued but {hooks.entered} entered the plane")
    # The generator counts a shed request as failed: failed = errors + shed.
    if issued != completed + failed + in_flight:
        failures.append(
            f"conservation: issued {issued} != completed {completed} + failed "
            f"{failed - shed} + shed {shed} + in-flight {in_flight}"
        )

    drain = DRAIN_S.get(workload)
    if drain is not None:
        run.env.run(until=run.duration + drain)
    if hooks.entered != hooks.returned:
        failures.append(f"{hooks.entered - hooks.returned} requests in flight after drain")
    leaked = run.leaked_slots()
    if leaked:
        failures.append(f"{leaked} shared-memory slots leaked after drain")

    plane_obj = run.plane
    deployments = list(plane_obj.deployments.values())
    state = {
        "completed": completed,
        "issued": issued,
        "failed": failed,
        "events": digest["events"],
        "cold_starts": sum(d.cold_starts for d in deployments),
        "pods_retained": sum(
            1 for d in deployments for pod in d.pods if pod.phase not in LIVE_PHASES
        ),
        "leaked_slots": leaked,
        "reclaimed_slots": run.reclaimed_slots(),
        "restarts": run.supervisor.restarts if run.supervisor is not None else 0,
        "xnode_legs": getattr(plane_obj, "xnode_hops", 0),
        "offloaded": getattr(plane_obj, "offloaded", 0),
        "host_serves": getattr(plane_obj, "host_serves", 0),
    }
    return Cell(plane, first - start, end - first, digest, state, failures)


def run_workload(workload: str, seed: int, hooks: Hooks, window=None) -> list:
    """Every plane of ``workload``, each on a fresh node, in a fixed order."""
    if workload == "motion-fig11":
        seed = motion_seed(seed)
    cells = []
    for plane in WORKLOADS[workload]:
        # Free the previous plane's node (and its shared-memory pools) first,
        # so no cell is timed or measured with another's garbage around.
        gc.collect()
        cells.append(run_cell(workload, plane, seed, hooks, window))
    return cells


def digest_of(cells: list) -> str:
    """Short hash of every simulated statistic of a workload run."""
    blob = json.dumps([cell.digest for cell in cells], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
