"""The bench trajectory harness: a library that no command runs.

``simbench/`` is the repo's benchmark (same-machine medians); this harness
gates against ``BENCH_*.json`` files written on other machines, which
ROADMAP item 2 shows is noise-bound. A fixed scenario matrix — boutique and
motion chains × all five dataplanes × 1- and 3-node clusters — is driven
through the cluster dataplane with a fixed seed, and each cell reports
three throughput numbers:

* **wall_s** — wall-clock seconds the simulation loop took (the quantity a
  perf PR moves);
* **sim_req_per_wall_s** — simulated requests completed per wall second;
* **events_per_wall_s** — simulator events processed per wall second (the
  purest DES-engine metric, independent of request size).

``run_bench`` emits a schema-checked payload; ``write_trajectory`` persists
it as ``BENCH_<pr>.json`` at the repo root, and ``compare`` gates the new
trajectory point against the newest prior ``BENCH_*.json`` within a
tolerance (default 15%). Requests/events counts are deterministic for a
seed, so a count change flags a *behavioral* change even when timing noise
hides a throughput one.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from .cluster import ClusterDataplane, ClusterScheduler, build_cluster
from .dataplane import RequestClass
from .runtime import ChainSpec
from .runtime.scheduler import NodeDescriptor
from .stats import LatencyRecorder
from .workloads import ClosedLoopGenerator, WeightedMix, boutique, motion

#: Bump when a PR re-lands the trajectory file; CI compares against the
#: newest BENCH_<n>.json with n < PR_NUMBER.
PR_NUMBER = 9
SCHEMA = "spright.bench/1"

BENCH_PLANES = ("knative", "grpc", "s-spright", "d-spright", "lambda-nic")
BENCH_WORKLOADS = ("boutique", "motion")
BENCH_NODE_COUNTS = (1, 3)

_BENCH_FILE = re.compile(r"^BENCH_(\d+)\.json$")


def bench_chain(workload: str, plane: str) -> ChainSpec:
    """The fixed chain a bench cell runs — never change these casually:
    a changed chain breaks trajectory comparability across PRs."""
    if workload == "boutique":
        functions = (
            boutique.spright_functions()
            if plane in ("s-spright", "d-spright", "lambda-nic")
            else boutique.go_grpc_functions()
        )
        return ChainSpec("bench-boutique", functions)
    if workload == "motion":
        return ChainSpec("bench-motion", motion.motion_functions())
    raise KeyError(f"unknown bench workload {workload!r}")


def bench_capacity(nodes: int) -> float:
    """Schedulable cores per node: the 10-function boutique chain asks for
    ~6.7 cores total, so 3-node cells get 4.0 to force a real multi-node
    placement while still fitting."""
    return 8.0 if nodes == 1 else 4.0


@dataclass
class BenchCell:
    """One (workload, plane, nodes) point of the matrix."""

    scenario: str
    workload: str
    plane: str
    nodes: int
    sim_duration_s: float
    wall_s: float
    requests: int
    events: int
    sim_req_per_wall_s: float
    events_per_wall_s: float
    p50_ms: float
    p99_ms: float


def run_bench_cell(
    workload: str,
    plane: str,
    nodes: int,
    duration: float = 0.8,
    seed: int = 2022,
    concurrency: int = 12,
) -> BenchCell:
    """Build the cell's cluster, run it, time the simulation loop."""
    chain = bench_chain(workload, plane)
    fabric = build_cluster(nodes, seed=seed, cores=8)
    scheduler = ClusterScheduler(
        [
            NodeDescriptor(name=name, cores=bench_capacity(nodes))
            for name in fabric.nodes
        ]
    )
    placement = scheduler.place(chain, "chain_locality")
    dataplane = ClusterDataplane(fabric, chain, plane, placement)
    recorder = LatencyRecorder()
    generator = ClosedLoopGenerator(
        dataplane.ingress_node,
        dataplane,
        WeightedMix([RequestClass("seq", sequence=chain.function_names)]),
        recorder,
        concurrency=concurrency,
        duration=duration,
        client_overhead=0.0007,
    )
    generator.start()
    started = time.perf_counter()
    fabric.env.run(until=duration)
    fabric.env.run(until=duration + 0.25)  # drain in-flight requests
    wall = time.perf_counter() - started
    dataplane.teardown()
    requests = recorder.count("")
    events = fabric.env.events_processed
    summary = recorder.summary("") if requests else None
    return BenchCell(
        scenario=f"{workload}/{plane}/n{nodes}",
        workload=workload,
        plane=plane,
        nodes=nodes,
        sim_duration_s=duration,
        wall_s=wall,
        requests=requests,
        events=events,
        sim_req_per_wall_s=requests / wall if wall > 0 else 0.0,
        events_per_wall_s=events / wall if wall > 0 else 0.0,
        p50_ms=(summary.p50 * 1e3) if summary else 0.0,
        p99_ms=(summary.p99 * 1e3) if summary else 0.0,
    )


def run_bench(
    duration: float = 0.8,
    seed: int = 2022,
    concurrency: int = 12,
    workloads: Sequence[str] = BENCH_WORKLOADS,
    planes: Sequence[str] = BENCH_PLANES,
    node_counts: Sequence[int] = BENCH_NODE_COUNTS,
    pr: int = PR_NUMBER,
) -> dict:
    """The full matrix as a schema-valid trajectory payload."""
    cells = [
        run_bench_cell(
            workload, plane, nodes,
            duration=duration, seed=seed, concurrency=concurrency,
        )
        for workload in workloads
        for plane in planes
        for nodes in node_counts
    ]
    wall = sum(cell.wall_s for cell in cells)
    requests = sum(cell.requests for cell in cells)
    events = sum(cell.events for cell in cells)
    payload = {
        "schema": SCHEMA,
        "pr": pr,
        "config": {
            "duration_s": duration,
            "seed": seed,
            "concurrency": concurrency,
            "placement": "chain_locality",
        },
        "cells": [asdict(cell) for cell in cells],
        "totals": {
            "wall_s": wall,
            "requests": requests,
            "events": events,
            "sim_req_per_wall_s": requests / wall if wall > 0 else 0.0,
            "events_per_wall_s": events / wall if wall > 0 else 0.0,
        },
    }
    errors = validate_payload(payload)
    if errors:  # pragma: no cover - a bug in this module, not a data path
        raise AssertionError(f"bench payload failed validation: {errors[:5]}")
    return payload


# -- schema -------------------------------------------------------------------

_CELL_NUMBERS = (
    "sim_duration_s",
    "wall_s",
    "sim_req_per_wall_s",
    "events_per_wall_s",
    "p50_ms",
    "p99_ms",
)
_CELL_COUNTS = ("requests", "events", "nodes")
_CELL_STRINGS = ("scenario", "workload", "plane")
_TOTAL_KEYS = (
    "wall_s",
    "requests",
    "events",
    "sim_req_per_wall_s",
    "events_per_wall_s",
)


def validate_payload(payload: dict) -> list[str]:
    """Structural validation of a trajectory payload; [] when valid.

    Mirrors ``tests/schemas/bench.schema.json`` (the copy external tools
    consume) — a unit test asserts the two stay in agreement.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["payload must be an object"]
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}")
    if not isinstance(payload.get("pr"), int) or payload.get("pr", 0) < 1:
        errors.append("pr must be a positive integer")
    cells = payload.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("cells must be a non-empty array")
        cells = []
    seen = set()
    for index, cell in enumerate(cells):
        where = f"cells[{index}]"
        if not isinstance(cell, dict):
            errors.append(f"{where}: must be an object")
            continue
        for key in _CELL_STRINGS:
            if not isinstance(cell.get(key), str) or not cell.get(key):
                errors.append(f"{where}.{key}: must be a non-empty string")
        for key in _CELL_COUNTS:
            value = cell.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                errors.append(f"{where}.{key}: must be a non-negative integer")
        for key in _CELL_NUMBERS:
            value = cell.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{where}.{key}: must be a number")
            elif value < 0:
                errors.append(f"{where}.{key}: must be >= 0")
        scenario = cell.get("scenario")
        if scenario in seen:
            errors.append(f"{where}.scenario: duplicate {scenario!r}")
        seen.add(scenario)
    totals = payload.get("totals")
    if not isinstance(totals, dict):
        errors.append("totals must be an object")
    else:
        for key in _TOTAL_KEYS:
            value = totals.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"totals.{key}: must be a number")
    return errors


# -- trajectory files ---------------------------------------------------------

def trajectory_path(directory, pr: int = PR_NUMBER) -> Path:
    return Path(directory) / f"BENCH_{pr}.json"


def write_trajectory(payload: dict, directory) -> Path:
    path = trajectory_path(directory, payload["pr"])
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def find_previous(directory, pr: int = PR_NUMBER) -> Optional[Path]:
    """The newest ``BENCH_<n>.json`` with ``n < pr``, or None."""
    best: Optional[tuple[int, Path]] = None
    for path in Path(directory).glob("BENCH_*.json"):
        match = _BENCH_FILE.match(path.name)
        if not match:
            continue
        number = int(match.group(1))
        if number < pr and (best is None or number > best[0]):
            best = (number, path)
    return best[1] if best else None


# -- the tolerance gate -------------------------------------------------------

@dataclass
class Comparison:
    """Current vs previous trajectory point."""

    previous_pr: int
    tolerance: float
    throughput_ratio: float       # current / previous events_per_wall_s
    request_ratio: float          # current / previous sim_req_per_wall_s
    regressed: bool
    cell_notes: list[str]
    behavior_changes: list[str]   # deterministic count drifts (informative)


def compare(current: dict, previous: dict, tolerance: float = 0.15) -> Comparison:
    """Gate ``current`` against ``previous``: fail on a >tolerance drop in
    aggregate engine throughput (events/wall-s) or request throughput.

    The gate is aggregate — per-cell wall timings at sub-second durations
    are too noisy to gate on individually — but every matched cell that
    individually drops past tolerance is named in ``cell_notes``, and any
    change in a cell's deterministic request/event *counts* is surfaced as
    a behavior change.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    floor = 1.0 - tolerance
    current_totals = current["totals"]
    previous_totals = previous["totals"]

    def ratio(key: str) -> float:
        denominator = previous_totals.get(key) or 0.0
        if denominator <= 0:
            return 1.0
        return (current_totals.get(key) or 0.0) / denominator

    throughput_ratio = ratio("events_per_wall_s")
    request_ratio = ratio("sim_req_per_wall_s")

    previous_cells = {cell["scenario"]: cell for cell in previous["cells"]}
    cell_notes: list[str] = []
    behavior_changes: list[str] = []
    for cell in current["cells"]:
        other = previous_cells.get(cell["scenario"])
        if other is None:
            cell_notes.append(f"{cell['scenario']}: new scenario (no baseline)")
            continue
        if other.get("events_per_wall_s", 0) > 0:
            cell_ratio = cell["events_per_wall_s"] / other["events_per_wall_s"]
            if cell_ratio < floor:
                cell_notes.append(
                    f"{cell['scenario']}: events/s {cell_ratio:.2f}x of baseline"
                )
        for key in ("requests", "events"):
            if cell.get(key) != other.get(key):
                behavior_changes.append(
                    f"{cell['scenario']}: {key} {other.get(key)} -> {cell.get(key)}"
                )
    return Comparison(
        previous_pr=previous["pr"],
        tolerance=tolerance,
        throughput_ratio=throughput_ratio,
        request_ratio=request_ratio,
        regressed=throughput_ratio < floor or request_ratio < floor,
        cell_notes=cell_notes,
        behavior_changes=behavior_changes,
    )


# -- reporting ----------------------------------------------------------------

def format_report(payload: dict, comparison: Optional[Comparison] = None) -> str:
    from .stats import format_table

    rows = [
        [
            cell["scenario"],
            f"{cell['wall_s']:.3f}",
            cell["requests"],
            f"{cell['sim_req_per_wall_s']:.0f}",
            cell["events"],
            f"{cell['events_per_wall_s']:.0f}",
            f"{cell['p50_ms']:.3f}",
            f"{cell['p99_ms']:.3f}",
        ]
        for cell in payload["cells"]
    ]
    totals = payload["totals"]
    rows.append(
        [
            "TOTAL",
            f"{totals['wall_s']:.3f}",
            totals["requests"],
            f"{totals['sim_req_per_wall_s']:.0f}",
            totals["events"],
            f"{totals['events_per_wall_s']:.0f}",
            "",
            "",
        ]
    )
    sections = [
        format_table(
            ["scenario", "wall s", "reqs", "req/s", "events", "events/s",
             "p50 ms", "p99 ms"],
            rows,
            title=f"Bench trajectory (PR {payload['pr']})",
        )
    ]
    if comparison is None:
        sections.append("baseline: none (first trajectory point)")
    else:
        lines = [
            f"baseline: BENCH_{comparison.previous_pr}.json "
            f"(tolerance {comparison.tolerance:.0%})",
            f"events/wall-s ratio: {comparison.throughput_ratio:.2f}x",
            f"sim-req/wall-s ratio: {comparison.request_ratio:.2f}x",
        ]
        lines.extend(f"  note: {note}" for note in comparison.cell_notes)
        lines.extend(
            f"  behavior: {change}" for change in comparison.behavior_changes
        )
        lines.append(
            "verdict: bench regression gate "
            + ("FAILED" if comparison.regressed else "passed")
        )
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
