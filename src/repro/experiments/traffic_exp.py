"""Traffic lab: fleet-scale keep-alive economics across dataplanes.

The §4.2.2 / Fig 11 argument, amplified to fleet scale: Knative's
scale-to-zero trades cold starts against wasted warm CPU, while
S-SPRIGHT's event-driven pods make the "always warm" corner of that
trade-off free. This lab sweeps keep-alive policies (fixed window, KPA
grace, hybrid histogram prediction, pinned min-scale) over every
dataplane under a synthetic Azure-Functions-style fleet — Zipf function
popularity, diurnal or bursty per-function arrivals — and reports the
economics: cold starts, cold-start penalty, wasted warm pod-seconds and
CPU-seconds, goodput, tail latency, and SLO attainment.

Each (pattern, plane, policy) cell is an independent deterministic
simulation (:func:`repro.traffic.fleet.simulate_cell`); the fleet runner
shards cells over worker processes with byte-identical output to the
serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..obs import MetricsRegistry
from ..stats import format_table, pct
from ..traffic import (
    PLANE_PROFILES,
    POLICIES,
    CellResult,
    FleetParams,
    SloPolicy,
    build_specs,
    publish_results,
    run_cells,
)

ALL_PLANES = tuple(sorted(PLANE_PROFILES))
ALL_POLICIES = ("fixed", "kpa", "histogram", "pinned")
ALL_PATTERNS = ("diurnal", "bursty")


@dataclass
class TrafficLab:
    """One full sweep: results plus the registry the economics publish to."""

    results: list[CellResult]
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    processes: int = 1

    def cell(self, pattern: str, plane: str, policy: str) -> CellResult:
        for result in self.results:
            if (result.pattern, result.plane, result.policy) == (
                pattern,
                plane,
                policy,
            ):
                return result
        raise KeyError(f"no cell ({pattern}, {plane}, {policy})")


def run_traffic_lab(
    planes: Sequence[str] = ALL_PLANES,
    policies: Sequence[str] = ALL_POLICIES,
    patterns: Sequence[str] = ALL_PATTERNS,
    functions: int = 12,
    duration: float = 14400.0,
    total_rate: float = 0.8,
    seed: int = 2022,
    slo_threshold: float = 0.25,
    processes: int = 1,
    fleet: Optional[FleetParams] = None,
) -> TrafficLab:
    """Sweep planes x policies x patterns over one synthetic fleet.

    ``fleet`` overrides the (functions, duration, total_rate, seed)
    shorthand when callers need full control of the arrival model. The
    default four simulated hours x 12 functions keeps the whole 32-cell
    grid under a few seconds of wall-clock while still exercising
    thousands of idle windows per policy.
    """
    for policy in policies:
        if policy not in POLICIES:
            raise ValueError(f"unknown keep-alive policy {policy!r}")
    if fleet is None:
        fleet = FleetParams(
            functions=functions,
            duration=duration,
            total_rate=total_rate,
            seed=seed,
        )
    specs = build_specs(
        planes,
        policies,
        fleet,
        patterns=patterns,
        slo=SloPolicy(threshold_s=slo_threshold),
    )
    results = run_cells(specs, processes=processes)
    lab = TrafficLab(results=results, processes=processes)
    publish_results(results, lab.registry)
    return lab


def format_traffic_table(lab: TrafficLab) -> str:
    """The planes x policies economics table (one row per cell)."""
    rows = []
    for result in lab.results:
        rows.append(
            [
                result.pattern,
                result.plane,
                result.policy,
                result.requests,
                result.cold_starts,
                f"{result.cold_penalty_s:,.1f}",
                f"{result.wasted_warm_pod_s:,.0f}",
                f"{result.wasted_warm_cpu_s:,.0f}",
                f"{result.goodput:.3f}",
                f"{result.p50_ms:.2f}",
                f"{result.p99_ms:.2f}",
                f"{result.p999_ms:.2f}",
                f"{pct(result.slo_attainment):.2f}",
            ]
        )
    title = (
        "Traffic lab: keep-alive economics per (pattern, plane, policy) cell\n"
        f"({lab.results[0].functions if lab.results else 0} functions, "
        f"{lab.results[0].duration if lab.results else 0:,.0f} simulated "
        "seconds; wasted warm CPU weights idle pod-seconds by each plane's "
        "idle-pod CPU burn)"
    )
    return format_table(
        [
            "pattern",
            "plane",
            "policy",
            "requests",
            "cold",
            "penalty (s)",
            "idle pod-s",
            "idle CPU-s",
            "goodput",
            "p50 (ms)",
            "p99 (ms)",
            "p999 (ms)",
            "SLO %",
        ],
        rows,
        title=title,
    )


def format_verdict(lab: TrafficLab) -> str:
    """The §4.2.2 takeaway, computed from the sweep itself."""
    lines = ["Verdict (per pattern): best zero-cold-start configuration"]
    patterns = sorted({result.pattern for result in lab.results})
    for pattern in patterns:
        cells = [r for r in lab.results if r.pattern == pattern]
        warm = [r for r in cells if r.cold_starts == 0]
        if not warm:
            lines.append(f"  {pattern}: no policy avoided cold starts")
            continue
        best = min(warm, key=lambda r: (r.wasted_warm_cpu_s, -r.slo_attainment))
        lines.append(
            f"  {pattern}: {best.plane}/{best.policy} — 0 cold starts, "
            f"{best.wasted_warm_cpu_s:,.0f} idle CPU-s, "
            f"{pct(best.slo_attainment):.2f}% SLO"
        )
    return "\n".join(lines)


def format_report(lab: TrafficLab) -> str:
    return "\n\n".join([format_traffic_table(lab), format_verdict(lab)])


def run_config(config: dict) -> str:
    """Scenario entry point for ``spright-repro traffic``."""
    lab = run_traffic_lab(
        planes=config["planes"],
        policies=config["policies"],
        patterns=config["patterns"],
        functions=config["functions"],
        duration=config["duration"],
        seed=config["seed"],
        slo_threshold=config["threshold_s"],
        processes=config["processes"],
    )
    return format_report(lab)
