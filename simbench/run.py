"""Benchmark of the SPRIGHT simulator's host cost: one workload per run.

    python3 simbench/run.py --workload boutique-fig910 --seed 2022 \
        --seconds 20 --trace 0

``--trace 0`` repeats the workload (every plane, fixed simulated horizon)
for ``--seconds`` host seconds and reports the end-to-end metrics as
medians over repetitions. ``--trace 1`` alternates an untraced and a traced
repetition and reports the per-layer metrics. Human-readable lines come
first; the last line of stdout is one JSON object. Run it from the
repository root: the program is imported from ``src/``. ``BENCHMARK.json``
names the workloads and metrics; ``README.md`` here explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
#: the modules the workloads need; importing them is part of ``setup_s``
IMPORTS = (
    "import repro.experiments.boutique_exp, repro.experiments.motion_exp, "
    "repro.experiments.cluster_exp, repro.faults, repro.recovery"
)
IMPORT_SAMPLES = 3
DEFAULT_SEED = 2022


def measure_imports() -> float:
    """Median host seconds to import the program in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def git_describe() -> str:
    """``git describe`` of the checkout, or "unknown" outside a git tree."""
    # Read nothing outside the checkout: no repository above it, no config.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(seconds: float, body) -> list:
    """Call ``body`` until ``seconds`` have passed, at least once.

    A repetition starts only if, at the median pace so far, it ends in time.
    """
    start = time.perf_counter()
    results, lengths = [], []
    while True:
        begin = time.perf_counter()
        results.append(body())
        lengths.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return results


class Window:
    """Keeps only the span time and counts accrued inside timed calls.

    A traced repetition opens the window around each entry-point call, so
    the drains and checks that follow a call stay out of the layer shares.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.wall = 0.0
        self.self_time: dict = {}
        self.counts: dict = {}
        self._opened = None

    def _snapshot(self):
        return (
            time.perf_counter(),
            dict(self.tracer.self_time),
            dict(self.tracer.counts) | {f"{k}.entries": v for k, v in self.tracer.entries.items()},
        )

    def open(self) -> None:
        self._opened = self._snapshot()

    def close(self) -> None:
        after = self._snapshot()
        self.wall += after[0] - self._opened[0]
        for total, before, now in ((self.self_time, self._opened[1], after[1]),
                                   (self.counts, self._opened[2], after[2])):
            for key, value in now.items():
                total[key] = total.get(key, 0) + value - before.get(key, 0)


def totals(cells) -> dict:
    return {key: sum(cell.state[key] for cell in cells) for key in cells[0].state}


def end_to_end(workload: str, seed: int, seconds: float, hooks):
    """End-to-end metrics (medians over repetitions) and every repetition."""
    from cells import run_workload

    imports_s = measure_imports()
    reps = repeat(seconds, lambda: run_workload(workload, seed, hooks))
    walls = [sum(cell.wall_s for cell in cells) for cells in reps]
    done = totals(reps[0])
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "sim_req_per_s": (statistics.median(done["completed"] / w for w in walls), "req/s"),
        "setup_s": (imports_s + statistics.median(
            sum(cell.setup_s for cell in cells) for cells in reps), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "served_share": (done["completed"] / done["issued"], "ratio"),
    }
    notes = {
        "repetitions": len(reps),
        "wall_s_each": [round(w, 4) for w in walls],
        "imports_s": round(imports_s, 4),
        "failed_share": done["failed"] / done["issued"],
    }
    return metrics, reps, notes


def per_layer(workload: str, seed: int, seconds: float, hooks):
    """Per-layer metrics from alternating untraced and traced repetitions."""
    from cells import ALL_PLANES, run_workload
    from spans import LAYERS, Tracer

    def pair():
        untraced = run_workload(workload, seed, hooks)
        tracer = Tracer()
        tracer.install()
        window = Window(tracer)
        try:
            traced = run_workload(workload, seed, hooks, window)
        finally:
            tracer.uninstall()
        return untraced, traced, window

    pairs = repeat(seconds, pair)
    cells = pairs[0][0]
    state = totals(cells)
    counts = pairs[0][2].counts
    completed = state["completed"]

    def per_req(key):
        return counts.get(key, 0) / completed

    # Pooled over all traced repetitions, so the shares sum to at most 1.
    traced_wall = sum(w.wall for *_, w in pairs)
    metrics = {
        f"{layer}.self_share": (
            sum(w.self_time.get(layer, 0.0) for *_, w in pairs) / traced_wall, "ratio")
        for layer in LAYERS
    }
    offload_total = state["offloaded"] + state["host_serves"]
    metrics.update({
        "simcore.events_per_req": (state["events"] / completed, "1/req"),
        "simcore.cpu.charges_per_req": (per_req("simcore.cpu.charges"), "1/req"),
        "simcore.rng.draws_per_req": (per_req("simcore.rng.draws"), "1/req"),
        "runtime.picks_per_req": (per_req("runtime.picks"), "1/req"),
        "runtime.pods_scanned_per_pick": (
            counts.get("runtime.pods_scanned", 0) / max(1, counts.get("runtime.picks", 0)),
            "1/pick",
        ),
        "runtime.pods_retained": (state["pods_retained"], "count"),
        "runtime.cold_starts": (state["cold_starts"], "count"),
        "kernel.ops.calls_per_req": (per_req("kernel.ops.entries"), "1/req"),
        "kernel.ebpf.runs_per_req": (per_req("kernel.ebpf.runs"), "1/req"),
        "kernel.ebpf.insns_per_req": (per_req("kernel.ebpf.insns"), "1/req"),
        "mem.allocs_per_req": (per_req("mem.allocs"), "1/req"),
        "mem.pool_mb": (counts.get("mem.pool_bytes", 0) / 2**20, "MB"),
        "mem.leaked_slots": (state["leaked_slots"], "count"),
        "protocols.bytes_per_req": (per_req("protocols.bytes"), "B/req"),
        "cluster.xnode_legs_per_req": (state["xnode_legs"] / completed, "1/req"),
        "cluster.offloaded_share": (
            state["offloaded"] / offload_total if offload_total else 0.0, "ratio"),
        "faults.attempts_per_req": (per_req("faults.attempts"), "1/req"),
        "faults.useful_attempt_share": (
            completed / counts["faults.attempts"] if counts.get("faults.attempts") else 0.0,
            "ratio",
        ),
        "recovery.restarts": (state["restarts"], "count"),
        "recovery.reclaimed_slots": (state["reclaimed_slots"], "count"),
        "trace.overhead": (
            traced_wall / sum(c.setup_s + c.wall_s for u, _, _ in pairs for c in u), "ratio"),
    })
    walls = {cell.plane: [] for cell in cells}
    for untraced, _, _ in pairs:
        for cell in untraced:
            walls[cell.plane].append(cell.setup_s + cell.wall_s)
    for plane in ALL_PLANES:
        value = statistics.median(walls[plane]) if plane in walls else 0.0
        metrics[f"dataplane.wall_s.{plane}"] = (value, "s")
    notes = {"pairs": len(pairs)}
    return metrics, [p[0] for p in pairs] + [p[1] for p in pairs], notes


def report(workload, seed, metrics, reps, notes, trace: int) -> dict:
    """Print the manifest, digests, checks and metrics; return the result."""
    from cells import digest_of

    first = reps[0]
    digests = {digest_of(cells) for cells in reps}
    failures = [f"{c.plane}: {msg}" for cells in reps for c in cells for msg in c.failures]
    if len(digests) != 1:
        # Repetitions of one seed (traced or not) must simulate identically.
        failures.append(f"repetitions disagree: digests {sorted(digests)}")
    digest = digest_of(first)
    manifest = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_describe": git_describe(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "events": sum(c.digest["events"] for c in first),
        "wall_s": round(sum(c.wall_s for c in first), 4),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        **notes,
    }
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    for cell in first:
        print("plane " + json.dumps(cell.digest, sort_keys=True))
    with open(os.path.join(HERE, "digests.json")) as handle:
        reference = json.load(handle).get(workload, {}).get(str(seed))
    if reference is None:
        print(f"digest: {digest} (no reference for seed {seed})")
    elif reference == digest:
        print(f"digest: {digest} (matches reference)")
    else:
        print(f"digest: {digest}: behaviour changed (reference {reference})")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"checks: {'ok' if not failures else f'{len(failures)} failed'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    attempted = sum(len(cells) for cells in reps)
    failed = sum(1 for cells in reps for c in cells if c.failures)
    if len(digests) != 1:
        failed = max(failed, 1)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program to benchmark under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from cells import WORKLOADS, Hooks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    hooks = Hooks()
    measure = per_layer if args.trace else end_to_end
    metrics, reps, notes = measure(args.workload, args.seed, args.seconds, hooks)
    result = report(args.workload, args.seed, metrics, reps, notes, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
