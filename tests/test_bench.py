"""Bench trajectory tests: schema, tolerance gate, trajectory files.

The in-module validator (``repro.bench.validate_payload``) and the
checked-in JSON Schema (``tests/schemas/bench.schema.json``) describe the
same shape; a test here holds them in agreement using the repo's one
JSON-schema validator, :func:`repro.scenario.schema.validate`.
"""

import json
from pathlib import Path

import pytest

from repro import bench
from repro.scenario.schema import validate

SCHEMA_PATH = Path(__file__).parent / "schemas" / "bench.schema.json"


def _cell(scenario="boutique/s-spright/n1", requests=1000, events=50000,
          wall=0.5, **overrides):
    workload, plane, nodes = scenario.split("/")
    cell = {
        "scenario": scenario,
        "workload": workload,
        "plane": plane,
        "nodes": int(nodes[1:]),
        "sim_duration_s": 0.8,
        "wall_s": wall,
        "requests": requests,
        "events": events,
        "sim_req_per_wall_s": requests / wall,
        "events_per_wall_s": events / wall,
        "p50_ms": 0.7,
        "p99_ms": 0.9,
    }
    cell.update(overrides)
    return cell


def _payload(cells=None, pr=bench.PR_NUMBER):
    cells = cells if cells is not None else [
        _cell("boutique/s-spright/n1"),
        _cell("motion/lambda-nic/n3", requests=500, events=20000),
    ]
    wall = sum(cell["wall_s"] for cell in cells)
    requests = sum(cell["requests"] for cell in cells)
    events = sum(cell["events"] for cell in cells)
    return {
        "schema": bench.SCHEMA,
        "pr": pr,
        "config": {
            "duration_s": 0.8,
            "seed": 2022,
            "concurrency": 12,
            "placement": "chain_locality",
        },
        "cells": cells,
        "totals": {
            "wall_s": wall,
            "requests": requests,
            "events": events,
            "sim_req_per_wall_s": requests / wall,
            "events_per_wall_s": events / wall,
        },
    }


# -- schema -------------------------------------------------------------------

def test_valid_payload_passes_both_validators():
    payload = _payload()
    assert bench.validate_payload(payload) == []
    schema = json.loads(SCHEMA_PATH.read_text())
    assert validate(payload, schema) == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.update(schema="wrong/1"),
        lambda p: p.update(pr=0),
        lambda p: p["cells"][0].update(requests=-1),
        lambda p: p["cells"][0].update(wall_s="fast"),
        lambda p: p["cells"][0].pop("scenario"),
        lambda p: p["totals"].pop("events_per_wall_s"),
    ],
)
def test_bad_payloads_fail_both_validators(mutate):
    payload = _payload()
    mutate(payload)
    assert bench.validate_payload(payload)
    schema = json.loads(SCHEMA_PATH.read_text())
    assert validate(payload, schema)


def test_empty_cells_rejected_by_module_validator():
    # minItems is outside the hand-rolled schema subset; the in-module
    # validator carries that constraint alone.
    payload = _payload()
    payload["cells"] = []
    assert any("non-empty" in error for error in bench.validate_payload(payload))


def test_duplicate_scenarios_rejected():
    payload = _payload(cells=[_cell(), _cell()])
    assert any("duplicate" in error for error in bench.validate_payload(payload))


# -- trajectory files ---------------------------------------------------------

def test_write_trajectory_roundtrip(tmp_path):
    payload = _payload()
    path = bench.write_trajectory(payload, tmp_path)
    assert path.name == f"BENCH_{bench.PR_NUMBER}.json"
    assert json.loads(path.read_text()) == payload


def test_find_previous_picks_newest_older_pr(tmp_path):
    assert bench.find_previous(tmp_path, 8) is None
    for number in (3, 7, 8, 12):
        bench.write_trajectory(_payload(pr=number), tmp_path)
    previous = bench.find_previous(tmp_path, 8)
    assert previous is not None and previous.name == "BENCH_7.json"
    (tmp_path / "BENCH_nope.json").write_text("{}")  # ignored: not numeric
    assert bench.find_previous(tmp_path, 8).name == "BENCH_7.json"


# -- the tolerance gate -------------------------------------------------------

def test_compare_passes_within_tolerance():
    current = _payload()
    previous = _payload(pr=7)
    comparison = bench.compare(current, previous, tolerance=0.15)
    assert not comparison.regressed
    assert comparison.previous_pr == 7
    assert comparison.throughput_ratio == pytest.approx(1.0)
    assert comparison.behavior_changes == []


def test_compare_flags_throughput_regression():
    previous = _payload(pr=7)
    slow = _payload(cells=[
        _cell("boutique/s-spright/n1", wall=1.0),   # 2x slower
        _cell("motion/lambda-nic/n3", requests=500, events=20000, wall=1.0),
    ])
    comparison = bench.compare(slow, previous, tolerance=0.15)
    assert comparison.regressed
    assert comparison.throughput_ratio < 0.85
    assert comparison.cell_notes  # the offending cells are named


def test_compare_surfaces_behavior_changes_without_failing():
    previous = _payload(pr=7)
    current = _payload(cells=[
        _cell("boutique/s-spright/n1", requests=1001, events=50001),
        _cell("motion/lambda-nic/n3", requests=500, events=20000),
    ])
    comparison = bench.compare(current, previous, tolerance=0.15)
    assert not comparison.regressed  # counts drifted, throughput did not
    assert any("requests 1000 -> 1001" in c for c in comparison.behavior_changes)


def test_compare_notes_new_scenarios():
    previous = _payload(pr=7, cells=[_cell("boutique/s-spright/n1")])
    current = _payload()
    comparison = bench.compare(current, previous)
    assert any("new scenario" in note for note in comparison.cell_notes)


def test_compare_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        bench.compare(_payload(), _payload(pr=7), tolerance=0.0)


# -- reporting ----------------------------------------------------------------

def test_format_report_without_baseline():
    report = bench.format_report(_payload())
    assert "Bench trajectory" in report
    assert "TOTAL" in report
    assert "first trajectory point" in report


def test_format_report_with_baseline_verdict():
    previous = _payload(pr=7)
    comparison = bench.compare(_payload(), previous)
    report = bench.format_report(_payload(), comparison)
    assert "bench regression gate passed" in report
    slow = _payload(cells=[
        _cell("boutique/s-spright/n1", wall=2.0),
        _cell("motion/lambda-nic/n3", requests=500, events=20000, wall=2.0),
    ])
    report = bench.format_report(slow, bench.compare(slow, previous))
    assert "bench regression gate FAILED" in report


# -- a real (tiny) matrix run -------------------------------------------------

def test_run_bench_single_cell_is_valid_and_deterministic():
    kwargs = dict(
        duration=0.15, workloads=("motion",), planes=("s-spright",),
        node_counts=(1,),
    )
    first = bench.run_bench(**kwargs)
    assert bench.validate_payload(first) == []
    schema = json.loads(SCHEMA_PATH.read_text())
    assert validate(first, schema) == []
    (cell,) = first["cells"]
    assert cell["scenario"] == "motion/s-spright/n1"
    assert cell["requests"] > 0 and cell["events"] > 0
    # Same seed -> identical simulated work; only wall timings may differ.
    second = bench.run_bench(**kwargs)
    assert second["totals"]["requests"] == first["totals"]["requests"]
    assert second["totals"]["events"] == first["totals"]["events"]
