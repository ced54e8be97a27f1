"""Smoke tests: every experiment runner executes and reports sane shapes.

Full-scale regeneration lives in benchmarks/; these short runs guard the
runner plumbing (construction, reporting, determinism) in the unit suite.
"""

import math

import pytest

from repro.experiments import (
    ablations,
    audits,
    boutique_exp,
    fig2,
    fig5,
    motion_exp,
    parking_exp,
    xdp_exp,
)


def test_audit_report_renders_both_tables():
    report = audits.format_report()
    assert "Kn total" in report
    assert "SP total" in report
    assert "15" in report and "25" in report  # Table 1 totals
    assert "11" in report                      # Table 2 interrupt total


def test_fig2_runner_short():
    results = fig2.run_fig2(duration=1.0)
    assert [result.name for result in results] == ["Null", "QP", "Envoy", "OFW"]
    report = fig2.format_report(results)
    assert "cyc/req" in report


def test_fig5_point_determinism():
    first = fig5.run_point("s-spright", 8, duration=0.5)
    second = fig5.run_point("s-spright", 8, duration=0.5)
    assert first.rps == second.rps
    assert first.mean_latency_ms == second.mean_latency_ms


def test_fig5_result_accessors():
    result = fig5.run_fig5(planes=("s-spright",), levels=(1, 4), duration=0.3)
    assert len(result.points) == 2
    assert result.at("s-spright", 4).concurrency == 4
    assert len(result.series("s-spright")) == 2
    with pytest.raises(KeyError):
        result.at("s-spright", 99)
    assert "Fig 5" in fig5.format_report(result)


def test_boutique_run_short():
    run = boutique_exp.run_boutique("s-spright", scale=0.05, duration=10.0)
    assert run.rps > 0
    assert run.recorder.count("") > 10
    assert run.latency_ms("mean") > 0


def test_boutique_comparison_tables():
    comparison = boutique_exp.BoutiqueComparison()
    comparison.runs["s-spright"] = boutique_exp.run_boutique(
        "s-spright", scale=0.05, duration=10.0
    )
    assert len(comparison.table5()) == 1
    assert "Table 5" in boutique_exp.format_table5(comparison)
    assert "Fig 9" in boutique_exp.format_fig9(comparison)
    assert "Fig 10" in boutique_exp.format_fig10(comparison)


def test_motion_runner_short():
    run = motion_exp.run_motion("s-spright", duration=600.0)
    assert run.cold_starts == 0
    assert run.recorder.count("") > 0
    assert run.latency_ms("p99") < 50.0


def test_motion_knative_sees_cold_starts():
    run = motion_exp.run_motion("knative", duration=900.0)
    assert run.cold_starts > 0
    assert run.max_latency_s() > 1.0


def test_parking_runner_short():
    run = parking_exp.run_parking("s-spright", duration=250.0)
    # Two bursts (t=0 and t=240) at 250 s; only the first completes fully.
    assert run.recorder.count("") >= 164
    assert run.latency_ms("mean") > 400.0  # VGG-16 stage dominates


def test_xdp_runner_short():
    comparison = xdp_exp.run_xdp_comparison(concurrency=16, duration=0.5)
    assert comparison["throughput_gain"] > 1.0
    assert "acceleration" in xdp_exp.format_report(comparison)


def test_hugepage_ablation_values():
    result = ablations.run_hugepage_ablation(payloads=(1024,))
    assert result[1024]["saving"] == pytest.approx(0.15, abs=0.01)


def test_lb_ablation_runs_both_policies():
    result = ablations.run_lb_ablation(duration=0.2)
    assert set(result) == {"residual", "round_robin"}
    for latencies in result.values():
        assert all(math.isfinite(value) and value > 0 for value in latencies.values())


def test_experiment_results_deterministic_across_runs():
    first = parking_exp.run_parking("s-spright", duration=100.0)
    second = parking_exp.run_parking("s-spright", duration=100.0)
    assert first.recorder.summary("").mean == second.recorder.summary("").mean
