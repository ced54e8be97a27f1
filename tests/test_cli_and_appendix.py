"""CLI tests + the Appendix-A packet data flow walkthrough."""

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.dataplane import DSprightDataplane, Request, RequestClass, SSprightDataplane
from repro.runtime import FunctionSpec, WorkerNode
from repro.scenario import EXPERIMENT_NAMES


# -- CLI -----------------------------------------------------------------------

def test_parser_accepts_all_commands():
    parser = build_parser()
    for command in COMMANDS:
        args = parser.parse_args([command])
        assert args.command == command


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["figure99"])


def test_cli_tables_command_prints_audit(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Tables 1 & 2" in out
    assert "# of copies" in out


def test_cli_xdp_command(capsys):
    assert main(["xdp", "--duration", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "acceleration" in out


@pytest.fixture()
def no_simulation(monkeypatch):
    """Entry points that fail the test if any experiment starts."""
    from repro.scenario import run

    def refuse(config):
        raise AssertionError(f"simulation started with {config}")

    monkeypatch.setattr(
        run, "_entry_points", lambda: {name: refuse for name in EXPERIMENT_NAMES}
    )


@pytest.mark.parametrize(
    "argv, pointer",
    [
        ("motion --duration 0", "/workload/duration"),
        ("boutique --duration -1", "/workload/duration"),
        ("boutique --scale 0", "/workload/scale"),
        ("boutique --scale 2", "/workload/scale"),
        ("cluster --nodes 0", "/cluster/nodes"),
        ("cluster --nodes -2", "/cluster/nodes"),
        ("cluster --placement nope", "/cluster/placement"),
        ("traffic --functions 0", "/workload/functions"),
        ("traffic --processes 0", "/workload/processes"),
        ("fig5 --max-concurrency 0", "/workload/max_concurrency"),
        ("faults --retries -1", "/resilience/retries"),
        ("faults --request-timeout 0", "/resilience/timeout"),
        ("faults --clone-factor 0", "/resilience/clone_factor"),
        ("faults --planes grpc lambda-nic", "/planes/1"),
        ("traffic --planes lambda-nic", "/planes/0"),
        ("boutique --retries 3", "/resilience"),
        ("tables --duration 5", "/workload"),
    ],
)
def test_bad_flag_values_are_rejected_with_a_pointer(
    argv, pointer, capsys, no_simulation
):
    command = argv.split()[0]
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith(f"spright-repro {command}: {pointer}: ")
    assert captured.err.count("\n") == 1


def test_all_runs_its_fixed_argvs_through_the_scenario_path(capsys, monkeypatch):
    from repro.scenario import run

    def echo(name):
        return lambda config: f"{name} {config}"

    monkeypatch.setattr(
        run, "_entry_points", lambda: {name: echo(name) for name in EXPERIMENT_NAMES}
    )
    assert main(["all"]) == 0
    sections = capsys.readouterr().out.rstrip("\n").split("\n\n")
    assert sections == [
        "tables {}",
        "fig2 {'duration': 2.0}",
        "fig5 {'duration': 1.0, 'max_concurrency': 64}",
        "motion {'kind': 'motion', 'duration': 1200.0, 'seed': 2022}",
        "parking {'kind': 'parking', 'duration': 700.0, 'seed': 2022}",
        "xdp {'duration': 1.0}",
        "ablations {}",
    ]


# -- Appendix A: packet data flow in S-SPRIGHT (Fig 13) ----------------------------

def three_fn_chain(plane_cls):
    node = WorkerNode()
    functions = [
        FunctionSpec(name="fn-1", service_time=5e-6),
        FunctionSpec(name="fn-2", service_time=5e-6),
        FunctionSpec(name="fn-3", service_time=5e-6),
    ]
    plane = plane_cls(node, functions)
    plane.deploy()
    return node, plane


def run_one(node, plane, sequence):
    request_class = RequestClass(name="appendix", sequence=list(sequence), payload_size=64)
    request = Request(request_class=request_class, payload=b"p" * 64, created_at=0.0)

    def driver(env):
        yield env.process(plane.submit(request))

    node.env.process(driver(node.env))
    node.run(until=5.0)
    return request


def test_appendix_a_sproxy_flow_three_functions():
    """Fig 13: gw -> fn1 -> fn2 -> fn3 -> gw, one descriptor per hop."""
    node, plane = three_fn_chain(SSprightDataplane)
    request = run_one(node, plane, ["fn-1", "fn-2", "fn-3"])
    assert request.response == b"p" * 64
    # 4 descriptor redirects: ②, ④, ⑥, ⑧ in the appendix's numbering.
    metrics = plane.runtime.transport.metrics_map
    assert metrics.lookup(0) == 4
    # Every redirect went through the in-kernel sockmap path.
    sockmap = plane.runtime.transport.sockmap
    assert len(sockmap) == 4  # gateway + 3 functions
    # The payload was written once by the gateway (①) and updated in place
    # by each function (③⑤⑦) — never copied between functions.
    assert plane.runtime.pool.stats.writes == 1 + 3
    assert plane.runtime.pool.stats.allocs == 1


def test_appendix_a_ring_flow_three_functions():
    """Fig 14: the same flow over rte_ring enqueue/dequeue (D-SPRIGHT)."""
    node, plane = three_fn_chain(DSprightDataplane)
    request = run_one(node, plane, ["fn-1", "fn-2", "fn-3"])
    assert request.response == b"p" * 64
    rings = plane.runtime.manager.memory.rings
    assert len(rings) == 4  # gateway + 3 functions
    # 4 hops = 4 enqueues and 4 dequeues across the rings, in MP/MC mode.
    assert sum(ring.enqueued for ring in rings.values()) == 4
    assert sum(ring.dequeued for ring in rings.values()) == 4
    assert all(not ring.single_producer for ring in rings.values())
    assert all(not ring.single_consumer for ring in rings.values())


def test_appendix_a_hop_count_scales_with_chain_length():
    """n functions -> n+1 descriptor transfers (linear, unlike Knative)."""
    for length, expected_hops in ((1, 2), (2, 3), (3, 4)):
        node, plane = three_fn_chain(SSprightDataplane)
        sequence = [f"fn-{index + 1}" for index in range(length)]
        run_one(node, plane, sequence)
        metrics = plane.runtime.transport.metrics_map
        assert metrics.lookup(0) == expected_hops, length
