"""Command-line entry point: regenerate any table/figure of the paper.

    spright-repro tables            # Tables 1 and 2 (overhead audits)
    spright-repro boutique --scale 0.1 --duration 60
    spright-repro trace --plane s-spright --workload boutique --out out/
    spright-repro all               # the paper figures, at smoke-test scale
    spright-repro run clone-sweep --set workload.duration=5
    spright-repro serve --port 8089 -- boutique --duration 120 --trace

An experiment command is a translation into a scenario document: each
flag is a ``--set`` of the scenario path :data:`FLAGS` names, on a document
whose ``experiment`` is the command. It then takes the path of
``spright-repro run`` — defaults from the one table in
:mod:`repro.scenario.resolve`, one validator, one executor — so a bad value
or a flag the command does not consume exits 2 with
``spright-repro <command>: /<json-pointer>: <message>``. ``serve`` wraps
any command with the live dashboard; stdout stays byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from .faults import NAMED_PLANS
from .obs.live import dashboard_session
from .scenario import (
    EXPERIMENT_NAMES,
    ScenarioError,
    apply_overrides,
    check_scenario,
    execute,
    resolve,
    run_scenario,
)

#: flag -> (scenario path, form, help). The form is VALUE (one scalar),
#: VALUES (a list), ITEM (one scalar, set as a one-item list), or the
#: literal a switch sets. Values parse exactly like ``--set`` values.
VALUE, VALUES, ITEM = "VALUE", "VALUES", "ITEM"
FLAGS = {
    "--duration": ("workload.duration", VALUE, "simulated seconds per run"),
    "--scale": ("workload.scale", VALUE, "boutique scale: users and cores shrink together"),
    "--max-concurrency": ("workload.max_concurrency", VALUE, "fig5: sweep ceiling"),
    "--functions": ("workload.functions", VALUE, "traffic: functions in the fleet"),
    "--processes": ("workload.processes", VALUE, "traffic: fleet worker processes"),
    "--workload": ("workload.kind", VALUE, "trace: boutique or motion"),
    "--plane": ("planes", ITEM, "trace: the one dataplane to run traced"),
    "--planes": ("planes", VALUES, "faults/recovery/traffic/cluster: dataplanes"),
    "--nodes": ("cluster.nodes", VALUE, "cluster: nodes of the multi-node points"),
    "--placement": ("cluster.placement", VALUE, "cluster: placement policy, or all"),
    "--fault-plan": ("faults.plan", VALUE, f"faults: {', '.join(sorted(NAMED_PLANS))}, a file"),
    "--retries": ("resilience.retries", VALUE, "faults: retry budget per request"),
    "--hedge": ("resilience.hedge_delay", VALUE, "faults: hedge after this many seconds"),
    "--request-timeout": ("resilience.timeout", VALUE, "faults: per-attempt timeout (s)"),
    "--clone-factor": ("resilience.clone_factor", VALUE, "faults: clones: d, off or optimal"),
    "--policies": ("keepalive.policies", VALUES, "traffic: keep-alive policies"),
    "--patterns": ("keepalive.patterns", VALUES, "traffic: fleet arrival patterns"),
    "--no-overload": ("admission.overload", "false", "recovery: skip the overload rows"),
    "--trace": ("observability.trace", "true", "span-trace every node the run creates"),
    "--profile": ("observability.profile", "true", "profile every node's simulated CPU"),
    "--sanitize": ("observability.sanitize", "true", "check shared-memory use of SPRIGHT"),
    "--out": ("observability.out", VALUE, "write the report and traced nodes' artifacts here"),
}

#: What ``all`` runs: the paper figures at smoke-test scale.
ALL = (
    ["tables"],
    ["fig2", "--duration", "2"],
    ["fig5", "--max-concurrency", "64", "--duration", "1"],
    ["motion", "--duration", "1200"],
    ["parking", "--duration", "700"],
    ["xdp", "--duration", "1"],
    ["ablations"],
)
COMMANDS = EXPERIMENT_NAMES + ("all",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spright-repro",
        description="Regenerate the SPRIGHT paper's tables and figures.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=COMMANDS)
    for flag, (path, form, help_text) in FLAGS.items():
        if form in (VALUE, ITEM):
            parser.add_argument(flag, dest=flag, metavar=path, help=help_text)
        elif form == VALUES:
            parser.add_argument(flag, dest=flag, metavar=path, nargs="+", help=help_text)
        else:
            parser.add_argument(
                flag, dest=flag, action="store_const", const=form, help=help_text
            )
    return parser


def to_assignments(args: argparse.Namespace) -> list[str]:
    """The ``--set`` assignments the given flags stand for."""
    given = vars(args)
    assignments = []
    for flag, (path, form, _help) in FLAGS.items():
        if flag in given:
            value = given[flag]
            if form == VALUES:
                value = "[" + ", ".join(value) + "]"
            elif form == ITEM:
                value = f"[{value}]"
            assignments.append(f"{path}={value}")
    return assignments


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["serve"]:
        return _serve(argv[1:])
    if argv[:1] == ["run"]:
        return _run(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    entries = ALL if args.command == "all" else [[args.command]]
    runs = [parser.parse_args(entry) for entry in entries]
    try:
        resolved = [
            resolve(
                apply_overrides(
                    {"name": run.command, "experiment": run.command},
                    to_assignments(run) + to_assignments(args),
                )
            )
            for run in runs
        ]
    except ScenarioError as exc:
        print(f"spright-repro {args.command}: {exc}", file=sys.stderr)
        return 2
    print("\n\n".join(execute(scenario) for scenario in resolved))
    return 0


def _serve(argv) -> int:
    """``serve [--port P] [--host H] [--linger S] -- <command> …``."""
    parser = argparse.ArgumentParser(prog="spright-repro serve")
    parser.add_argument("--port", type=int, default=8089, help="0 picks a free port")
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--linger", type=float, default=0.0, help="serve this long after")
    split = argv.index("--") if "--" in argv else len(argv)
    args, inner = parser.parse_args(argv[:split]), argv[split + 1 :]
    if not inner:
        parser.error("serve needs a wrapped command: serve [options] -- boutique ...")
    with dashboard_session(args.host, args.port) as (sink, _server):
        code = main(inner)
        sink.finalize()
        if args.linger > 0:
            print(f"spright-repro dashboard: lingering {args.linger:.0f}s", file=sys.stderr)
            with contextlib.suppress(KeyboardInterrupt):
                time.sleep(args.linger)
    return code


def _run(argv) -> int:
    """``run <scenario> [--set key=value …]`` or ``run --validate-only <scenario> …``."""
    parser = argparse.ArgumentParser(prog="spright-repro run")
    parser.add_argument("scenarios", nargs="+", metavar="SCENARIO")
    parser.add_argument("--set", dest="overrides", action="append", default=[])
    parser.add_argument("--validate-only", action="store_true")
    args = parser.parse_args(argv)
    if args.validate_only:
        failures = 0
        for spec in args.scenarios:
            errors = check_scenario(spec, overrides=args.overrides)
            failures += bool(errors)
            lines = [f"{path}: {message}" for path, message in errors] or ["ok"]
            print("\n".join(f"{spec}: {line}" for line in lines))
        return 1 if failures else 0
    if len(args.scenarios) != 1:
        parser.error("run executes one scenario (--validate-only checks several)")
    try:
        _resolved, report = run_scenario(args.scenarios[0], overrides=args.overrides)
    except ScenarioError as exc:
        print(f"spright-repro run: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
