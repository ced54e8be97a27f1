"""End-to-end cluster dataplane runs: hops, identity guards, and λ-NIC."""

from pathlib import Path

from repro import obs
from repro.experiments import audits, cluster_exp
from repro.experiments.cluster_exp import run_cluster_case


def _small(plane, policy, nodes, **kwargs):
    kwargs.setdefault("duration", 0.4)
    kwargs.setdefault("concurrency", 8)
    return run_cluster_case(plane, policy, nodes, **kwargs)


def test_every_plane_completes_with_engineered_hops_and_no_leaks():
    for plane in cluster_exp.ALL_PLANES:
        run = _small(plane, "chain_locality", 3)
        assert run.recorder.count("") > 0, plane
        assert run.hops_per_request == 3.0, plane
        assert run.leaked_slots == 0, plane


def test_policy_hop_counts_match_placement_geometry():
    hops = {
        policy: _small("s-spright", policy, 3).hops_per_request
        for policy in ("chain_locality", "bin_pack", "spread")
    }
    assert hops == {"chain_locality": 3.0, "bin_pack": 4.0, "spread": 6.0}


def test_chain_locality_beats_spread_on_p99_for_s_spright():
    locality = _small("s-spright", "chain_locality", 3, duration=0.6)
    spread = _small("s-spright", "spread", 3, duration=0.6)
    assert locality.p99_ms < spread.p99_ms
    assert locality.rps > spread.rps


def test_cross_node_counters_land_on_the_sending_node():
    run = _small("grpc", "spread", 3)
    fabric = run.dataplane.fabric
    per_node_hops = sum(
        node.counters.as_dict().get("cluster/xnode_hops", 0)
        for node in fabric.nodes.values()
    )
    assert per_node_hops == fabric.xnode_hops > 0
    link_bytes = {
        name: value
        for node in fabric.nodes.values()
        for name, value in node.counters.as_dict().items()
        if name.startswith("cluster/") and name.endswith("/bytes")
    }
    assert link_bytes  # per-link byte counters exist
    assert sum(link_bytes.values()) == fabric.bytes_moved


# --- satellite (a): single-node byte-identity guard -------------------------


def test_single_node_cluster_keeps_goldens_byte_identical():
    """A 1-node chain_locality cluster is the degenerate case: zero
    cross-node hops, and — because node 0 keeps the exact root seed and the
    cluster stack shares no state with the single-node pipeline — running
    it must leave the audited tables byte-identical to the golden."""
    run = _small("s-spright", "chain_locality", 1)
    assert run.hops_per_request == 0.0
    assert run.dataplane.fabric.xnode_hops == 0
    assert run.leaked_slots == 0
    golden = Path(__file__).parent / "goldens" / "tables.txt"
    assert audits.format_report() + "\n" == golden.read_text()


# --- satellite (c): tracing is an observer, not a participant ---------------


def test_traced_multinode_run_is_byte_identical_to_untraced():
    kwargs = dict(duration=0.4, concurrency=8)
    untraced = run_cluster_case("s-spright", "bin_pack", 3, **kwargs)
    obs.set_default_observe(trace=True)
    try:
        traced = run_cluster_case("s-spright", "bin_pack", 3, **kwargs)
    finally:
        obs.set_default_observe(trace=False)

    assert traced.recorder.count("") == untraced.recorder.count("")
    assert traced.recorder.summary("").p99 == untraced.recorder.summary("").p99
    for name, node in untraced.dataplane.fabric.nodes.items():
        twin = traced.dataplane.fabric.nodes[name]
        assert twin.counters.as_dict() == node.counters.as_dict(), name

    tracer = traced.dataplane.ingress_node.obs.tracer
    assert tracer is not None
    legs = [s for s in tracer.spans if s.name == "leg:xnode"]
    assert legs, "cross-node legs should open spans when traced"
    assert all(s.end is not None for s in legs)
    assert {s.attrs["protocol"] for s in legs} == {"grpc"}


# --- λ-NIC offload plane ----------------------------------------------------


def test_lambda_nic_entry_path_skips_the_host():
    host = _small(
        "s-spright",
        "chain_locality",
        1,
        chain_factory=cluster_exp.short_chain,
        duration=0.5,
    )
    nic = _small(
        "lambda-nic",
        "chain_locality",
        1,
        chain_factory=cluster_exp.short_chain,
        duration=0.5,
    )
    assert nic.dataplane.offloaded > 0
    assert nic.nic_cores > 0.0
    assert nic.host_cpu_percent < max(10.0, 0.1 * host.host_cpu_percent)
    assert nic.p99_ms < host.p99_ms


def test_lambda_nic_heavy_function_falls_back_to_host_pods():
    run = _small("lambda-nic", "chain_locality", 3)
    # The 200 µs f4 is over the NIC ceiling: every request touches a host
    # pod for it, while the short functions ride the NIC.
    assert run.dataplane.offloaded > 0
    assert run.dataplane.host_serves >= run.recorder.count("")
    assert run.leaked_slots == 0
