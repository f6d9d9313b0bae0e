"""Golden tests: the netsim fast path changes no emitted byte.

The optimised stack (slotted event calendar, pre-booked link
departures, columnar trace collection, vectorised MCT) must produce
traces bit-identical to the pre-optimisation reference stack preserved
in :mod:`repro.netsim.reference` — for *every* registered scenario, at
smoke scale.  Any divergence means the fast path altered simulation
semantics and must not ship.

These tests are the enforcement of the fast path's contract: the one
corner it cannot reproduce (events coinciding with a
serialization-finish instant at exactly the same float — see the
:mod:`repro.netsim.link` docstring) never occurs in registered
scenarios, whose start times and arrivals are continuous random draws;
any new scenario is automatically covered by the parametrisation below.
"""

import numpy as np
import pytest

import repro.api  # noqa: F401 — registers the extension scenarios
from repro.api.registry import SCENARIOS
from repro.netsim import reference
from repro.netsim.scenarios import ScenarioConfig, ScenarioKind, run_scenario

TRACE_COLUMNS = (
    "send_time",
    "recv_time",
    "size",
    "receiver_id",
    "flow_id",
    "message_id",
    "message_size",
    "is_message_end",
    "mct",
)


def assert_traces_bit_identical(expected, actual, label=""):
    for column in TRACE_COLUMNS:
        left = getattr(expected, column)
        right = getattr(actual, column)
        assert left.dtype == right.dtype, f"{label}{column}: dtype mismatch"
        assert np.array_equal(left, right), f"{label}{column}: values differ"


@pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
def test_fast_path_bit_identical_to_reference(name):
    """Every registered scenario: reference stack == fast path, byte for
    byte (including the reference's loop-computed MCT against the
    vectorised one)."""
    config = SCENARIOS.build(name, scale="smoke", seed=5)
    with reference.legacy_path():
        baseline = run_scenario(config)
    fast = run_scenario(config)
    assert len(baseline) == len(fast) > 0
    assert_traces_bit_identical(baseline, fast, label=f"{name}: ")


@pytest.mark.parametrize("run_index", [0, 1])
def test_fast_path_bit_identical_across_run_indices(run_index):
    """Per-run derived seeds survive the fast path unchanged."""
    config = ScenarioConfig.smoke(ScenarioKind.CASE1, seed=11)
    with reference.legacy_path():
        baseline = run_scenario(config, run_index=run_index)
    fast = run_scenario(config, run_index=run_index)
    assert_traces_bit_identical(baseline, fast, label=f"run{run_index}: ")


def test_trace_independent_of_prior_scenarios():
    """Message-id regression: generating scenario B after scenario A
    yields the same trace as generating B without A (the message-id
    counter lives on the simulator, not in a process-global)."""
    config_a = ScenarioConfig.smoke(ScenarioKind.PRETRAIN, seed=3)
    config_b = ScenarioConfig.smoke(ScenarioKind.CASE1, seed=4)
    b_alone = run_scenario(config_b)
    run_scenario(config_a)  # interleave an unrelated simulation
    b_after_a = run_scenario(config_b)
    assert_traces_bit_identical(b_alone, b_after_a, label="B-after-A: ")
    assert b_alone.message_id.min() >= 0


def test_exact_time_delivery_tie_keeps_reference_order():
    """Two deliveries landing on the same node at *exactly* the same
    float time from different channels must tie-break like the
    reference stack (by serialization-finish instant, not by booking
    instant), so the downstream drop decision picks the same packet.

    Topology engineered for an exact tie: a->s (800 bps, 0.25 s prop)
    and b->s (800 bps, 0.75 s prop) both deliver at t=2.25 into the
    1-packet egress queue of the slow s->d link.
    """
    from repro.netsim.apps import PacketSink
    from repro.netsim.core import Simulator
    from repro.netsim.packet import Packet
    from repro.netsim.topology import Network
    from repro.netsim.trace import TraceCollector

    def build_and_run():
        if reference.fast_path_enabled():
            sim, collector = Simulator(), TraceCollector()
        else:
            sim = reference.ReferenceSimulator()
            collector = reference.ReferenceTraceCollector()
        net = Network(sim)
        a, b, s, d = (net.add_node(name) for name in "absd")
        net.add_link(a, s, rate_bps=800, propagation_delay=0.25, queue_packets=10)
        net.add_link(b, s, rate_bps=800, propagation_delay=0.75, queue_packets=10)
        net.add_link(s, d, rate_bps=80, propagation_delay=0.0, queue_packets=1)
        net.compute_routes()
        PacketSink(sim, d, collector).install_default()

        def send_from_a():
            # Two back-to-back 100 B packets: finishes at t=1.0 and t=2.0,
            # deliveries at t=1.25 and t=2.25.
            a.send(Packet(src=a.node_id, dst=d.node_id, size=100, flow_id=1))
            a.send(Packet(src=a.node_id, dst=d.node_id, size=100, flow_id=1, seq=1))

        def send_from_b():
            # One 50 B packet: finish t=1.5, delivery at exactly t=2.25.
            b.send(Packet(src=b.node_id, dst=d.node_id, size=50, flow_id=2))

        sim.schedule(0.0, send_from_a)
        sim.schedule(1.0, send_from_b)
        sim.run(until=60.0)
        return collector.finalize()

    with reference.legacy_path():
        baseline = build_and_run()
    fast = build_and_run()
    # The 1-packet queue forces a drop among the tied arrivals: both
    # stacks must drop the same one.
    assert_traces_bit_identical(baseline, fast, label="tie: ")
    assert len(fast) == 2


def test_legacy_path_flag_restored():
    """The legacy-path context manager is exception-safe."""
    assert reference.fast_path_enabled()
    with pytest.raises(RuntimeError):
        with reference.legacy_path():
            assert not reference.fast_path_enabled()
            raise RuntimeError("boom")
    assert reference.fast_path_enabled()
