"""Tests for repro.timing.sta."""

import numpy as np
import pytest

from repro.circuit.generators import inverter_chain
from repro.circuit.netlist import Netlist
from repro.timing.sta import (
    arrival_times,
    critical_path,
    max_delay,
    required_times,
    slacks,
)


def build_two_path_block() -> Netlist:
    """Two paths of different lengths reconverging on one output."""
    netlist = Netlist("two_path")
    netlist.add_primary_input("a")
    netlist.add_primary_input("b")
    netlist.add_gate("long1", "INV", ["a"])
    netlist.add_gate("long2", "INV", ["long1"])
    netlist.add_gate("long3", "INV", ["long2"])
    netlist.add_gate("short1", "INV", ["b"])
    netlist.add_gate("out", "NAND2", ["long3", "short1"])
    netlist.mark_primary_output("out")
    return netlist


class TestArrivalTimes:
    def test_chain_arrivals_are_cumulative(self):
        chain = inverter_chain(4)
        delays = np.ones(4)
        arrivals = arrival_times(chain, delays)
        assert np.allclose(arrivals, [1.0, 2.0, 3.0, 4.0])

    def test_max_over_fanins(self):
        netlist = build_two_path_block()
        index = netlist.gate_index()
        delays = np.ones(netlist.n_gates)
        arrivals = arrival_times(netlist, delays)
        assert arrivals[index["out"]] == pytest.approx(4.0)

    def test_vectorised_matches_scalar(self):
        netlist = build_two_path_block()
        rng = np.random.default_rng(0)
        delays = rng.uniform(0.5, 2.0, size=(8, netlist.n_gates))
        batched = arrival_times(netlist, delays)
        for row in range(8):
            assert np.allclose(batched[row], arrival_times(netlist, delays[row]))

    def test_shape_validation(self):
        netlist = build_two_path_block()
        with pytest.raises(ValueError):
            arrival_times(netlist, np.ones(3))
        with pytest.raises(ValueError):
            arrival_times(netlist, np.ones((2, 2, netlist.n_gates)))


class TestMaxDelayAndPaths:
    def test_max_delay_uses_primary_outputs(self):
        netlist = build_two_path_block()
        delays = np.ones(netlist.n_gates)
        assert max_delay(netlist, delays) == pytest.approx(4.0)

    def test_max_delay_vectorised(self):
        netlist = build_two_path_block()
        delays = np.ones((5, netlist.n_gates))
        result = max_delay(netlist, delays)
        assert result.shape == (5,)
        assert np.allclose(result, 4.0)

    def test_critical_path_follows_long_branch(self):
        netlist = build_two_path_block()
        delays = np.ones(netlist.n_gates)
        path = critical_path(netlist, delays)
        assert path == ["long1", "long2", "long3", "out"]

    def test_critical_path_switches_with_delays(self):
        netlist = build_two_path_block()
        index = netlist.gate_index()
        delays = np.ones(netlist.n_gates)
        delays[index["short1"]] = 10.0
        path = critical_path(netlist, delays)
        assert path == ["short1", "out"]

    def test_critical_path_rejects_batched_delays(self):
        netlist = build_two_path_block()
        with pytest.raises(ValueError):
            critical_path(netlist, np.ones((2, netlist.n_gates)))


class TestRequiredAndSlack:
    def test_required_at_output_equals_target(self):
        netlist = build_two_path_block()
        index = netlist.gate_index()
        delays = np.ones(netlist.n_gates)
        required = required_times(netlist, delays, target=5.0)
        assert required[index["out"]] == pytest.approx(5.0)

    def test_required_propagates_backwards(self):
        netlist = build_two_path_block()
        index = netlist.gate_index()
        delays = np.ones(netlist.n_gates)
        required = required_times(netlist, delays, target=5.0)
        assert required[index["long3"]] == pytest.approx(4.0)
        assert required[index["long1"]] == pytest.approx(2.0)

    def test_slack_identifies_critical_gates(self):
        netlist = build_two_path_block()
        index = netlist.gate_index()
        delays = np.ones(netlist.n_gates)
        slack = slacks(netlist, delays, target=4.0)
        assert slack[index["long2"]] == pytest.approx(0.0)
        assert slack[index["short1"]] == pytest.approx(2.0)

    def test_negative_slack_when_target_missed(self):
        netlist = build_two_path_block()
        delays = np.ones(netlist.n_gates)
        slack = slacks(netlist, delays, target=3.0)
        assert slack.min() == pytest.approx(-1.0)

    def test_required_rejects_batched_delays(self):
        # (k, n_gates) rows are one target per row (see test_sizers); a 3-D
        # stack of them, or a target count that is not the row count, is
        # rejected.
        netlist = build_two_path_block()
        with pytest.raises(ValueError):
            required_times(netlist, np.ones((2, 2, netlist.n_gates)), target=1.0)
        with pytest.raises(ValueError):
            required_times(
                netlist, np.ones((2, netlist.n_gates)), target=np.ones(3)
            )
