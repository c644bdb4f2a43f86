"""Tests for repro.circuit.netlist."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.netlist import Netlist, NetlistError
from repro.timing.reference import levels_reference, topological_order_reference


def build_diamond() -> Netlist:
    """a -> (top, bottom) -> out: the smallest reconvergent structure."""
    netlist = Netlist("diamond")
    netlist.add_primary_input("a")
    netlist.add_gate("top", "INV", ["a"])
    netlist.add_gate("bottom", "INV", ["a"])
    netlist.add_gate("out", "NAND2", ["top", "bottom"])
    netlist.mark_primary_output("out")
    return netlist


class TestConstruction:
    def test_counts(self):
        netlist = build_diamond()
        assert netlist.n_gates == 3
        assert len(netlist) == 3
        assert netlist.primary_inputs == ["a"]
        assert netlist.primary_outputs == ["out"]

    def test_duplicate_names_rejected(self):
        netlist = build_diamond()
        with pytest.raises(ValueError):
            netlist.add_gate("top", "INV", ["a"])
        with pytest.raises(ValueError):
            netlist.add_primary_input("a")

    def test_unknown_fanin_rejected(self):
        netlist = Netlist("n")
        netlist.add_primary_input("a")
        with pytest.raises(KeyError):
            netlist.add_gate("g", "INV", ["missing"])

    def test_wrong_pin_count_rejected(self):
        netlist = Netlist("n")
        netlist.add_primary_input("a")
        with pytest.raises(ValueError):
            netlist.add_gate("g", "NAND2", ["a"])

    def test_unknown_cell_rejected(self):
        netlist = Netlist("n")
        netlist.add_primary_input("a")
        with pytest.raises(KeyError):
            netlist.add_gate("g", "NAND77", ["a"])

    def test_nonpositive_size_rejected(self):
        netlist = Netlist("n")
        netlist.add_primary_input("a")
        with pytest.raises(ValueError):
            netlist.add_gate("g", "INV", ["a"], size=0.0)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"size": float("nan")}, "size must be positive and finite"),
            ({"size": float("inf")}, "size must be positive and finite"),
            ({"x": float("nan")}, "x must be finite"),
            ({"y": float("-inf")}, "y must be finite"),
        ],
    )
    def test_non_finite_values_rejected(self, values, message):
        netlist = Netlist("n")
        netlist.add_primary_input("a")
        with pytest.raises(NetlistError) as err:
            netlist.add_gate("g", "INV", ["a"], **values)
        assert (err.value.netlist, err.value.gate) == ("n", "g")
        assert message in str(err.value)
        assert netlist.n_gates == 0

    def test_coordinates_off_the_die_accepted(self):
        netlist = Netlist("n")
        netlist.add_primary_input("a")
        gate = netlist.add_gate("g", "INV", ["a"], x=1.5, y=-0.25)
        assert (gate.x, gate.y) == (1.5, -0.25)

    def test_mark_unknown_output_rejected(self):
        netlist = build_diamond()
        with pytest.raises(KeyError):
            netlist.mark_primary_output("nope")


class TestTopology:
    def test_topological_order_respects_fanins(self):
        netlist = build_diamond()
        order = netlist.topological_order()
        assert order.index("top") < order.index("out")
        assert order.index("bottom") < order.index("out")

    def test_fanout_indices_are_inverse_of_fanins(self):
        netlist = build_diamond()
        index = netlist.gate_index()
        fanouts = netlist.fanout_indices()
        assert index["out"] in fanouts[index["top"]]
        assert index["out"] in fanouts[index["bottom"]]

    def test_cycle_detection(self):
        netlist = Netlist("cyclic")
        netlist.add_primary_input("a")
        netlist.add_gate("g1", "INV", ["a"])
        netlist.add_gate("g2", "INV", ["g1"])
        # Rewire g1 to close a cycle by editing the gate object directly.
        netlist.gate("g1").fanins = ("g2",)
        netlist._dirty = True
        with pytest.raises(ValueError):
            netlist.topological_order()

    def test_logic_depth_of_diamond(self):
        assert build_diamond().logic_depth() == 2

    def test_fanins_assignment_checks_pin_count(self):
        netlist = build_diamond()
        for fanins in (("top",), ("top", "bottom", "a")):
            with pytest.raises(NetlistError) as err:
                netlist.gate("out").fanins = fanins
            assert (err.value.netlist, err.value.gate) == ("diamond", "out")
            assert f"expects 2 fanins, got {len(fanins)}" in str(err.value)
        assert netlist.gate("out").fanins == ("top", "bottom")
        netlist.gate("out").fanins = ("a", "top")
        index = netlist.gate_index()
        assert netlist.gate("out").fanins == ("a", "top")
        assert netlist.fanin_indices()[index["out"]] == [index["top"]]

    def test_fanins_assignment_to_undefined_net_is_dangling(self):
        netlist = build_diamond()
        netlist.gate("top").fanins = ("later",)
        with pytest.raises(NetlistError) as err:
            netlist.validate()
        assert (err.value.gate, err.value.net) == ("top", "later")
        netlist.gate("top").fanins = ("a",)
        netlist.validate()
        netlist.gate("top").fanins = ("later",)
        netlist.add_primary_input("later")
        netlist.validate()
        assert netlist.gate("top").fanins == ("later",)

    def test_levels(self):
        netlist = build_diamond()
        levels = netlist.levels()
        index = netlist.gate_index()
        assert levels[index["top"]] == 1
        assert levels[index["out"]] == 2


class TestSizesAndLoads:
    def test_size_roundtrip(self):
        netlist = build_diamond()
        sizes = np.array([2.0, 3.0, 1.5])
        netlist.set_sizes(sizes)
        assert np.allclose(netlist.sizes(), sizes)

    def test_set_sizes_validates(self):
        netlist = build_diamond()
        with pytest.raises(ValueError):
            netlist.set_sizes(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            netlist.set_sizes(np.array([1.0, -2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_set_sizes_rejects_non_finite(self, bad):
        netlist = build_diamond()
        before = netlist.sizes()
        with pytest.raises(ValueError):
            netlist.set_sizes(np.array([1.0, bad, 1.0]))
        assert np.array_equal(netlist.sizes(), before)

    def test_loads_include_fanout_input_caps(self):
        netlist = build_diamond()
        index = netlist.gate_index()
        loads = netlist.load_capacitances()
        nand_cin = netlist.library["NAND2"].input_capacitance(1.0, netlist.technology)
        assert loads[index["top"]] == pytest.approx(nand_cin)

    def test_output_gate_gets_default_load(self):
        netlist = build_diamond()
        index = netlist.gate_index()
        loads = netlist.load_capacitances()
        assert loads[index["out"]] == pytest.approx(netlist.default_output_load)

    def test_upsizing_fanout_increases_driver_load(self):
        netlist = build_diamond()
        index = netlist.gate_index()
        before = netlist.load_capacitances()[index["top"]]
        sizes = netlist.sizes()
        sizes[index["out"]] = 4.0
        after = netlist.load_capacitances(sizes)[index["top"]]
        assert after == pytest.approx(4.0 * before)

    def test_total_area_scales_with_sizes(self):
        netlist = build_diamond()
        base = netlist.total_area()
        doubled = netlist.total_area(2.0 * netlist.sizes())
        assert doubled == pytest.approx(2.0 * base)


class TestPlacementAndCopy:
    def test_auto_place_within_region(self):
        netlist = build_diamond()
        netlist.auto_place((0.25, 0.0, 0.5, 1.0))
        xs, ys = netlist.positions()
        assert np.all((xs >= 0.25) & (xs <= 0.5))
        assert np.all((ys >= 0.0) & (ys <= 1.0))

    def test_auto_place_orders_levels_left_to_right(self):
        netlist = build_diamond()
        netlist.auto_place()
        index = netlist.gate_index()
        xs, _ = netlist.positions()
        assert xs[index["top"]] < xs[index["out"]]

    def test_auto_place_rejects_bad_region(self):
        netlist = build_diamond()
        with pytest.raises(ValueError):
            netlist.auto_place((0.5, 0.0, 0.5, 1.0))

    def test_copy_is_deep(self):
        netlist = build_diamond()
        clone = netlist.copy()
        clone.gate("top").size = 8.0
        assert netlist.gate("top").size == pytest.approx(1.0)
        assert clone.primary_outputs == netlist.primary_outputs

    def test_copy_preserves_area(self):
        netlist = build_diamond()
        netlist.set_sizes(np.array([2.0, 2.0, 2.0]))
        assert netlist.copy().total_area() == pytest.approx(netlist.total_area())


class TestTypedErrors:
    def test_unknown_fanin_is_located(self):
        from repro.circuit.netlist import NetlistError

        netlist = build_diamond()
        with pytest.raises(NetlistError) as err:
            netlist.add_gate("bad", "INV", ["ghost"])
        assert err.value.netlist == "diamond"
        assert err.value.gate == "bad"
        assert err.value.net == "ghost"
        assert isinstance(err.value, ValueError)

    def test_duplicate_gate_is_located(self):
        from repro.circuit.netlist import NetlistError

        netlist = build_diamond()
        with pytest.raises(NetlistError) as err:
            netlist.add_gate("top", "INV", ["a"])
        assert err.value.gate == "top"
        assert "duplicate" in str(err.value)

    def test_forward_reference_deferred_then_validated(self):
        from repro.circuit.netlist import NetlistError

        netlist = Netlist("fwd")
        netlist.add_primary_input("a")
        netlist.add_gate("u", "NAND2", ["a", "ghost"], allow_forward=True)
        with pytest.raises(NetlistError) as err:
            netlist.validate()
        assert err.value.gate == "u"
        assert err.value.net == "ghost"
        # Supplying the missing driver afterwards makes it valid.
        netlist = Netlist("fwd")
        netlist.add_primary_input("a")
        netlist.add_gate("u", "NAND2", ["a", "later"], allow_forward=True)
        netlist.add_gate("later", "INV", ["a"])
        netlist.mark_primary_output("u")
        netlist.validate()
        assert netlist.logic_depth() == 2

    def test_cycle_error_names_the_cycle(self):
        from repro.circuit.netlist import NetlistError

        netlist = Netlist("loop")
        netlist.add_primary_input("a")
        netlist.add_gate("u", "NAND2", ["a", "w"], allow_forward=True)
        netlist.add_gate("v", "INV", ["u"])
        netlist.add_gate("w", "INV", ["v"])
        with pytest.raises(NetlistError) as err:
            netlist.validate()
        message = str(err.value)
        assert "cycle" in message
        assert "u -> " in message or "-> u" in message

    def test_lookup_error_is_both_keyerror_and_valueerror(self):
        from repro.circuit.netlist import NetlistLookupError

        netlist = build_diamond()
        with pytest.raises(NetlistLookupError) as err:
            netlist.mark_primary_output("ghost")
        assert isinstance(err.value, KeyError)
        assert isinstance(err.value, ValueError)
        # str() is the plain message, not KeyError's repr-quoted form.
        assert not str(err.value).startswith('"')
        assert "cannot mark unknown gate" in str(err.value)


class TestPrimaryInputNames:
    def test_gate_named_like_an_input_rejected(self):
        from repro.circuit.netlist import NetlistError

        netlist = build_diamond()
        with pytest.raises(NetlistError):
            netlist.add_gate("a", "INV", ["top"])

    def test_input_named_like_a_gate_rejected(self):
        from repro.circuit.netlist import NetlistError

        netlist = build_diamond()
        with pytest.raises(NetlistError):
            netlist.add_primary_input("out")

    def test_fanins_may_name_any_input(self):
        netlist = Netlist("inputs")
        for name in ("a", "b", "c"):
            netlist.add_primary_input(name)
        netlist.add_gate("g", "NAND3", ["c", "a", "b"])
        netlist.add_gate("h", "NAND2", ["g", "b"])
        netlist.mark_primary_output("h")
        assert netlist.gate("g").fanins == ("c", "a", "b")
        assert netlist.logic_depth() == 2


class TestGateViews:
    def test_view_reads_columns(self):
        netlist = build_diamond()
        netlist.add_gate("late", "NOR2", ["out", "a"], size=2.5, x=0.125, y=0.75)
        gate = netlist.gate("late")
        assert (gate.name, gate.cell, gate.fanins) == ("late", "NOR2", ("out", "a"))
        assert (gate.size, gate.x, gate.y) == (2.5, 0.125, 0.75)
        assert list(netlist.gates) == ["top", "bottom", "out", "late"]
        assert [g.cell for g in netlist.gates.values()] == ["INV", "INV", "NAND2", "NOR2"]

    @pytest.mark.parametrize(
        "attr, value, message",
        [
            ("size", -1.0, "size must be positive and finite"),
            ("size", 0.0, "size must be positive and finite"),
            ("size", float("nan"), "size must be positive and finite"),
            ("x", float("nan"), "x must be finite"),
            ("y", float("inf"), "y must be finite"),
        ],
    )
    def test_value_setters_reject_bad_values(self, attr, value, message):
        netlist = build_diamond()
        before = _snapshot(netlist)
        with pytest.raises(NetlistError) as err:
            setattr(netlist.gate("top"), attr, value)
        assert (err.value.netlist, err.value.gate) == ("diamond", "top")
        assert message in str(err.value)
        _assert_same(_snapshot(netlist), before)

    def test_gates_mapping_is_read_only(self):
        netlist = build_diamond()
        with pytest.raises(TypeError):
            netlist.gates["top"] = netlist.gate("bottom")
        with pytest.raises(TypeError):
            del netlist.gates["top"]
        assert "top" in netlist.gates and "a" not in netlist.gates
        with pytest.raises(KeyError):
            netlist.gate("a")


def _snapshot(netlist: Netlist) -> dict:
    xs, ys = netlist.positions()
    snapshot = {"sizes": netlist.sizes(), "xs": xs, "ys": ys,
                "loads": netlist.load_capacitances()}
    snapshot.update(netlist.cell_coefficients())
    return snapshot


def _assert_same(left: dict, right: dict) -> None:
    assert left.keys() == right.keys()
    for key in left:
        assert np.array_equal(left[key], right[key]), key


#: Every mutation the accessor caches must notice.
MUTATIONS = {
    "set_sizes": lambda n: n.set_sizes(np.array([2.0, 3.0, 1.5])),
    "gate_size": lambda n: setattr(n.gate("out"), "size", 4.0),
    "gate_x": lambda n: setattr(n.gate("top"), "x", 0.875),
    "gate_y": lambda n: setattr(n.gate("bottom"), "y", 0.125),
    "auto_place": lambda n: n.auto_place((0.25, 0.0, 0.5, 1.0)),
    "add_gate": lambda n: n.add_gate("extra", "NOR2", ["top", "out"], size=2.0),
    "mark_primary_output": lambda n: n.mark_primary_output("top"),
}


class TestAccessorCaches:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_shows_in_next_query(self, mutation):
        queried = build_diamond()
        before = _snapshot(queried)
        MUTATIONS[mutation](queried)
        # The same edit on a netlist that never cached anything.
        fresh = build_diamond()
        MUTATIONS[mutation](fresh)
        after = _snapshot(queried)
        _assert_same(after, _snapshot(fresh))
        changed = [
            key for key in after
            if after[key].shape != before[key].shape
            or not np.array_equal(after[key], before[key])
        ]
        assert changed, mutation

    def test_returned_arrays_are_copies(self):
        netlist = build_diamond()
        before = _snapshot(netlist)
        for value in _snapshot(netlist).values():
            value[:] = 7
        coefficients = netlist.cell_coefficients()
        coefficients["logical_effort"] = np.zeros(3)
        del coefficients["area_factor"]
        _assert_same(_snapshot(netlist), before)
        assert netlist.total_area() == pytest.approx(
            float((before["area_factor"] * netlist.technology.area_unit).sum())
        )

    def test_size_array_can_be_held_across_set_sizes(self):
        netlist = build_diamond()
        original = netlist.sizes()
        netlist.set_sizes(2.0 * original)
        assert np.array_equal(original, np.ones(3))
        netlist.set_sizes(original)
        assert np.array_equal(netlist.sizes(), original)

    def test_copy_stays_deep_both_ways(self):
        netlist = build_diamond()
        before = _snapshot(netlist)
        clone = netlist.copy("clone")
        for mutation in MUTATIONS.values():
            mutation(clone)
        _assert_same(_snapshot(netlist), before)
        assert "extra" not in netlist and "extra" in clone
        assert netlist.primary_outputs == ["out"]
        clone_before = _snapshot(clone)
        netlist.set_sizes(np.array([5.0, 5.0, 5.0]))
        netlist.gate("top").x = 0.0
        _assert_same(_snapshot(clone), clone_before)


# ----------------------------------------------------------------------
# The frontier sort against the seed FIFO Kahn sort
# ----------------------------------------------------------------------
_CELLS_BY_ARITY = {1: "INV", 2: "NAND2", 3: "NAND3", 4: "NAND4"}


@st.composite
def random_dags(draw) -> Netlist:
    """A random DAG added in shuffled order with forward references.

    Gate numbers are shuffled against the hidden topological order, so
    ``g2``/``g10`` names interleave in string order; pins may repeat.
    """
    inputs = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    n_gates = draw(st.integers(0, 40))
    names = [f"g{k}" for k in draw(st.permutations(range(n_gates)))]
    rows = []
    for index, name in enumerate(names):
        pool = inputs + names[:index]
        arity = draw(st.integers(1, 4))
        if draw(st.booleans()):
            fanins = [draw(st.sampled_from(pool))] * arity
        else:
            fanins = draw(st.lists(st.sampled_from(pool), min_size=arity, max_size=arity))
        rows.append((name, _CELLS_BY_ARITY[arity], fanins))
    netlist = Netlist("dag")
    for name in inputs:
        netlist.add_primary_input(name)
    for name, cell, fanins in draw(st.permutations(rows)):
        netlist.add_gate(name, cell, fanins, allow_forward=True)
    for name in draw(st.lists(st.sampled_from(names), unique=True)) if names else []:
        netlist.mark_primary_output(name)
    return netlist


def assert_matches_seed_structure(netlist: Netlist) -> None:
    assert netlist.topological_order() == topological_order_reference(netlist)
    assert np.array_equal(netlist.levels(), levels_reference(netlist))


class TestSeedStructure:
    @given(random_dags())
    @settings(max_examples=300, deadline=None)
    def test_random_dags_match_reference(self, netlist):
        assert_matches_seed_structure(netlist)

    def test_degenerate_netlists_match_reference(self):
        empty = Netlist("empty")
        empty.add_primary_input("a")
        single = Netlist("single")
        single.add_primary_input("a")
        single.add_gate("g", "NAND2", ["a", "a"])
        chain = Netlist("chain")
        chain.add_primary_input("a")
        for k in reversed(range(12)):
            chain.add_gate(f"g{k}", "INV", [f"g{k + 1}" if k < 11 else "a"], allow_forward=True)
        for netlist in (empty, single, chain):
            assert_matches_seed_structure(netlist)
        assert chain.topological_order() == [f"g{k}" for k in reversed(range(12))]
        assert empty.logic_depth() == 0 and chain.logic_depth() == 12

    def test_corpus_stages_match_reference(self):
        from repro.verify import builtin_corpus

        specs = {scenario.pipeline: None for scenario in builtin_corpus()}
        for spec in specs:
            for stage in spec.build().stages:
                assert_matches_seed_structure(stage.netlist)


# ----------------------------------------------------------------------
# Bulk append
# ----------------------------------------------------------------------
def _diamond_block(netlist: Netlist, **overrides) -> dict:
    """add_gates arguments for the diamond's three gates."""
    library = netlist.library
    block = {
        "names": ["top", "bottom", "out"],
        "cells": [library.cell_id("INV"), library.cell_id("INV"), library.cell_id("NAND2")],
        "fanin_ptr": [0, 1, 2, 4],
        "fanins": [~0, ~0, 0, 1],
    }
    block.update(overrides)
    return block


def _bulk_diamond(**overrides) -> Netlist:
    """The diamond's gates appended with one add_gates call."""
    netlist = Netlist("diamond")
    netlist.add_primary_input("a")
    netlist.add_gates(**_diamond_block(netlist, **overrides))
    return netlist


class TestBulkAppend:
    def test_matches_per_gate_construction(self):
        bulk = _bulk_diamond()
        bulk.mark_primary_output("out")
        reference = build_diamond()
        for name in reference.gates:
            left, right = bulk.gate(name), reference.gate(name)
            assert (left.cell, left.fanins, left.size, left.x, left.y) == (
                right.cell, right.fanins, right.size, right.x, right.y)
        assert bulk.topological_order() == reference.topological_order()
        _assert_same(_snapshot(bulk), _snapshot(reference))

    def test_values_and_later_gates(self):
        netlist = _bulk_diamond(sizes=[1.0, 2.0, 3.0], x=0.25, y=np.array([0.1, 0.2, 0.3]))
        assert netlist.gate("bottom").size == 2.0
        assert (netlist.gate("out").x, netlist.gate("out").y) == (0.25, 0.3)
        netlist.add_gate("late", "NOR2", ["out", "a"])
        assert netlist.gate("late").fanins == ("out", "a")
        assert netlist.logic_depth() == 3

    @pytest.mark.parametrize(
        "overrides, gate, message",
        [
            ({"names": ["top", "top", "out"]}, "top", "duplicate gate name"),
            ({"names": ["top", "a", "out"]}, "a", "duplicate gate name"),
            ({"cells": [0, 99, 2]}, "bottom", "not in library"),
            ({"fanin_ptr": [0, 1, 3, 4], "fanins": [~0, ~0, ~0, 0]}, "bottom", "expects 1 fanins, got 2"),
            ({"fanins": [~0, 2, 0, 1]}, "bottom", "fanin 'out' is not a known gate"),
            ({"fanins": [~0, ~0, 0, 2]}, "out", "fanin 'out' is not a known gate"),
            ({"fanins": [~3, ~0, 0, 1]}, "top", "is not a known gate or primary input"),
            ({"sizes": [1.0, 1.0, 0.0]}, "out", "size must be positive"),
            ({"sizes": [1.0, np.nan, 1.0]}, "bottom", "size must be positive and finite"),
            ({"sizes": [1.0, 1.0, np.inf]}, "out", "size must be positive and finite"),
            ({"x": [0.5, np.nan, 0.5]}, "bottom", "x must be finite"),
            ({"y": [0.5, 0.5, -np.inf]}, "out", "y must be finite"),
        ],
    )
    def test_first_bad_gate_raises_located_error(self, overrides, gate, message):
        netlist = Netlist("diamond")
        netlist.add_primary_input("a")
        with pytest.raises(NetlistError) as err:
            netlist.add_gates(**_diamond_block(netlist, **overrides))
        assert (err.value.netlist, err.value.gate) == ("diamond", gate)
        assert message in str(err.value)
        # Nothing of the rejected block was written.
        assert netlist.n_gates == 0 and netlist.logic_depth() == 0
