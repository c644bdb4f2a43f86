"""Tests for external netlist ingestion (repro.circuit.ingest).

Covers the parser/emitter round-trip contract (bit-identical schedules and
arrival times), malformed-input error paths (typed, located errors) and
fuzzed parser input, the cell-mapping policy, the Rent's-rule scale
generator's distribution sanity, determinism and exact output, and the
registered pipeline kinds end to end through the Study/Design APIs.
"""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.generators import random_logic_block
from repro.circuit.ingest import (
    FIXTURE_DIR,
    CellMapping,
    ParseError,
    load_bench,
    load_yosys_json,
    normalise_cell_type,
    parse_bench,
    parse_yosys_json,
    scale_logic_block,
    write_bench,
    write_yosys_json,
)
from repro.circuit.netlist import Netlist, NetlistError
from repro.timing.delay_model import GateDelayModel
from repro.timing.sta import arrival_times


def nominal_arrivals(netlist):
    model = GateDelayModel(netlist.technology)
    return arrival_times(netlist, model.nominal_delays(netlist))


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def test_c17_fixture_parses():
    netlist = load_bench(FIXTURE_DIR / "c17.bench")
    assert netlist.n_gates == 6
    assert netlist.primary_inputs == ["1", "2", "3", "6", "7"]
    assert netlist.primary_outputs == ["22", "23"]
    assert all(g.cell == "NAND2" for g in netlist.gates.values())
    assert netlist.logic_depth() == 3


def test_adder4_fixture_parses_with_register_cut():
    netlist = load_yosys_json(FIXTURE_DIR / "adder4_mapped.json")
    # 29 cells - 4 DFFs = 25 combinational gates.
    assert netlist.n_gates == 25
    # DFF Q nets became primary inputs; the constant-0 cin became const0.
    assert "sum0" in netlist.primary_inputs
    assert "const0" in netlist.primary_inputs
    # The DFF D drivers and the cout buffer are the primary outputs.
    assert len(netlist.primary_outputs) == 5
    assert "cout" in netlist.primary_outputs
    # sky130 names mapped onto the logical-effort library.
    cells = {g.cell for g in netlist.gates.values()}
    assert cells == {"XOR2", "NAND2", "INV", "AOI21", "BUF"}
    # Ripple-carry chain: depth grows with the 4-bit carry chain.
    assert netlist.logic_depth() >= 8


# ----------------------------------------------------------------------
# Statement forms and cell mapping
# ----------------------------------------------------------------------
def test_instance_form_and_mixed_statements():
    text = """
    INPUT(a)
    INPUT(b)
    NAND2_0 (u, a, b)
    y = NOR(u, b)
    OUTPUT(y)
    """
    netlist = parse_bench(text)
    assert netlist.gate("u").cell == "NAND2"
    assert netlist.gate("y").cell == "NOR2"
    assert netlist.primary_outputs == ["y"]


def test_implicit_outputs_when_none_declared():
    text = """
    INPUT(a)
    INPUT(b)
    NAND2_0 (u, a, b)
    NOR2_1 (v, u, b)
    """
    netlist = parse_bench(text)
    # No OUTPUT statements: the gate nothing reads is the implicit output.
    assert netlist.primary_outputs == ["v"]


def test_and_or_map_to_inverting_counterparts():
    text = """
    INPUT(a)
    INPUT(b)
    INPUT(c)
    u = AND(a, b)
    v = OR(u, c)
    OUTPUT(v)
    """
    netlist = parse_bench(text)
    assert netlist.gate("u").cell == "NAND2"
    assert netlist.gate("v").cell == "NOR2"


def test_wide_gate_tree_decomposition():
    inputs = [f"i{k}" for k in range(9)]
    text = "\n".join(f"INPUT({name})" for name in inputs)
    text += f"\ny = NAND({', '.join(inputs)})\nOUTPUT(y)\n"
    netlist = parse_bench(text)
    assert "y" in netlist.gates
    helpers = [n for n in netlist.gates if n.startswith("y__t")]
    assert helpers, "9-input NAND must decompose into helper gates"
    assert all(netlist.gates[n].cell.startswith("NAND") for n in helpers)
    netlist.validate()


def test_register_cut_in_bench():
    text = """
    INPUT(a)
    g = NOT(a)
    q = DFF(g)
    h = NOT(q)
    OUTPUT(h)
    """
    netlist = parse_bench(text)
    assert "q" in netlist.primary_inputs  # Q net becomes a PI
    assert "g" in netlist.primary_outputs  # D driver becomes a PO
    assert "h" in netlist.primary_outputs


def test_output_on_primary_input_gets_buffer():
    netlist = parse_bench("INPUT(a)\nOUTPUT(a)\nb = NOT(a)\nOUTPUT(b)\n")
    assert "a__po" in netlist.gates
    assert netlist.gates["a__po"].cell == "BUF"


def test_normalise_cell_type():
    assert normalise_cell_type("sky130_fd_sc_hd__nand2_4") == "nand2"
    assert normalise_cell_type("$_DFF_P_") == "dff"
    assert normalise_cell_type("$_NAND_") == "nand"
    assert normalise_cell_type("NAND") == "nand"
    assert normalise_cell_type("INVx4") == "invx4"  # unknown stays itself


def test_unknown_cell_error_policy():
    text = "INPUT(a)\nINPUT(b)\ny = FROB(a, b)\nOUTPUT(y)\n"
    with pytest.raises(ParseError) as err:
        parse_bench(text)
    assert "FROB" in str(err.value)
    assert "fallback" in str(err.value)
    assert err.value.line == 3


def test_unknown_cell_fallback_policy():
    text = "INPUT(a)\nINPUT(b)\ny = FROB(a, b)\nOUTPUT(y)\n"
    mapping = CellMapping(unknown_cell="fallback")
    netlist = parse_bench(text, cell_mapping=mapping)
    assert netlist.gate("y").cell == "NAND2"  # arity-matched substitute
    assert "FROB" in mapping.fallbacks


def test_cell_mapping_table_extension():
    mapping = CellMapping(table={"frob": "nand"})
    netlist = parse_bench(
        "INPUT(a)\nINPUT(b)\ny = FROB(a, b)\nOUTPUT(y)\n", cell_mapping=mapping
    )
    assert netlist.gate("y").cell == "NAND2"


def test_bad_unknown_cell_policy_rejected():
    with pytest.raises(ValueError):
        CellMapping(unknown_cell="ignore")


# ----------------------------------------------------------------------
# Malformed inputs hit typed, located errors
# ----------------------------------------------------------------------
def test_dangling_net_is_located_netlist_error():
    text = "INPUT(a)\ny = NAND(a, ghost)\nOUTPUT(y)\n"
    with pytest.raises(NetlistError) as err:
        parse_bench(text)
    assert err.value.net == "ghost"
    assert err.value.gate == "y"
    assert "ghost" in str(err.value)


def test_duplicate_gate_is_netlist_error():
    text = "INPUT(a)\ny = NOT(a)\ny = NOT(a)\n"
    with pytest.raises(NetlistError) as err:
        parse_bench(text)
    assert "duplicate" in str(err.value)
    assert err.value.gate == "y"


def test_cycle_is_netlist_error_with_path():
    text = "INPUT(a)\nu = NAND(a, v)\nv = NAND(a, u)\nOUTPUT(v)\n"
    with pytest.raises(NetlistError) as err:
        parse_bench(text)
    message = str(err.value)
    assert "cycle" in message
    assert "u" in message and "v" in message


def test_unparseable_statement_is_parse_error_with_line():
    with pytest.raises(ParseError) as err:
        parse_bench("INPUT(a)\nthis is not a statement\n")
    assert err.value.line == 2


def test_yosys_invalid_json():
    with pytest.raises(ParseError) as err:
        parse_yosys_json("{not json")
    assert "invalid JSON" in str(err.value)


def test_yosys_no_modules_and_module_selection():
    with pytest.raises(ParseError):
        parse_yosys_json({"modules": {}})
    two = {"modules": {"m1": {"ports": {}, "cells": {}},
                       "m2": {"ports": {}, "cells": {}}}}
    with pytest.raises(ParseError) as err:
        parse_yosys_json(two)
    assert "m1" in str(err.value) and "m2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_yosys_json(two, module="m3")
    assert "m3" in str(err.value)


def test_yosys_multi_output_cell_rejected():
    doc = {"modules": {"m": {
        "ports": {"a": {"direction": "input", "bits": [2]}},
        "cells": {"weird": {"type": "nand2", "connections":
                            {"A": [2], "Y": [3], "Z": [4]}}},
    }}}
    with pytest.raises(ParseError) as err:
        parse_yosys_json(doc)
    assert "exactly one" in str(err.value)


# ----------------------------------------------------------------------
# Round trip: emit -> parse is bit-exact
# ----------------------------------------------------------------------
def _round_trip_cases():
    yield load_bench(FIXTURE_DIR / "c17.bench")
    yield load_yosys_json(FIXTURE_DIR / "adder4_mapped.json")
    for seed in (7, 19):
        yield random_logic_block(
            f"rl{seed}", n_gates=80, depth=9, n_inputs=6, n_outputs=4, seed=seed
        )
    yield scale_logic_block("scale", 400, seed=5)


@pytest.mark.parametrize("fmt", ["bench", "yosys"])
def test_round_trip_bit_identical(fmt):
    for netlist in _round_trip_cases():
        netlist.auto_place()
        if fmt == "bench":
            reparsed = parse_bench(write_bench(netlist), netlist.name)
        else:
            reparsed = parse_yosys_json(write_yosys_json(netlist))
        assert reparsed.topological_order() == netlist.topological_order()
        assert reparsed.primary_inputs == netlist.primary_inputs
        assert reparsed.primary_outputs == netlist.primary_outputs
        assert np.array_equal(reparsed.sizes(), netlist.sizes())
        assert np.array_equal(reparsed.levels(), netlist.levels())
        assert np.array_equal(
            reparsed.load_capacitances(), netlist.load_capacitances()
        )
        # The contract that matters downstream: bit-identical arrivals.
        assert np.array_equal(nominal_arrivals(reparsed), nominal_arrivals(netlist))
        for name in netlist.gates:
            original, back = netlist.gate(name), reparsed.gate(name)
            assert (original.size, original.x, original.y) == (
                back.size,
                back.x,
                back.y,
            )


def test_round_trip_survives_resizing():
    netlist = load_bench(FIXTURE_DIR / "c17.bench")
    rng = np.random.default_rng(3)
    netlist.set_sizes(np.exp(rng.normal(0.3, 0.4, size=netlist.n_gates)))
    reparsed = parse_bench(write_bench(netlist), netlist.name)
    assert np.array_equal(reparsed.sizes(), netlist.sizes())
    assert np.array_equal(nominal_arrivals(reparsed), nominal_arrivals(netlist))


def test_yosys_emitter_is_valid_json_with_netnames():
    netlist = load_bench(FIXTURE_DIR / "c17.bench")
    document = json.loads(write_yosys_json(netlist))
    module = document["modules"]["c17"]
    assert set(module) >= {"ports", "cells", "netnames"}
    assert all("repro_size" in c["attributes"] for c in module["cells"].values())


# ----------------------------------------------------------------------
# Scale generator
# ----------------------------------------------------------------------
def test_scale_generator_deterministic_per_seed():
    first = scale_logic_block("s", 2000, seed=11)
    second = scale_logic_block("s", 2000, seed=11)
    assert write_bench(first) == write_bench(second)
    different = scale_logic_block("s", 2000, seed=12)
    assert write_bench(first) != write_bench(different)


def test_scale_generator_rent_io_counts():
    n_gates = 5000
    netlist = scale_logic_block("rent", n_gates, seed=1)
    external = 2.5 * n_gates**0.6
    assert len(netlist.primary_inputs) == max(4, round(0.6 * external))
    assert len(netlist.primary_outputs) == max(2, round(0.4 * external))


def test_scale_generator_distributions():
    netlist = scale_logic_block("dist", 5000, seed=2)
    # Depth tracks the sublinear profile (2.6 * G^0.22).
    target_depth = 2.6 * 5000**0.22
    assert 0.7 * target_depth <= netlist.logic_depth() <= 1.3 * target_depth
    fanouts = np.array([len(f) for f in netlist.fanout_indices()])
    assert 1.3 <= fanouts.mean() <= 3.0
    # Heavy fanout tail: hub gates collect far more fanout than the mean.
    assert fanouts.max() >= 8 * fanouts.mean()
    coeffs = netlist.cell_coefficients()
    assert 1.5 <= coeffs["n_inputs"].mean() <= 2.6


def test_scale_generator_argument_validation():
    with pytest.raises(ValueError):
        scale_logic_block("x", 8, seed=0)
    with pytest.raises(ValueError):
        scale_logic_block("x", 100, seed=0, rent_exponent=1.5)
    with pytest.raises(ValueError):
        scale_logic_block("x", 100, seed=0, rent_coefficient=-1.0)
    with pytest.raises(ValueError):
        scale_logic_block("x", 100, seed=0, depth=1)


# ----------------------------------------------------------------------
# Pipeline kinds through the Study/Design APIs
# ----------------------------------------------------------------------
def test_pipeline_kinds_registered():
    from repro.api.spec import pipeline_kinds

    assert {"bench", "yosys_json", "scale_logic"} <= set(pipeline_kinds())


def test_kind_requires_exactly_one_source_option():
    from repro import PipelineSpec, Session

    session = Session()
    with pytest.raises(ValueError) as err:
        session.pipeline(PipelineSpec(kind="bench", n_stages=1))
    assert "path" in str(err.value) and "fixture" in str(err.value)
    with pytest.raises(ValueError) as err:
        session.pipeline(
            PipelineSpec(kind="bench", n_stages=1, options={"fixture": "nope"})
        )
    assert "c17.bench" in str(err.value)


def test_bench_kind_runs_all_backends():
    from repro import AnalysisSpec, PipelineSpec, Session, StudySpec, VariationSpec

    session = Session()
    pipeline = PipelineSpec(kind="bench", n_stages=2, options={"fixture": "c17"})
    reports = {}
    for backend in ("montecarlo", "ssta", "analytic"):
        spec = StudySpec(
            pipeline=pipeline,
            variation=VariationSpec.combined(),
            analysis=AnalysisSpec(n_samples=300, seed=9, backend=backend),
        )
        report = session.run(spec)
        assert report.pipeline_mean > 0
        reports[backend] = report
    # Backends agree on the mean to first order.
    mc, ssta = reports["montecarlo"], reports["ssta"]
    assert abs(ssta.pipeline_mean - mc.pipeline_mean) < 0.1 * mc.pipeline_mean


def test_register_only_bench_runs_all_backends(tmp_path):
    """A register-only design is a stage with no gates: every backend answers
    it with the register overhead alone."""
    from repro import AnalysisSpec, PipelineSpec, Session, StudySpec, VariationSpec

    path = tmp_path / "register_only.bench"
    path.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a)\n")
    pipeline = PipelineSpec(kind="bench", n_stages=1, options={"path": str(path)})
    session = Session()
    assert session.pipeline(pipeline).stages[0].netlist.n_gates == 0
    reports = {}
    for backend in ("montecarlo", "ssta", "analytic"):
        spec = StudySpec(
            pipeline=pipeline,
            variation=VariationSpec.combined(),
            analysis=AnalysisSpec(n_samples=300, seed=9, backend=backend),
        )
        reports[backend] = session.run(spec)
        assert reports[backend].pipeline_mean > 0
    mc, ssta = reports["montecarlo"], reports["ssta"]
    assert ssta.stage_means[0] == pytest.approx(mc.stage_means[0], rel=0.05)


def test_yosys_kind_design_study():
    from repro import (AnalysisSpec, DesignSpec, DesignStudySpec, PipelineSpec,
                      Session, VariationSpec)

    spec = DesignStudySpec(
        pipeline=PipelineSpec(
            kind="yosys_json", n_stages=2, options={"fixture": "adder4_mapped"}
        ),
        variation=VariationSpec.combined(),
        design=DesignSpec(optimizer="balanced", sizer="greedy",
                          sizer_options={"max_moves": 100}, yield_target=0.85,
                          delay_policy="stage_min", delay_scale=0.9,
                          curve_points=2),
        validation=AnalysisSpec(n_samples=200, seed=13),
    )
    report = Session().run(spec)
    assert report.total_area > 0
    assert type(report).from_json(report.to_json()) == report


def test_scale_kind_spec_round_trips():
    from repro import PipelineSpec

    spec = PipelineSpec(
        kind="scale_logic", n_stages=2, options={"n_gates": 200, "seed": 3}
    )
    assert PipelineSpec.from_json(spec.to_json()) == spec
    built = spec.build()
    assert len(built.stages) == 2
    assert built.stages[0].netlist.n_gates == 200


def test_register_pipeline_kind_idempotent_for_same_factory():
    from repro.api.spec import register_pipeline_kind

    def factory(spec, technology):  # pragma: no cover - never built
        raise AssertionError

    register_pipeline_kind("ingest-test-kind", factory)
    # Same factory again: a no-op, not an error (module re-import case).
    register_pipeline_kind("ingest-test-kind", factory)

    def other(spec, technology):  # pragma: no cover - never built
        raise AssertionError

    with pytest.raises(ValueError) as err:
        register_pipeline_kind("ingest-test-kind", other)
    assert "different" in str(err.value)
    register_pipeline_kind("ingest-test-kind", other, replace=True)


def test_netlist_copy_preserves_file_order():
    netlist = load_yosys_json(FIXTURE_DIR / "adder4_mapped.json")
    clone = netlist.copy()
    assert clone.topological_order() == netlist.topological_order()
    assert np.array_equal(
        clone.load_capacitances(), netlist.load_capacitances()
    )


# ----------------------------------------------------------------------
# Exact scale-generator output
# ----------------------------------------------------------------------
#: SHA-256 of write_bench(scale_logic_block(...)), recorded from the
#: gate-at-a-time generator this vectorised one replaced.
SCALE_DIGESTS = [
    ("scale", 400, 5, {}, "900e8ec26ee7510d66655fc5ec384bda32ce5cd681f10fd0364318b29598b97d"),
    ("scale", 5000, 2, {}, "f76cd7ab64941f7ffcf5da7964912ac1b455590bea8ed8603915a6e5ff49fc6c"),
    (
        "knobs", 6000, 9,
        {"depth": 13, "locality": 0.6, "hub_fraction": 0.9, "hub_bias": 0.4,
         "rent_exponent": 0.5, "rent_coefficient": 3.5},
        "eec508a21feddd204edd9b8bcf53b709aacd362c2146508f525b6bb1be170ce1",
    ),
]


@pytest.mark.parametrize("name, n_gates, seed, knobs, digest", SCALE_DIGESTS)
def test_scale_generator_exact_output(name, n_gates, seed, knobs, digest):
    text = write_bench(scale_logic_block(name, n_gates, seed=seed, **knobs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ----------------------------------------------------------------------
# Parser fuzzing: parse, or raise a typed, located error
# ----------------------------------------------------------------------
_FUZZ = settings(max_examples=150, deadline=5000)
_C17_LINES = (FIXTURE_DIR / "c17.bench").read_text().splitlines()
_ADDER4 = json.loads((FIXTURE_DIR / "adder4_mapped.json").read_text())
_NET = st.text("abcxyz0123456789_", min_size=1, max_size=6)


def assert_parses_or_raises_located(parse, data):
    try:
        netlist = parse(data)
    except ParseError:
        return
    except NetlistError as err:
        assert err.gate is not None, err
        if "never defined" in err.message:
            assert err.net is not None, err
        return
    netlist.timing_schedule()


@st.composite
def mutated_bench(draw):
    lines = list(_C17_LINES)
    for _ in range(draw(st.integers(1, 4))):
        index = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(
            ["drop", "duplicate", "rename", "self", "later", "undefined", "cell",
             "function", "pragma", "garbage"]
        ))
        match = re.match(r"^(\w+) = (\w+)\((.*)\)$", lines[index])
        if kind == "drop":
            del lines[index]
        elif kind == "duplicate":
            lines.insert(index, lines[index])
        elif kind == "garbage":
            lines[index] = draw(st.text(max_size=30))
        elif match:
            out, func, args = match.group(1), match.group(2), match.group(3).split(", ")
            pin = draw(st.integers(0, len(args) - 1))
            if kind == "rename":
                out = draw(_NET)
            elif kind == "self":
                args[pin] = out
            elif kind == "later":
                later = [m.group(1) for m in map(re.compile(r"^(\w+) =").match, lines[index:]) if m]
                args[pin] = draw(st.sampled_from(later))
            elif kind == "undefined":
                args[pin] = draw(_NET)
            elif kind == "function":
                func = draw(st.sampled_from(
                    ["NOT", "BUF", "AND", "OR", "XOR", "NOR", "AOI21", "OAI21", "DFF"]
                ))
                args = draw(st.lists(st.sampled_from(args + ["1", "2"]), min_size=1, max_size=6))
            elif kind == "cell":
                func = draw(st.text("ABCDNORTX0123", min_size=1, max_size=6))
            lines[index] = f"{out} = {func}({', '.join(args)})"
            if kind == "pragma":
                lines[index] += f"  # @size={draw(st.sampled_from(['0x1p+0', '-0x1p+0', '0x0p+0', 'zz', 'nan', '']))}"
        if not lines:
            break
    return "\n".join(lines)


@st.composite
def mutated_yosys(draw):
    document = json.loads(json.dumps(_ADDER4))
    cells = document["modules"]["adder4"]["cells"]
    for _ in range(draw(st.integers(1, 4))):
        if not cells:
            break
        name = draw(st.sampled_from(sorted(cells)))
        cell = cells[name]
        inputs = [pin for pin, way in cell["port_directions"].items() if way == "input"]
        output = next(pin for pin, way in cell["port_directions"].items() if way == "output")
        kind = draw(st.sampled_from(["drop", "duplicate", "rename", "self", "undefined", "cell"]))
        if kind == "drop":
            del cells[name]
        elif kind == "duplicate":
            cells[name + "_dup"] = json.loads(json.dumps(cell))
        elif kind == "rename":
            cell["connections"][output] = [draw(st.integers(100, 120))]
        elif kind == "self" and inputs:
            cell["connections"][draw(st.sampled_from(inputs))] = cell["connections"][output]
        elif kind == "undefined" and inputs:
            cell["connections"][draw(st.sampled_from(inputs))] = [draw(st.integers(100, 120))]
        elif kind == "cell":
            cell["type"] = draw(st.text(max_size=12))
    return document


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@pytest.mark.parametrize(
    "text",
    [
        "INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n",  # once looped forever
        "INPUT(a)\ny = NOT(a)  # @size=zz\n",
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\ny = AOI21(a, b, c, d)\n",
        "INPUT(a)\ny = NOT(y)\n",
    ],
)
def test_malformed_bench_regressions(text):
    assert_parses_or_raises_located(parse_bench, text)


@given(mutated_bench())
@_FUZZ
def test_fuzz_mutated_bench(text):
    assert_parses_or_raises_located(parse_bench, text)


@given(st.text(max_size=200))
@_FUZZ
def test_fuzz_arbitrary_bench_text(text):
    assert_parses_or_raises_located(parse_bench, text)


@given(mutated_yosys())
@_FUZZ
def test_fuzz_mutated_yosys(document):
    assert_parses_or_raises_located(parse_yosys_json, json.dumps(document))


@given(st.one_of(
    _JSON,
    st.fixed_dictionaries({"modules": _JSON}),
    st.fixed_dictionaries({"modules": st.fixed_dictionaries({"m": st.fixed_dictionaries(
        {"ports": _JSON, "cells": _JSON, "netnames": _JSON})})}),
))
@_FUZZ
def test_fuzz_arbitrary_yosys_json(document):
    assert_parses_or_raises_located(parse_yosys_json, json.dumps(document))
