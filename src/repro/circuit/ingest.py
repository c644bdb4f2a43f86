"""External netlist ingestion and a Rent's-rule scale generator.

Everything the rest of the stack analyses is a :class:`repro.circuit.Netlist`;
until now every one of them came from a built-in generator.  This module
opens the front door:

* :func:`parse_bench` / :func:`load_bench` -- ISCAS85-style ``.bench``
  netlists, in both the classic ``y = NAND(a, b)`` statement form and the
  ``NAND2_17 (out, in...)`` instance form used by gate-sizing tools.
* :func:`parse_yosys_json` / :func:`load_yosys_json` -- Yosys ``write_json``
  output for a mapped design (``modules`` -> ``ports``/``cells`` with
  ``connections`` bit vectors), e.g. a sky130-mapped synthesis result.
* :func:`write_bench` / :func:`write_yosys_json` -- the emitters.  Both
  carry ``float.hex()`` pragmas for sizes/placement, so *emit -> parse* is a
  bit-exact round trip: the reconstructed netlist produces byte-identical
  timing schedules and arrival times (the ``parser-round-trip`` conformance
  oracle holds this contract).
* :func:`scale_logic_block` -- a Rent's-rule-flavoured synthetic generator
  with realistic fanout/depth distributions, usable at 100k-1M gates
  (``benchmarks/bench_scale.py`` tracks compile time / peak RSS / MC
  throughput against it).

Cell mapping policy
-------------------
External cell types are normalised (library prefixes such as
``sky130_fd_sc_hd__`` and drive-strength suffixes such as ``_2``/``x4`` are
stripped; Yosys internal ``$_NAND_`` forms are unwrapped) and resolved
against the logical-effort library through :class:`CellMapping`.  Gate
functions the library lacks are *structurally* approximated -- ``AND``/``OR``
map to ``NAND``/``NOR`` (the timing substrate only consumes topology, loads
and drive strengths, never Boolean values), and functions wider than the
library's widest cell are decomposed into balanced trees of library cells
(helper gates are named ``<gate>__t<i>``).  Sequential cells (DFFs,
latches) are cut at the register boundary exactly like the pipeline model
assumes: the D-pin driver becomes a primary output and the Q net becomes a
primary input of the combinational block.  Unknown cell types follow an
explicit policy: ``unknown_cell="error"`` (the default) raises a located
:class:`ParseError`; ``unknown_cell="fallback"`` substitutes the arity-
matched NAND/INV and records the substitution on the mapping.

Parsed designs enter the Study/Design stack through three registered
:class:`~repro.api.spec.PipelineSpec` kinds -- ``"bench"``, ``"yosys_json"``
and ``"scale_logic"`` -- so an external netlist is just another frozen,
JSON-round-trippable spec flowing through ``Session``/``run_sweep``/
``run_conformance``/``repro.serve`` unchanged.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.circuit.cell_library import CellLibrary
from repro.circuit.netlist import Netlist
from repro.process.technology import Technology

#: Committed example netlists, shipped with the package so specs can refer
#: to them portably (``options={"fixture": "c17"}``) without absolute paths.
FIXTURE_DIR = pathlib.Path(__file__).resolve().parent / "fixtures"


class ParseError(ValueError):
    """A malformed external netlist, located at its source line.

    ``source`` is the file name (or ``"<string>"``), ``line`` the 1-based
    line number when known.
    """

    def __init__(
        self,
        message: str,
        *,
        source: str = "<string>",
        line: int | None = None,
    ) -> None:
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.source = source
        self.line = line


# ----------------------------------------------------------------------
# Cell-type mapping
# ----------------------------------------------------------------------
#: Gate families the library can realise, by arity.  ``AND``/``OR`` map to
#: their inverting counterparts: the timing substrate never evaluates
#: Boolean functions, so only topology/arity/drive matter.
_FAMILIES: dict[str, dict[int, str]] = {
    "inv": {1: "INV"},
    "not": {1: "INV"},
    "buf": {1: "BUF"},
    "buff": {1: "BUF"},
    "nand": {2: "NAND2", 3: "NAND3", 4: "NAND4"},
    "and": {2: "NAND2", 3: "NAND3", 4: "NAND4"},
    "nor": {2: "NOR2", 3: "NOR3"},
    "or": {2: "NOR2", 3: "NOR3"},
    "xor": {2: "XOR2"},
    "xnor": {2: "XNOR2"},
    "aoi21": {3: "AOI21"},
    "a21oi": {3: "AOI21"},
    "oai21": {3: "OAI21"},
    "o21ai": {3: "OAI21"},
    "nand2": {2: "NAND2"},
    "nand3": {3: "NAND3"},
    "nand4": {4: "NAND4"},
    "and2": {2: "NAND2"},
    "and3": {3: "NAND3"},
    "and4": {4: "NAND4"},
    "nor2": {2: "NOR2"},
    "nor3": {3: "NOR3"},
    "or2": {2: "NOR2"},
    "or3": {3: "NOR3"},
    "xor2": {2: "XOR2"},
    "xnor2": {2: "XNOR2"},
}

#: Normalised cell types treated as sequential elements (register cut).
_REGISTER_RE = re.compile(r"^(s?dff|dfxtp|dfrtp|dfstp|dfbbp|dlxtp|.?latch)")

#: Clock/scan/enable pins of *sequential* cells (never combinational data).
_SEQUENTIAL_CONTROL_PINS = frozenset(
    {"CLK", "CLK_N", "C", "G", "GATE", "GATE_N", "E", "EN", "SET_B", "RESET_B",
     "SCD", "SCE", "SLEEP", "NOTIFIER"}
)

#: Power/bulk pins, ignored on every cell.
_POWER_PINS = frozenset({"VGND", "VNB", "VPB", "VPWR", "VDD", "VSS", "GND"})

#: Output pin names used by common mapped libraries (sky130 XOR uses ``X``).
_OUTPUT_PINS = ("Y", "X", "Z", "Q", "OUT", "ZN")

_YOSYS_INTERNAL_RE = re.compile(r"^\$_([A-Za-z0-9]+?)(?:_[PNpn01]+)*_$")
_DRIVE_SUFFIX_RE = re.compile(r"_(?:\d+|x\d+|m\d+|lp\d*|hv\d*)$")


def normalise_cell_type(raw: str) -> str:
    """Reduce an external cell-type name to its gate-family key.

    ``sky130_fd_sc_hd__nand2_4`` -> ``nand2``; ``$_DFF_P_`` -> ``dff``;
    ``NAND`` -> ``nand``.
    """
    text = raw.strip()
    match = _YOSYS_INTERNAL_RE.match(text)
    if match:
        text = match.group(1)
    text = text.lower()
    if "__" in text:
        text = text.rsplit("__", 1)[1]
    text = _DRIVE_SUFFIX_RE.sub("", text)
    return text


@dataclass
class CellMapping:
    """Policy for resolving external cell types onto the library.

    Parameters
    ----------
    table:
        Extra ``normalised type -> family`` entries layered over the
        built-in family table (values must be keys of the built-in table or
        library cell names).
    unknown_cell:
        ``"error"`` (default) raises :class:`ParseError` on a cell type with
        no mapping; ``"fallback"`` substitutes the arity-matched inverting
        gate (1 input -> INV, 2 -> NAND2, 3 -> NAND3, 4 -> NAND4) and
        records the substitution in :attr:`fallbacks`.
    """

    table: Mapping[str, str] = field(default_factory=dict)
    unknown_cell: str = "error"
    fallbacks: dict[str, str] = field(default_factory=dict)

    _ARITY_FALLBACK = {1: "INV", 2: "NAND2", 3: "NAND3", 4: "NAND4"}

    def __post_init__(self) -> None:
        if self.unknown_cell not in ("error", "fallback"):
            raise ValueError(
                f"unknown_cell must be 'error' or 'fallback', "
                f"got {self.unknown_cell!r}"
            )

    def is_register(self, raw: str) -> bool:
        """Whether a cell type is a sequential element (register cut)."""
        return _REGISTER_RE.match(normalise_cell_type(raw)) is not None

    def family(
        self,
        raw: str,
        library: CellLibrary,
        *,
        source: str = "<string>",
        line: int | None = None,
    ) -> dict[int, str]:
        """Arity -> library-cell map for an external cell type."""
        key = normalise_cell_type(raw)
        mapped = self.table.get(key, key)
        if mapped in _FAMILIES:
            return _FAMILIES[mapped]
        if mapped.upper() in library:
            cell = library[mapped.upper()]
            return {cell.n_inputs: mapped.upper()}
        if self.unknown_cell == "fallback":
            self.fallbacks[raw] = "arity-matched NAND/INV"
            return dict(self._ARITY_FALLBACK)
        raise ParseError(
            f"unknown cell type {raw!r} (normalised {key!r}); known families: "
            f"{sorted(_FAMILIES)}; pass CellMapping(unknown_cell='fallback') "
            f"to substitute arity-matched gates, or extend CellMapping.table",
            source=source,
            line=line,
        )


def _add_mapped_gate(
    netlist: Netlist,
    mapping: CellMapping,
    name: str,
    raw_type: str,
    fanins: list[str],
    *,
    size: float = 1.0,
    x: float = 0.5,
    y: float = 0.5,
    source: str = "<string>",
    line: int | None = None,
) -> None:
    """Add one external gate, decomposing wide functions into cell trees."""
    family = mapping.family(raw_type, netlist.library, source=source, line=line)
    if not fanins:
        raise ParseError(
            f"gate {name!r} ({raw_type}) has no fanins", source=source, line=line
        )
    if len(fanins) == 1 and 1 not in family:
        # A 1-input AND/OR/... degenerates to a buffer.
        family = {1: "BUF"}
    widest = max(family)
    if min(family) > len(fanins) > 1:
        raise ParseError(
            f"gate {name!r}: cell {raw_type!r} needs at least {min(family)} "
            f"fanins, got {len(fanins)}",
            source=source,
            line=line,
        )
    if widest == 1 and len(fanins) > 1:
        raise ParseError(
            f"gate {name!r}: cell {raw_type!r} takes one fanin, got {len(fanins)}",
            source=source,
            line=line,
        )
    # Balanced tree reduction: chunk the pending signals into groups of at
    # most `widest`, realise each group as one library gate, repeat.  Only
    # the final gate keeps `name`; helpers are `name__t<i>`.
    pending = list(fanins)
    helper = 0
    while True:
        if len(pending) <= widest:
            cell = family.get(len(pending))
            if cell is None and len(pending) > 2:
                # e.g. 3 signals left but the family only has arity 2 (or
                # only arity 3, like AOI21): peel one pair off with the
                # family's pair cell -- NAND2 when it has none -- and come
                # around again; a last pair is the gate itself.
                chunk, pending = pending[:2], pending[2:]
                helper_name = f"{name}__t{helper}"
                helper += 1
                netlist.add_gate(
                    helper_name, family.get(2, "NAND2"), chunk, size=size,
                    x=x, y=y, allow_forward=True,
                )
                pending.insert(0, helper_name)
                continue
            netlist.add_gate(
                name, cell or family.get(2, "NAND2"), pending, size=size, x=x,
                y=y, allow_forward=True,
            )
            return
        chunk, pending = pending[:widest], pending[widest:]
        helper_name = f"{name}__t{helper}"
        helper += 1
        netlist.add_gate(
            helper_name, family[widest], chunk, size=size, x=x, y=y,
            allow_forward=True,
        )
        pending.append(helper_name)


# ----------------------------------------------------------------------
# .bench parsing / emission
# ----------------------------------------------------------------------
_BENCH_ASSIGN_RE = re.compile(
    r"^(?P<out>[\w.\[\]$]+)\s*=\s*(?P<func>[\w$]+)\s*\((?P<args>[^)]*)\)$"
)
_BENCH_INSTANCE_RE = re.compile(
    r"^(?P<type>[A-Za-z]+\d*)_(?P<index>\w+)\s*\((?P<args>[^)]*)\)$"
)
_BENCH_IO_RE = re.compile(r"^(?P<dir>INPUT|OUTPUT)\s*\((?P<net>[^)]+)\)$", re.I)
_PRAGMA_RE = re.compile(r"@(?P<key>\w+)=(?P<value>\S+)")


def _hex_float(text: str, what: str, *, source: str, line: int | None = None) -> float:
    """A ``float.hex()`` value from a pragma or attribute, or a located error."""
    try:
        return float.fromhex(text)
    except ValueError:
        raise ParseError(
            f"{what} {text!r} is not a float.hex() value", source=source, line=line
        ) from None


def _parse_pragmas(comment: str, *, source: str, line: int) -> dict[str, float]:
    return {
        m.group("key"): _hex_float(
            m.group("value"), f"pragma @{m.group('key')}", source=source, line=line
        )
        for m in _PRAGMA_RE.finditer(comment)
    }


def parse_bench(
    text: str,
    name: str = "bench",
    *,
    library: CellLibrary | None = None,
    technology: Technology | None = None,
    cell_mapping: CellMapping | None = None,
    source: str = "<string>",
) -> Netlist:
    """Parse an ISCAS85-style ``.bench`` netlist into a :class:`Netlist`.

    Two statement forms are accepted (they may be mixed):

    * classic: ``y = NAND(a, b)`` with ``INPUT(x)`` / ``OUTPUT(y)``
      declarations -- function arity selects the library cell;
    * instance: ``NAND2_17 (out, in1, in2)`` as used by gate-sizing tools
      (the first parenthesised net is the output).

    ``# @size=<hex> @x=<hex> @y=<hex>`` pragmas on a gate line restore
    bit-exact sizes/placement (what :func:`write_bench` emits); ``DFF``
    statements are cut at the register boundary.  Structural problems raise
    :class:`ParseError` (format level) or a located
    :class:`~repro.circuit.netlist.NetlistError` (dangling nets, duplicate
    gates, cycles -- checked eagerly at end of parse).
    """
    mapping = cell_mapping if cell_mapping is not None else CellMapping()
    netlist = Netlist(name, library=library, technology=technology)
    outputs: list[tuple[str, int]] = []
    register_q: list[tuple[str, str, int]] = []  # (q net, d net, line)
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line, _, comment = raw_line.partition("#")
        line = line.strip()
        if not line:
            continue
        pragmas = _parse_pragmas(comment, source=source, line=line_no)
        io_match = _BENCH_IO_RE.match(line)
        if io_match:
            net = io_match.group("net").strip()
            if io_match.group("dir").upper() == "INPUT":
                netlist.add_primary_input(net)
            else:
                outputs.append((net, line_no))
            continue
        assign = _BENCH_ASSIGN_RE.match(line)
        if assign:
            out = assign.group("out").strip()
            func = assign.group("func")
            fanins = [a.strip() for a in assign.group("args").split(",") if a.strip()]
        else:
            instance = _BENCH_INSTANCE_RE.match(line)
            if instance is None:
                raise ParseError(
                    f"unrecognised statement {line!r}", source=source, line=line_no
                )
            func = instance.group("type")
            nets = [a.strip() for a in instance.group("args").split(",") if a.strip()]
            if len(nets) < 2:
                raise ParseError(
                    f"instance {line!r} needs an output and at least one input",
                    source=source,
                    line=line_no,
                )
            out, fanins = nets[0], nets[1:]
        if mapping.is_register(func):
            if len(fanins) != 1:
                raise ParseError(
                    f"register {out!r} must have exactly one data fanin, "
                    f"got {fanins}",
                    source=source,
                    line=line_no,
                )
            register_q.append((out, fanins[0], line_no))
            continue
        _add_mapped_gate(
            netlist,
            mapping,
            out,
            func,
            fanins,
            size=pragmas.get("size", 1.0),
            x=pragmas.get("x", 0.5),
            y=pragmas.get("y", 0.5),
            source=source,
            line=line_no,
        )
    _finish_parsed(netlist, outputs, register_q, source=source)
    return netlist


def _finish_parsed(
    netlist: Netlist,
    outputs: list[tuple[str, int]],
    register_q: list[tuple[str, str, int]],
    *,
    source: str,
) -> None:
    """Apply register cuts and output marks, then validate structure."""
    # Register cut: the Q net becomes a primary input of the combinational
    # block; the D driver becomes a primary output (if it is a gate).
    for q_net, d_net, line_no in register_q:
        if q_net in netlist.gates or q_net in netlist.primary_inputs:
            raise ParseError(
                f"register output {q_net!r} collides with an existing node",
                source=source,
                line=line_no,
            )
        netlist.add_primary_input(q_net)
    cut_nets = {q_net for q_net, _, _ in register_q}
    for _, d_net, _ in register_q:
        if d_net in netlist.gates:
            netlist.mark_primary_output(d_net)
    for net, line_no in outputs:
        if net in netlist.gates:
            netlist.mark_primary_output(net)
        elif net in cut_nets:
            # An output port driven by a register Q: the port belongs to the
            # next pipeline stage; the D driver is already a primary output.
            continue
        elif net in netlist.primary_inputs:
            # A primary input wired straight to an output pin: model the
            # output driver explicitly so the PO is a gate, as the timing
            # substrate expects.
            netlist.add_gate(f"{net}__po", "BUF", [net])
            netlist.mark_primary_output(f"{net}__po")
        else:
            raise ParseError(
                f"OUTPUT({net}) references an undefined net",
                source=source,
                line=line_no,
            )
    if not netlist.primary_outputs:
        # No OUTPUT declarations (common in instance-form files): every gate
        # nothing reads is an implicit primary output.
        fanout_counts: dict[str, int] = {g: 0 for g in netlist.gates}
        for gate in netlist.gates.values():
            for fanin in gate.fanins:
                if fanin in fanout_counts:
                    fanout_counts[fanin] += 1
        for gate_name, count in fanout_counts.items():
            if count == 0:
                netlist.mark_primary_output(gate_name)
    netlist.validate()


def load_bench(
    path: str | pathlib.Path,
    name: str | None = None,
    **kwargs: Any,
) -> Netlist:
    """Parse a ``.bench`` file from disk (see :func:`parse_bench`)."""
    path = pathlib.Path(path)
    return parse_bench(
        path.read_text(),
        name if name is not None else path.stem,
        source=str(path),
        **kwargs,
    )


def write_bench(netlist: Netlist, *, pragmas: bool = True) -> str:
    """Emit a netlist as ``.bench`` text.

    With ``pragmas=True`` (default) each gate line carries
    ``# @size/@x/@y`` ``float.hex()`` pragmas, making
    ``parse_bench(write_bench(n))`` a bit-exact structural round trip.
    Gates are emitted in *insertion* order, not topological order: the
    topological tie-break (and with it the floating-point summation order
    of fanout loads) depends on insertion order, so preserving it is what
    makes the round trip byte-identical rather than merely equivalent.
    """
    lines = [f"# {netlist.name} ({netlist.n_gates} gates)"]
    for pi in netlist.primary_inputs:
        lines.append(f"INPUT({pi})")
    for po in netlist.primary_outputs:
        lines.append(f"OUTPUT({po})")
    for gate in netlist.gates.values():
        args = ", ".join(gate.fanins)
        tail = ""
        if pragmas:
            tail = (
                f"  # @size={float(gate.size).hex()}"
                f" @x={float(gate.x).hex()} @y={float(gate.y).hex()}"
            )
        lines.append(f"{gate.name} = {gate.cell}({args}){tail}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Yosys JSON parsing / emission
# ----------------------------------------------------------------------
#: The JSON type name and the empty value of each Yosys-document field kind.
_JSON_KINDS: dict[type, tuple[str, Any]] = {Mapping: ("object", {}), list: ("array", []), str: ("string", "")}


def _json_field(container: Any, key: str | None, kind: type, what: str, source: str) -> Any:
    """``container[key]`` of a Yosys document, checked to be a ``kind``.

    An absent key reads as the empty ``kind``; ``key=None`` checks
    ``container`` itself.  A value of the wrong JSON type raises a
    :class:`ParseError` naming ``what``.
    """
    expected, empty = _JSON_KINDS[kind]
    if key is None:
        value = container
    elif isinstance(container, Mapping):
        value = container.get(key, empty)
        what = f"{what} field {key!r}"
    else:
        value, kind, expected = container, Mapping, "object"
    if not isinstance(value, kind):
        raise ParseError(
            f"{what} must be a JSON {expected}, got {type(value).__name__}",
            source=source,
        )
    return value


def parse_yosys_json(
    data: str | Mapping[str, Any],
    module: str | None = None,
    *,
    library: CellLibrary | None = None,
    technology: Technology | None = None,
    cell_mapping: CellMapping | None = None,
    source: str = "<string>",
) -> Netlist:
    """Parse Yosys ``write_json`` output for a mapped design.

    ``data`` is the JSON text or the already-decoded document.  ``module``
    selects the module to ingest; by default the single non-blackbox module
    (an error lists the candidates when there are several).  Net bits become
    net names (port names where a port drives them, ``n<bit>`` otherwise),
    each cell becomes the gate driving its output net, DFF/latch cells are
    cut at the register boundary, and constant bits (``"0"``/``"1"``/
    ``"x"``) become synthetic ``const0``/``const1``/``constx`` primary
    inputs.  ``repro_size``/``repro_x``/``repro_y`` cell attributes (emitted
    by :func:`write_yosys_json` as ``float.hex()``) restore exact
    sizes/placement.
    """
    if isinstance(data, str):
        try:
            document = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", source=source) from exc
    else:
        document = data
    if not isinstance(document, Mapping):
        raise ParseError("document is not a JSON object", source=source)
    modules = document.get("modules")
    if not isinstance(modules, Mapping) or not modules:
        raise ParseError("document has no 'modules'", source=source)
    for name, body in modules.items():
        _json_field(body, None, Mapping, f"module {name!r}", source)
    if module is None:
        candidates = [
            name
            for name, body in modules.items()
            if not _json_field(body, "attributes", Mapping, f"module {name!r}", source).get(
                "blackbox"
            )
        ]
        if len(candidates) != 1:
            raise ParseError(
                f"document has {len(candidates)} candidate modules "
                f"({sorted(candidates)}); pass module=...",
                source=source,
            )
        module = candidates[0]
    if module not in modules:
        raise ParseError(
            f"no module {module!r}; available: {sorted(modules)}", source=source
        )
    body = modules[module]
    mapping = cell_mapping if cell_mapping is not None else CellMapping()
    netlist = Netlist(module, library=library, technology=technology)

    # Friendly names for bits: ports first, then named nets; anonymous bits
    # fall back to n<bit>.
    bit_names: dict[int, str] = {}
    ports = _json_field(body, "ports", Mapping, "module", source)
    netnames = _json_field(body, "netnames", Mapping, "module", source)
    for section in (ports, netnames):
        for entry_name, entry in section.items():
            bits = _json_field(entry, "bits", list, f"net {entry_name!r}", source)
            for position, bit in enumerate(bits):
                if isinstance(bit, int) and bit not in bit_names:
                    suffix = "" if len(bits) == 1 else f"{position}"
                    bit_names[bit] = f"{entry_name}{suffix}"

    constants: dict[str, str] = {}

    def net_of(bit: Any) -> str:
        if isinstance(bit, str):  # constant bit "0" / "1" / "x"
            name = f"const{bit}"
            if name not in constants:
                constants[name] = name
                netlist.add_primary_input(name)
            return name
        if not isinstance(bit, int):
            raise ParseError(
                f"net bit {bit!r} is neither an integer nor a constant", source=source
            )
        return bit_names.get(bit, f"n{bit}")

    for port_name, port in ports.items():
        if port.get("direction") == "input":
            for bit in port.get("bits", []):
                pi = net_of(bit)
                if pi not in netlist.primary_inputs:
                    netlist.add_primary_input(pi)

    register_q: list[tuple[str, str]] = []  # (q net, d net)
    output_bits: list[str] = []
    for port_name, port in ports.items():
        if port.get("direction") == "output":
            output_bits.extend(net_of(bit) for bit in port.get("bits", []))

    cells = _json_field(body, "cells", Mapping, "module", source)
    for cell_name, cell in cells.items():
        what = f"cell {cell_name!r}"
        cell_type = _json_field(cell, "type", str, what, source)
        connections = _json_field(cell, "connections", Mapping, what, source)
        directions = _json_field(cell, "port_directions", Mapping, what, source)
        attributes = _json_field(cell, "attributes", Mapping, what, source)
        is_register = mapping.is_register(cell_type)
        out_nets: list[str] = []
        in_pins: list[tuple[str, list[str]]] = []
        for pin, bits in connections.items():
            pin_upper = pin.upper()
            if directions:
                is_output = directions.get(pin) == "output"
            else:
                is_output = pin_upper in _OUTPUT_PINS
            if pin_upper in _POWER_PINS:
                continue
            bits = _json_field(connections, pin, list, f"{what} pin", source)
            nets = [net_of(bit) for bit in bits]
            if is_output:
                out_nets.extend(nets)
            else:
                in_pins.append((pin_upper, nets))
        if is_register:
            d_nets = [
                net
                for pin, nets in in_pins
                for net in nets
                if pin not in _SEQUENTIAL_CONTROL_PINS
            ]
            if len(out_nets) != 1 or len(d_nets) != 1:
                raise ParseError(
                    f"register cell {cell_name!r} ({cell_type}) must have one "
                    f"data input and one output, got D={d_nets} Q={out_nets}",
                    source=source,
                )
            register_q.append((out_nets[0], d_nets[0]))
            continue
        in_nets = [net for _, nets in in_pins for net in nets]
        if len(out_nets) != 1:
            raise ParseError(
                f"cell {cell_name!r} ({cell_type}) must drive exactly one "
                f"output net, got {out_nets} (multi-output cells are not "
                f"supported)",
                source=source,
            )
        placement = {
            key: _hex_float(value, f"{what} attribute {key}", source=source)
            for key, value in attributes.items()
            if key in ("repro_size", "repro_x", "repro_y") and isinstance(value, str)
        }
        _add_mapped_gate(
            netlist,
            mapping,
            out_nets[0],
            cell_type,
            in_nets,
            size=placement.get("repro_size", 1.0),
            x=placement.get("repro_x", 0.5),
            y=placement.get("repro_y", 0.5),
            source=source,
        )

    outputs = [(net, 0) for net in output_bits]
    _finish_parsed(
        netlist, outputs, [(q, d, 0) for q, d in register_q], source=source
    )
    return netlist


def load_yosys_json(
    path: str | pathlib.Path,
    module: str | None = None,
    **kwargs: Any,
) -> Netlist:
    """Parse a Yosys JSON file from disk (see :func:`parse_yosys_json`)."""
    path = pathlib.Path(path)
    return parse_yosys_json(
        path.read_text(), module, source=str(path), **kwargs
    )


def write_yosys_json(netlist: Netlist, *, indent: int | None = None) -> str:
    """Emit a netlist as a Yosys-style JSON document.

    Cells carry ``repro_size``/``repro_x``/``repro_y`` ``float.hex()``
    attributes so ``parse_yosys_json(write_yosys_json(n))`` reconstructs
    sizes and placement bit-exactly.
    """
    bit_of: dict[str, int] = {}
    next_bit = 2  # Yosys reserves 0/1 for constants.
    for name in list(netlist.primary_inputs) + list(netlist.gates):
        bit_of[name] = next_bit
        next_bit += 1
    ports: dict[str, Any] = {}
    for pi in netlist.primary_inputs:
        ports[pi] = {"direction": "input", "bits": [bit_of[pi]]}
    for po in netlist.primary_outputs:
        ports[po] = {"direction": "output", "bits": [bit_of[po]]}
    # Every net keeps its name (Yosys `netnames`), so the reparsed gates are
    # named identically; cells are emitted in insertion order for the same
    # reason write_bench is (the topological tie-break depends on it).
    netnames = {
        name: {"bits": [bit], "hide_name": 0} for name, bit in bit_of.items()
    }
    cells: dict[str, Any] = {}
    for name, gate in netlist.gates.items():
        connections: dict[str, list[int]] = {}
        directions: dict[str, str] = {}
        for position, fanin in enumerate(gate.fanins):
            pin = chr(ord("A") + position)
            connections[pin] = [bit_of[fanin]]
            directions[pin] = "input"
        connections["Y"] = [bit_of[name]]
        directions["Y"] = "output"
        cells[name] = {
            "type": gate.cell,
            "port_directions": directions,
            "connections": connections,
            "attributes": {
                "repro_size": float(gate.size).hex(),
                "repro_x": float(gate.x).hex(),
                "repro_y": float(gate.y).hex(),
            },
        }
    document = {
        "creator": "repro.circuit.ingest",
        "modules": {
            netlist.name: {
                "attributes": {},
                "ports": ports,
                "cells": cells,
                "netnames": netnames,
            }
        },
    }
    return json.dumps(document, indent=indent)


# ----------------------------------------------------------------------
# Rent's-rule scale generator
# ----------------------------------------------------------------------
def scale_logic_block(
    name: str,
    n_gates: int,
    seed: int,
    *,
    rent_exponent: float = 0.6,
    rent_coefficient: float = 2.5,
    depth: int | None = None,
    locality: float = 0.35,
    hub_fraction: float = 0.05,
    hub_bias: float = 0.15,
    library: CellLibrary | None = None,
    technology: Technology | None = None,
) -> Netlist:
    """Generate a large levelised random-logic block with realistic shape.

    Designed for the 100k-1M gate range where the hand-tuned
    :func:`~repro.circuit.generators.random_logic_block` becomes both slow
    and structurally unrealistic:

    * **I/O counts follow Rent's rule**: external pins
      ``T = t * G^p`` (``t = rent_coefficient``, ``p = rent_exponent``),
      split 60/40 into primary inputs/outputs -- the empirical law mapped
      netlists obey.
    * **Depth grows sublinearly** with gate count
      (``~2.6 * G^0.22`` by default, overridable via ``depth``), matching
      placed-and-routed block profiles.
    * **Fanout has a heavy tail**: a ``hub_fraction`` of each level's gates
      joins a hub pool that non-local fanins prefer with probability
      ``hub_bias``, producing the few-high-fanout-drivers distribution real
      netlists show, instead of the near-uniform fanout of the small
      generator.
    * **Connections are local**: non-first fanins reach back a
      geometrically distributed number of levels (success probability
      ``locality``), so most wiring is short with occasional long hops.

    Deterministic per ``(name, n_gates, seed, knobs)``.  Each level draws
    its randomness as vectors and picks its fanins from those draws as
    vectors -- integer references to earlier gates' slots or to primary
    inputs -- and the whole block enters the netlist through one
    :meth:`Netlist.add_gates` call, so a 1M-gate block generates in about
    a second.  Placement is assigned directly from (level, position)
    during generation -- identical to :meth:`Netlist.auto_place` -- to
    avoid a second full pass.
    """
    if n_gates < 16:
        raise ValueError(f"scale_logic_block needs n_gates >= 16, got {n_gates}")
    if not 0.0 < rent_exponent < 1.0:
        raise ValueError(f"rent_exponent must be in (0, 1), got {rent_exponent}")
    if rent_coefficient <= 0.0:
        raise ValueError(
            f"rent_coefficient must be positive, got {rent_coefficient}"
        )
    external = rent_coefficient * n_gates**rent_exponent
    n_inputs = max(4, int(round(0.6 * external)))
    n_outputs = max(2, int(round(0.4 * external)))
    if depth is None:
        depth = max(8, int(round(2.6 * n_gates**0.22)))
    if depth < 2:
        raise ValueError(f"depth must be at least 2, got {depth}")
    if n_gates < depth:
        raise ValueError(f"n_gates ({n_gates}) must be >= depth ({depth})")

    rng = np.random.default_rng(seed)
    netlist = Netlist(name, library=library, technology=technology)
    for index in range(n_inputs):
        netlist.add_primary_input(f"pi{index}")

    # Level-size profile: fast ramp-in, long plateau, taper-out -- the
    # "barrel" shape placed netlist level histograms show.
    positions = np.linspace(0.0, 1.0, depth)
    weights = np.minimum(positions / 0.15, 1.0) * np.minimum(
        (1.0 - positions) / 0.25 + 1e-9, 1.0
    ) + 0.05
    weights /= weights.sum()
    level_sizes = np.ones(depth, dtype=np.int64)
    level_sizes += rng.multinomial(n_gates - depth, weights)
    level_start = np.zeros(depth + 1, dtype=np.int64)
    np.cumsum(level_sizes, out=level_start[1:])

    cell_names = ["INV", "NAND2", "NOR2", "NAND3", "NOR3", "AOI21", "OAI21", "XOR2"]
    cell_inputs = np.array([1, 2, 2, 3, 3, 3, 3, 2])
    cell_weights = np.array([0.18, 0.28, 0.22, 0.08, 0.06, 0.07, 0.07, 0.04])
    cell_weights /= cell_weights.sum()
    cell_ids = np.array([netlist.library.cell_id(cell) for cell in cell_names])

    # Fanins are integer references: a gate slot (slot == gate number, as
    # gate g<i> is the i-th added) or ~i for primary input pi<i>.
    level_cells: list[np.ndarray] = []  # indices into cell_names
    level_fanins: list[np.ndarray] = []
    hub_pool = np.zeros(0, dtype=np.int64)  # slots of recent levels' hubs
    for level in range(depth):
        k = int(level_sizes[level])
        cell_idx = rng.choice(len(cell_names), size=k, p=cell_weights)
        pins = cell_inputs[cell_idx]
        n_extra = int(pins.sum()) - k
        # The whole level's draws, in the order the fanins consume them.
        prev_size = int(level_sizes[level - 1]) if level else n_inputs
        first_pick = rng.integers(0, prev_size, size=k)
        back_levels = rng.geometric(locality, size=max(n_extra, 1))[:n_extra]
        from_hub = (rng.random(size=max(n_extra, 1)) < hub_bias)[:n_extra]
        within = rng.random(size=max(n_extra, 1))[:n_extra]

        # First fanin: a gate of the previous level (a primary input on
        # level 0), which pins the block's depth.  Further fanins: a hub,
        # or a gate `back` levels further up, or a primary input when that
        # reaches above the first level.
        if hub_pool.shape[0] == 0:
            from_hub[:] = False
        source_level = level - 1 - back_levels
        from_pis = ~from_hub & (source_level < 0)
        local = ~from_hub & ~from_pis
        pool_size = np.full(n_extra, n_inputs)
        pool_size[from_hub] = hub_pool.shape[0]
        pool_size[local] = level_sizes[source_level[local]]
        pick = (within * pool_size).astype(np.int64)
        extra = ~pick
        extra[from_hub] = hub_pool[pick[from_hub]]
        extra[local] = level_start[source_level[local]] + pick[local]

        fanins = np.empty(k + n_extra, dtype=np.int64)
        row_start = np.cumsum(pins) - pins
        is_first = np.zeros(k + n_extra, dtype=bool)
        is_first[row_start] = True
        fanins[is_first] = level_start[level - 1] + first_pick if level else ~first_pick
        fanins[~is_first] = extra
        level_cells.append(cell_idx)
        level_fanins.append(fanins)

        n_hubs = max(1, int(hub_fraction * k))
        hubs = np.arange(level_start[level], level_start[level] + min(n_hubs, k))
        # Keep the hub pool bounded and biased to recent levels.
        hub_pool = np.concatenate([hub_pool, hubs])[-4096:]

    cell_idx = np.concatenate(level_cells)
    fanin_ptr = np.zeros(n_gates + 1, dtype=np.int64)
    np.cumsum(cell_inputs[cell_idx], out=fanin_ptr[1:])
    names = [f"g{slot}" for slot in range(n_gates)]
    netlist.add_gates(
        names,
        cell_ids[cell_idx],
        fanin_ptr,
        np.concatenate(level_fanins),
        x=np.repeat([(level + 0.5) / depth for level in range(depth)], level_sizes),
        y=np.concatenate([(np.arange(k) + 0.5) / k for k in level_sizes.tolist()]),
    )

    # Primary outputs from the deepest levels.
    chosen: list[int] = []
    for level in reversed(range(depth)):
        start = int(level_start[level])
        take = min(int(level_sizes[level]), n_outputs - len(chosen))
        chosen.extend(range(start, start + take))
        if len(chosen) == n_outputs:
            break
    for slot in chosen:
        netlist.mark_primary_output(names[slot])
    return netlist


# ----------------------------------------------------------------------
# Pipeline-spec kinds
# ----------------------------------------------------------------------
def _single_option(spec, *keys: str) -> str | None:
    options = dict(spec.options)
    for key in keys:
        value = options.get(key)
        if value is not None:
            return str(value)
    return None


def _resolve_path(spec, kind: str) -> pathlib.Path:
    """Resolve a spec's ``path``/``fixture`` option to a file on disk."""
    fixture = _single_option(spec, "fixture")
    explicit = _single_option(spec, "path")
    if (fixture is None) == (explicit is None):
        raise ValueError(
            f"pipeline kind {kind!r} needs exactly one of options "
            f"'path' (a filesystem path) or 'fixture' (a name under "
            f"{FIXTURE_DIR}), got options={dict(spec.options)!r}"
        )
    if explicit is not None:
        return pathlib.Path(explicit)
    stem = fixture
    for suffix in ("", ".bench", ".json"):
        candidate = FIXTURE_DIR / f"{stem}{suffix}"
        if candidate.exists():
            return candidate
    available = sorted(p.name for p in FIXTURE_DIR.glob("*")) if FIXTURE_DIR.exists() else []
    raise ValueError(
        f"no committed fixture named {fixture!r}; available: {available}"
    )


def _stages_from_netlist(spec, netlist: Netlist):
    """Replicate a parsed block into ``spec.n_stages`` pipeline stages."""
    from repro.circuit.flipflop import FlipFlopTiming
    from repro.pipeline.pipeline import Pipeline
    from repro.pipeline.stage import PipelineStage

    flipflop = FlipFlopTiming()
    name = spec.name if spec.name is not None else netlist.name
    stages = []
    for index in range(spec.n_stages):
        stage_netlist = (
            netlist if index == 0 else netlist.copy(f"{netlist.name}_s{index}")
        )
        stages.append(
            PipelineStage(
                name=f"stage{index}", netlist=stage_netlist, flipflop=flipflop
            )
        )
    return Pipeline(name, stages)


def _build_bench(spec, technology):
    """Pipeline of ``n_stages`` copies of a parsed ``.bench`` netlist.

    Options: exactly one of ``path`` / ``fixture``; optional
    ``unknown_cell`` (``"error"``/``"fallback"``).
    """
    mapping = CellMapping(
        unknown_cell=_single_option(spec, "unknown_cell") or "error"
    )
    netlist = load_bench(
        _resolve_path(spec, "bench"), technology=technology, cell_mapping=mapping
    )
    return _stages_from_netlist(spec, netlist)


def _build_yosys_json(spec, technology):
    """Pipeline of ``n_stages`` copies of a parsed Yosys-JSON netlist.

    Options: exactly one of ``path`` / ``fixture``; optional ``module`` and
    ``unknown_cell``.
    """
    mapping = CellMapping(
        unknown_cell=_single_option(spec, "unknown_cell") or "error"
    )
    netlist = load_yosys_json(
        _resolve_path(spec, "yosys_json"),
        _single_option(spec, "module"),
        technology=technology,
        cell_mapping=mapping,
    )
    return _stages_from_netlist(spec, netlist)


def _build_scale_logic(spec, technology):
    """Pipeline of Rent's-rule scale-generator stages.

    Options: ``n_gates`` (per stage, default 1000), ``seed`` (per-stage
    seeds are ``seed + index``), plus the :func:`scale_logic_block` knobs
    ``rent_exponent`` / ``rent_coefficient`` / ``depth`` / ``locality`` /
    ``hub_fraction`` / ``hub_bias``.
    """
    from repro.circuit.flipflop import FlipFlopTiming
    from repro.pipeline.pipeline import Pipeline
    from repro.pipeline.stage import PipelineStage

    options = dict(spec.options)
    n_gates = int(options.get("n_gates", 1000))
    seed = int(options.get("seed", 0))
    knobs = {
        key: type_(options[key])
        for key, type_ in (
            ("rent_exponent", float),
            ("rent_coefficient", float),
            ("depth", int),
            ("locality", float),
            ("hub_fraction", float),
            ("hub_bias", float),
        )
        if key in options
    }
    name = (
        spec.name if spec.name is not None else f"scale_{spec.n_stages}x{n_gates}"
    )
    flipflop = FlipFlopTiming()
    stages = []
    for index in range(spec.n_stages):
        netlist = scale_logic_block(
            f"{name}_s{index}",
            n_gates,
            seed + index,
            technology=technology,
            **knobs,
        )
        stages.append(
            PipelineStage(name=f"stage{index}", netlist=netlist, flipflop=flipflop)
        )
    return Pipeline(name, stages)


def _register_kinds() -> None:
    from repro.api.spec import register_pipeline_kind

    register_pipeline_kind("bench", _build_bench)
    register_pipeline_kind("yosys_json", _build_yosys_json)
    register_pipeline_kind("scale_logic", _build_scale_logic)


_register_kinds()
