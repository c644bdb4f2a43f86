"""Gate-level netlist representation.

A :class:`Netlist` is a directed acyclic graph of sized, placed standard
cells.  It is the object every other substrate operates on: the deterministic
and statistical timers walk it in topological order, the Monte-Carlo engine
samples one set of process parameters per gate, and the sizers mutate gate
sizes in place.

Design notes
------------
* Gates and primary inputs are identified by string names; primary inputs
  are modelled as zero-delay sources.
* The netlist is the one store of per-gate data.  It holds one column per
  attribute (name, cell id, fanins, size, x, y), indexed by insertion slot.
  The fanins of every gate live once, in one CSR column of integer
  references -- a gate slot, or ``~i`` for primary input ``i``; a name is
  kept only for a forward reference (``allow_forward=True``) until the next
  rebuild resolves it.  :meth:`Netlist.add_gate` appends one gate to
  Python arrays without NumPy work; :meth:`Netlist.add_gates` appends a
  whole generated block at once.  A :class:`Gate` is a view of one slot,
  not a separate object.
* A structural rebuild sorts the gates topologically one frontier (logic
  level) at a time and keeps one permutation from topological position to
  insertion slot, the levels and the fanin CSR in topological indexing,
  from which :meth:`Netlist.timing_schedule` compiles the timing schedule.
  The vectorised accessors (sizes, placement, cell coefficients) gather
  through the permutation and are cached until the structure changes or a
  size/placement write bumps the value version; each call still returns
  fresh, writable arrays.
* Placement is in normalised die coordinates ([0, 1] x [0, 1]).  A helper
  places gates by logic level inside an arbitrary rectangular region so a
  pipeline can lay its stages side by side across the die, which is what
  gives stages *partial* spatial correlation.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.circuit.cell_library import CellLibrary, standard_cell_library
from repro.circuit.schedule import TimingSchedule, compile_schedule, gather_rows
from repro.process.technology import Technology, default_technology


def _csr_to_lists(ptr: np.ndarray, idx: np.ndarray) -> list[list[int]]:
    """A CSR adjacency as one Python list of ints per row."""
    entries = idx.tolist()
    bounds = ptr.tolist()
    return [entries[start:stop] for start, stop in zip(bounds, bounds[1:])]


class NetlistError(ValueError):
    """A structural netlist construction error, located at its cause.

    Carries the offending ``netlist`` name plus (when applicable) the
    ``gate`` and ``net`` involved, so parsers and generators can surface
    "gate G3 references undefined net n42" instead of a deep failure inside
    the topological sort.  Subclasses :class:`ValueError` so existing
    ``except ValueError`` call sites keep working.
    """

    def __init__(
        self,
        message: str,
        *,
        netlist: str | None = None,
        gate: str | None = None,
        net: str | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.netlist = netlist
        self.gate = gate
        self.net = net

    def __str__(self) -> str:
        return self.message


class NetlistLookupError(NetlistError, KeyError):
    """A failed name lookup during netlist construction.

    Also subclasses :class:`KeyError` so callers that treat unknown
    cells/fanins/gates as key errors (the historical contract) keep working.
    """

    __str__ = NetlistError.__str__


#: Rows of the per-gate float values in ``Netlist._columns()``.
_SIZE, _X, _Y = 0, 1, 2
_COLUMN_NAMES = ("size", "x", "y")


def _value_column(column: int, doc: str) -> property:
    """A :class:`Gate` attribute that reads and writes one netlist column."""

    def get(gate: "Gate") -> float:
        return float(gate._netlist._columns()[column, gate._slot])

    def set_(gate: "Gate", value: float) -> None:
        gate._netlist._write(column, gate._slot, value)

    return property(get, set_, doc=doc)


class Gate:
    """One sized, placed cell instance: a view of one slot of a netlist.

    Attributes
    ----------
    name:
        Unique gate name within the netlist.
    cell:
        Name of the cell type in the library (e.g. ``"NAND2"``).
    fanins:
        Names of the driving nodes (gates or primary inputs), in pin order.
        Assigning new fanins rewrites the gate's row in place and marks the
        netlist's structure dirty; the cell's pin count is checked as in
        :meth:`Netlist.add_gate`, while a name that does not exist yet is
        resolved (or reported as dangling) at the next rebuild.
    size:
        Drive strength in multiples of a minimum-size device.
    x, y:
        Placement in normalised die coordinates.

    Writing ``size``, ``x`` or ``y`` updates the netlist's column, so the
    next vectorised query sees it.
    """

    __slots__ = ("_netlist", "_slot")

    def __init__(self, netlist: "Netlist", slot: int) -> None:
        self._netlist = netlist
        self._slot = slot

    @property
    def name(self) -> str:
        return self._netlist._names[self._slot]

    @property
    def cell(self) -> str:
        netlist = self._netlist
        return netlist.library.cell_at(netlist._cell_ids[self._slot]).name

    @property
    def fanins(self) -> tuple[str, ...]:
        netlist = self._netlist
        ptr = netlist._fanin_ptr
        return tuple(
            netlist._net_name(entry)
            for entry in range(ptr[self._slot], ptr[self._slot + 1])
        )

    @fanins.setter
    def fanins(self, fanins: Iterable[str]) -> None:
        netlist = self._netlist
        fanins = tuple(fanins)
        netlist._check_pin_count(self.name, netlist._cell_ids[self._slot], len(fanins))
        refs, forward = netlist._references(self.name, fanins, allow_forward=True)
        first = netlist._fanin_ptr[self._slot]
        for pin, ref in enumerate(refs):
            netlist._fanins[first + pin] = ref
            netlist._forward.pop(first + pin, None)
        for pin in forward:
            netlist._forward[first + pin] = fanins[pin]
        netlist._dirty = True

    size = _value_column(_SIZE, "Drive strength in multiples of a minimum-size device.")
    x = _value_column(_X, "Horizontal placement in normalised die coordinates.")
    y = _value_column(_Y, "Vertical placement in normalised die coordinates.")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Gate({self.name!r}, {self.cell!r}, fanins={self.fanins!r}, "
            f"size={self.size!r}, x={self.x!r}, y={self.y!r})"
        )


class _GateViews(Mapping):
    """Read-only name -> :class:`Gate` mapping, in insertion order."""

    __slots__ = ("_netlist",)

    def __init__(self, netlist: "Netlist") -> None:
        self._netlist = netlist

    def __getitem__(self, name: str) -> Gate:
        return Gate(self._netlist, self._netlist._slot[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._netlist._names)

    def __len__(self) -> int:
        return len(self._netlist._names)

    def __contains__(self, name: object) -> bool:
        return name in self._netlist._slot


class Netlist:
    """A combinational gate-level netlist (DAG of cells).

    Parameters
    ----------
    name:
        Netlist name, used in reports.
    library:
        Cell library the gates are drawn from.  Defaults to the standard
        library.
    technology:
        Technology node used for capacitance/area/delay computations.
    default_output_load:
        Capacitive load (in farads) attached to each primary output, on top
        of any internal fanout.  Defaults to the input capacitance of a
        size-2 inverter, approximating the downstream flip-flop data pin.
    """

    def __init__(
        self,
        name: str,
        library: CellLibrary | None = None,
        technology: Technology | None = None,
        default_output_load: float | None = None,
    ) -> None:
        self.name = name
        self.library = library if library is not None else standard_cell_library()
        self.technology = technology if technology is not None else default_technology()
        if default_output_load is None:
            default_output_load = 2.0 * self.technology.c_unit
        self.default_output_load = float(default_output_load)

        # Per-gate columns, indexed by insertion slot.
        self._names: list[str] = []
        self._slot: dict[str, int] = {}
        self._cell_ids = array("q")
        # Fanins as one CSR column: gate s reads
        # _fanins[_fanin_ptr[s]:_fanin_ptr[s + 1]], in pin order, each entry
        # a gate slot (>= 0) or ~i for primary input i.  An entry whose net
        # did not exist when it was written keeps the name in _forward
        # (entry index -> name) until a rebuild resolves it.
        self._fanin_ptr = array("q", [0])
        self._fanins = array("q")
        self._forward: dict[int, str] = {}
        # Size, x and y as the rows of one NumPy array, plus the interleaved
        # values of gates added since it was last built (see _columns()).
        self._values = np.zeros((3, 0))
        self._appended = array("d")
        self._primary_inputs: list[str] = []
        self._input_index: dict[str, int] = {}
        self._primary_outputs: list[str] = []
        self._output_set: set[str] = set()
        self._dirty = True

        # Structure built by _rebuild(): the topological permutation
        # (position -> slot), the 0-based level of every position, the gate
        # fanin CSR in topological indexing, and the primary-output mask.
        self._perm: np.ndarray = np.zeros(0, dtype=np.intp)
        self._levels: np.ndarray = np.zeros(0, dtype=np.int32)
        self._topo_fanins: tuple[np.ndarray, np.ndarray] = (
            np.zeros(1, dtype=np.int32),
            np.zeros(0, dtype=np.int32),
        )
        self._is_po: np.ndarray = np.zeros(0, dtype=bool)
        # Compiled timing schedule (levelized CSR), built lazily per
        # structural version; see timing_schedule().
        self._structure_version = 0
        self._schedule: TimingSchedule | None = None
        # Topological-order gathers, each stored with the (structure, value)
        # versions it was built at; size and placement writes bump the value
        # version.
        self._value_version = 0
        self._gathers: dict[str, tuple[tuple[int, int], object]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_primary_input(self, name: str) -> None:
        """Declare a primary input node."""
        if name in self._slot or name in self._input_index:
            raise NetlistError(
                f"node {name!r} already exists in netlist {self.name!r}",
                netlist=self.name,
                gate=name,
            )
        self._input_index[name] = len(self._primary_inputs)
        self._primary_inputs.append(name)
        self._dirty = True

    def add_gate(
        self,
        name: str,
        cell: str,
        fanins: list[str] | tuple[str, ...],
        size: float = 1.0,
        x: float = 0.5,
        y: float = 0.5,
        allow_forward: bool = False,
    ) -> Gate:
        """Add a gate driven by the named fanin nodes and return it.

        ``allow_forward=True`` defers the fanin-existence check to the next
        structural rebuild, so file parsers can add gates in file order even
        when a fanin net is defined further down; a fanin that is *never*
        defined still raises a located :class:`NetlistError` (at
        :meth:`validate` or first structural query) rather than silently
        levelising wrong.
        """
        if name in self._slot or name in self._input_index:
            raise self._duplicate(name)
        try:
            cell_id = self.library.cell_id(cell)
        except KeyError:
            raise self._unknown_cell(name, cell) from None
        fanins = tuple(fanins)
        self._check_pin_count(name, cell_id, len(fanins))
        refs, forward = self._references(name, fanins, allow_forward)
        for column, value in enumerate((size, x, y)):
            self._check_value(name, column, value)
        slot = len(self._names)
        first = len(self._fanins)
        for pin in forward:
            self._forward[first + pin] = fanins[pin]
        self._slot[name] = slot
        self._names.append(name)
        self._cell_ids.append(cell_id)
        self._fanins.extend(refs)
        self._fanin_ptr.append(len(self._fanins))
        self._appended.extend((size, x, y))
        self._dirty = True
        return Gate(self, slot)

    def add_gates(
        self,
        names: list[str],
        cells: np.ndarray,
        fanin_ptr: np.ndarray,
        fanins: np.ndarray,
        *,
        sizes: float | np.ndarray = 1.0,
        x: float | np.ndarray = 0.5,
        y: float | np.ndarray = 0.5,
    ) -> None:
        """Append a block of gates at once: the bulk form of :meth:`add_gate`.

        ``cells`` holds library cell ids (:meth:`CellLibrary.cell_id`) and
        ``fanin_ptr``/``fanins`` the block's fanins as CSR rows of integer
        references: the slot of an earlier gate (``n_gates`` is the slot of
        the block's first gate) or ``~i`` for primary input ``i``.  The
        whole block is validated before anything is written; the first bad
        gate raises the located :class:`NetlistError` that :meth:`add_gate`
        would raise for it.
        """
        first = len(self._names)
        count = len(names)
        cells = np.asarray(cells, dtype=np.int64)
        fanin_ptr = np.asarray(fanin_ptr, dtype=np.int64)
        fanins = np.asarray(fanins, dtype=np.int64)
        values = np.empty((3, count))
        values[_SIZE], values[_X], values[_Y] = sizes, x, y
        if (
            cells.shape != (count,)
            or fanin_ptr.shape != (count + 1,)
            or fanin_ptr[0] != 0
            or fanin_ptr[-1] != fanins.shape[0]
            or np.any(fanin_ptr[1:] < fanin_ptr[:-1])
        ):
            raise ValueError(
                f"add_gates needs {count} cell ids and a CSR fanin_ptr of "
                f"length {count + 1} from 0 to len(fanins) = {fanins.shape[0]}"
            )
        counts = np.diff(fanin_ptr)
        known = (cells >= 0) & (cells < len(self.library))
        n_inputs = self.library.coefficient_table["n_inputs"][np.where(known, cells, 0)]
        owner = np.repeat(np.arange(first, first + count), counts)
        bad = ~known | (counts != n_inputs) | ~(values[_SIZE] > 0.0)
        bad |= ~np.isfinite(values).all(axis=0)
        bad[owner[(fanins < -len(self._primary_inputs)) | (fanins >= owner)] - first] = True
        # Names go straight into the name index; a duplicate shows as a short
        # count, and a rejected block restores the index from the name column.
        self._slot.update(zip(names, range(first, first + count)))
        if (
            bad.any()
            or len(self._slot) != first + count
            or any(name in self._slot for name in self._input_index)
        ):
            self._slot = dict(zip(self._names, range(first)))
            self._raise_block_error(names, cells, fanin_ptr, fanins, values)
        self._names.extend(names)
        self._cell_ids.frombytes(cells.tobytes())
        self._fanin_ptr.frombytes((fanin_ptr[1:] + len(self._fanins)).tobytes())
        self._fanins.frombytes(fanins.tobytes())
        self._values = np.concatenate([self._columns(), values], axis=1)
        self._dirty = True

    def _raise_block_error(self, names, cells, fanin_ptr, fanins, values) -> None:
        """Raise :meth:`add_gate`'s error for the first bad gate of a block."""
        first = len(self._names)
        seen: set[str] = set()
        for row, name in enumerate(names):
            if name in self._slot or name in self._input_index or name in seen:
                raise self._duplicate(name)
            seen.add(name)
            cell_id = int(cells[row])
            if not 0 <= cell_id < len(self.library):
                raise self._unknown_cell(name, cell_id)
            row_refs = fanins[fanin_ptr[row] : fanin_ptr[row + 1]].tolist()
            self._check_pin_count(name, cell_id, len(row_refs))
            for ref in row_refs:
                if ref < first + row and ref >= -len(self._primary_inputs):
                    continue
                if first + row <= ref < first + len(names):
                    net = names[ref - first]
                else:
                    net = f"<fanin reference {ref}>"
                raise self._unknown_fanin(name, net)
            for column in (_SIZE, _X, _Y):
                self._check_value(name, column, float(values[column, row]))
        raise AssertionError("no bad gate in a block that failed validation")

    def _references(
        self, name: str, fanins: tuple[str, ...], allow_forward: bool
    ) -> tuple[list[int], list[int]]:
        """Fanin names as references, plus the pins that name no node yet."""
        refs: list[int] = []
        forward: list[int] = []
        for pin, net in enumerate(fanins):
            ref = self._slot.get(net)
            if ref is None:
                index = self._input_index.get(net)
                if index is not None:
                    ref = ~index
                elif allow_forward:
                    forward.append(pin)
                    ref = 0  # placeholder; the name is kept in _forward
                else:
                    raise self._unknown_fanin(name, net)
            refs.append(ref)
        return refs, forward

    def _net_name(self, entry: int) -> str:
        """The name of the node fanin entry ``entry`` refers to."""
        name = self._forward.get(entry)
        if name is None:
            ref = self._fanins[entry]
            name = self._names[ref] if ref >= 0 else self._primary_inputs[~ref]
        return name

    def _check_pin_count(self, name: str, cell_id: int, n_fanins: int) -> None:
        cell = self.library.cell_at(cell_id)
        if n_fanins != cell.n_inputs:
            raise NetlistError(
                f"gate {name!r}: cell {cell.name} expects {cell.n_inputs} fanins, "
                f"got {n_fanins}",
                netlist=self.name,
                gate=name,
            )

    def _duplicate(self, name: str) -> NetlistError:
        return NetlistError(
            f"duplicate gate name {name!r} in netlist {self.name!r}",
            netlist=self.name,
            gate=name,
        )

    def _unknown_cell(self, name: str, cell: object) -> NetlistLookupError:
        return NetlistLookupError(
            f"gate {name!r}: cell {cell!r} not in library for netlist "
            f"{self.name!r}; available cells: {self.library.names}",
            netlist=self.name,
            gate=name,
        )

    def _unknown_fanin(self, name: str, net: str) -> NetlistLookupError:
        return NetlistLookupError(
            f"gate {name!r}: fanin {net!r} is not a known gate or primary input",
            netlist=self.name,
            gate=name,
            net=net,
        )

    def _check_value(self, name: str, column: int, value: float) -> None:
        """Reject a size that is not positive and finite, or a non-finite x/y.

        A NaN or infinite value would reach every Monte-Carlo sample; a
        finite coordinate outside [0, 1] is legal and lands on the die edge.
        """
        if math.isfinite(value) and (column != _SIZE or value > 0.0):
            return
        rule = "positive and finite" if column == _SIZE else "finite"
        raise NetlistError(
            f"gate {name!r}: {_COLUMN_NAMES[column]} must be {rule}, got {value}",
            netlist=self.name,
            gate=name,
        )

    def mark_primary_output(self, name: str) -> None:
        """Mark a gate as a primary output of the block."""
        if name not in self._slot:
            raise NetlistLookupError(
                f"cannot mark unknown gate {name!r} as primary output of "
                f"netlist {self.name!r}",
                netlist=self.name,
                gate=name,
            )
        if name not in self._output_set:
            self._primary_outputs.append(name)
            self._output_set.add(name)
            self._dirty = True

    def validate(self) -> None:
        """Eagerly check structural integrity (dangling fanins, cycles).

        Parsers that build with ``allow_forward=True`` call this once at the
        end of the file so a gate whose fanin names a net that is never
        defined, or a combinational cycle, surfaces as a located
        :class:`NetlistError` at parse time.
        """
        self._ensure_current()

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def gates(self) -> Mapping[str, Gate]:
        """Read-only mapping of gate name to :class:`Gate` (insertion ordered)."""
        return _GateViews(self)

    @property
    def primary_inputs(self) -> list[str]:
        """Names of the primary inputs."""
        return list(self._primary_inputs)

    @property
    def primary_outputs(self) -> list[str]:
        """Names of the gates marked as primary outputs."""
        return list(self._primary_outputs)

    @property
    def n_gates(self) -> int:
        """Number of gates (excluding primary inputs)."""
        return len(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._slot

    def gate(self, name: str) -> Gate:
        """Look up a gate by name."""
        try:
            return Gate(self, self._slot[name])
        except KeyError:
            raise KeyError(f"no gate named {name!r} in netlist {self.name!r}") from None

    # ------------------------------------------------------------------
    # Per-gate columns
    # ------------------------------------------------------------------
    def _columns(self) -> np.ndarray:
        """Size, x and y rows by insertion slot, absorbing gates added since."""
        if self._appended:
            added = np.array(self._appended, dtype=float).reshape(-1, 3).T
            self._values = np.concatenate([self._values, added], axis=1)
            self._appended = array("d")
        return self._values

    def _write(self, column: int, slot: int, value: float) -> None:
        """Set one gate's size, x or y and invalidate the cached gathers."""
        self._check_value(self._names[slot], column, value)
        self._columns()[column, slot] = value
        self._value_version += 1

    def _gathered(self, key: str, build, values: bool = True):
        """A cached topological-order gather; callers must not mutate it.

        ``values=False`` marks a gather that depends on the structure only
        (cell ids), so size and placement writes keep it.
        """
        self._ensure_current()
        versions = (self._structure_version, self._value_version if values else 0)
        cached = self._gathers.get(key)
        if cached is None or cached[0] != versions:
            cached = self._gathers[key] = (versions, build())
        return cached[1]

    def _sizes(self) -> np.ndarray:
        return self._gathered("sizes", lambda: self._columns()[_SIZE, self._perm])

    def _coefficients(self) -> dict[str, np.ndarray]:
        def build() -> dict[str, np.ndarray]:
            ids = np.array(self._cell_ids, dtype=np.intp)[self._perm]
            table = self.library.coefficient_table
            return {name: column[ids] for name, column in table.items()}

        return self._gathered("coefficients", build, values=False)

    # ------------------------------------------------------------------
    # Structure caches
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Rebuild the topological order, the levels and the fanin CSR.

        Kahn's algorithm over insertion slots, one frontier at a time: the
        gates with no gate fanins in name order, then, level by level, every
        gate whose last gate fanin the previous frontier holds.  A released
        gate takes the place of its last occurrence in the frontier's fanout
        lists (frontier order, slots ascending, repeated pins repeated) --
        the order a first-in, first-out Kahn sort releases it in.  Insertion
        order and this tie-break fix the topological order every timing
        result follows (DESIGN.md "Round-trip bit-exactness"); the frontier
        index is the logic level.
        """
        self._resolve_forward()
        names = self._names
        n_gates = len(names)
        sources, sinks = self._gate_arcs()
        in_degree = np.bincount(sinks, minlength=n_gates)
        frontiers = self._frontiers(sources, sinks, in_degree)
        perm = np.concatenate(frontiers) if frontiers else np.zeros(0, dtype=np.intp)
        if perm.shape[0] != n_gates:
            unresolved = set(names) - {names[slot] for slot in perm.tolist()}
            cycle = self._find_cycle(unresolved)
            raise NetlistError(
                f"netlist {self.name!r} contains a combinational cycle: "
                f"{' -> '.join(cycle)} -> {cycle[0]}",
                netlist=self.name,
                gate=cycle[0],
            )

        # The fanin CSR in topological indexing: row p holds the gate fanins
        # of slot perm[p], in pin order, as positions.
        position_of = np.empty(n_gates, dtype=np.intp)
        position_of[perm] = np.arange(n_gates)
        slot_ptr = np.zeros(n_gates + 1, dtype=np.intp)
        np.cumsum(in_degree, out=slot_ptr[1:])
        fanin_ptr = np.zeros(n_gates + 1, dtype=np.int32)
        np.cumsum(in_degree[perm], out=fanin_ptr[1:])
        fanin_idx = position_of[gather_rows(slot_ptr, sources, perm)].astype(np.int32)
        is_po = np.zeros(n_gates, dtype=bool)
        is_po[np.array([self._slot[name] for name in self._primary_outputs], dtype=np.intp)] = True

        self._perm = perm
        self._levels = np.repeat(
            np.arange(len(frontiers), dtype=np.int32), [f.shape[0] for f in frontiers]
        )
        self._topo_fanins = (fanin_ptr, fanin_idx)
        self._is_po = is_po[perm]
        self._structure_version += 1
        self._schedule = None
        self._dirty = False

    def _gate_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every gate-to-gate fanin arc as (source slot, sink slot) arrays.

        Arcs run sink by sink in slot order, pins in order, repeated pins
        repeated; primary-input fanins are left out.
        """
        refs = np.array(self._fanins, dtype=np.intp)
        row_ptr = np.array(self._fanin_ptr, dtype=np.intp)
        sinks = np.repeat(np.arange(len(self._names)), np.diff(row_ptr))
        is_gate = refs >= 0
        return refs[is_gate], sinks[is_gate]

    def _frontiers(
        self, sources: np.ndarray, sinks: np.ndarray, in_degree: np.ndarray
    ) -> list[np.ndarray]:
        """The slots of each logic level, in first-in, first-out Kahn order.

        Each step gathers the frontier's fanout lists, counts down the
        in-degrees they reach, and keeps every gate that reaches zero at its
        last occurrence: one CSR gather and two unbuffered ``ufunc.at``
        updates per level.  Gates on or behind a cycle are never released.
        """
        names = self._names
        n_gates = len(names)
        fanout_ptr = np.zeros(n_gates + 1, dtype=np.intp)
        np.cumsum(np.bincount(sources, minlength=n_gates), out=fanout_ptr[1:])
        fanouts = sinks[np.argsort(sources, kind="stable")]
        remaining = in_degree.copy()
        last_seen = np.full(n_gates, -1, dtype=np.intp)
        frontier = np.array(
            sorted(np.flatnonzero(in_degree == 0).tolist(), key=names.__getitem__),
            dtype=np.intp,
        )
        frontiers: list[np.ndarray] = []
        while frontier.shape[0]:
            frontiers.append(frontier)
            released = gather_rows(fanout_ptr, fanouts, frontier)
            np.subtract.at(remaining, released, 1)
            hits = np.flatnonzero(remaining[released] == 0)
            released = released[hits]
            np.maximum.at(last_seen, released, hits)
            frontier = released[last_seen[released] == hits]
        return frontiers

    def _resolve_forward(self) -> None:
        """Turn forward-referenced names into references, or report them.

        Raises a located :class:`NetlistError` naming the first gate (in
        insertion order, then pin order) whose fanin net is never defined.
        """
        dangling: list[int] = []
        for entry, net in sorted(self._forward.items()):
            ref = self._slot.get(net)
            if ref is None:
                index = self._input_index.get(net)
                if index is None:
                    dangling.append(entry)
                    continue
                ref = ~index
            self._fanins[entry] = ref
            del self._forward[entry]
        if dangling:
            pairs = [
                (self._names[bisect_right(self._fanin_ptr, entry) - 1], self._forward[entry])
                for entry in dangling[:5]
            ]
            listing = ", ".join(f"{g!r} -> {n!r}" for g, n in pairs) + (
                "..." if len(dangling) > 5 else ""
            )
            raise NetlistError(
                f"netlist {self.name!r} has {len(dangling)} fanin reference(s) to "
                f"net(s) that are never defined (gate -> missing net): {listing}",
                netlist=self.name,
                gate=pairs[0][0],
                net=pairs[0][1],
            )

    def _find_cycle(self, unresolved: set[str]) -> list[str]:
        """Walk the unresolved gates to extract one actual cycle path."""
        start = min(unresolved)
        path: list[str] = []
        seen: dict[str, int] = {}
        node = start
        while node not in seen:
            seen[node] = len(path)
            path.append(node)
            # Follow any fanin that is itself unresolved; one always exists,
            # otherwise the gate would have been scheduled.
            node = next(f for f in Gate(self, self._slot[node]).fanins if f in unresolved)
        return path[seen[node]:]

    def _ensure_current(self) -> None:
        if self._dirty:
            self._rebuild()

    def topological_order(self) -> list[str]:
        """Gate names in a valid topological (fanin-before-fanout) order."""
        names = self._names
        order = self._gathered(
            "order", lambda: [names[slot] for slot in self._perm.tolist()], values=False
        )
        return list(order)

    def gate_index(self) -> dict[str, int]:
        """Mapping from gate name to its position in topological order."""
        return {name: position for position, name in enumerate(self.topological_order())}

    def fanin_indices(self) -> list[list[int]]:
        """Per-gate list of fanin positions (topological indexing).

        Built on demand from the timing schedule's CSR; nothing keeps it.
        """
        schedule = self.timing_schedule()
        return _csr_to_lists(schedule.fanin_ptr, schedule.fanin_idx)

    def fanout_indices(self) -> list[list[int]]:
        """Per-gate list of fanout positions (topological indexing).

        Built on demand from the timing schedule's CSR; nothing keeps it.
        """
        schedule = self.timing_schedule()
        return _csr_to_lists(schedule.fanout_ptr, schedule.fanout_idx)

    def output_mask(self) -> np.ndarray:
        """Boolean mask (topological indexing) of primary-output gates."""
        self._ensure_current()
        return self._is_po.copy()

    def timing_schedule(self) -> TimingSchedule:
        """Compiled levelized CSR schedule for the current structure.

        The schedule is cached per structural version: adding gates or
        marking outputs invalidates it (through ``_ensure_current``), while
        size mutations -- the sizers' inner loop -- reuse it unchanged.
        """
        self._ensure_current()
        if self._schedule is None:
            fanin_ptr, fanin_idx = self._topo_fanins
            self._schedule = compile_schedule(
                fanin_ptr, fanin_idx, self._levels, self._structure_version
            )
        return self._schedule

    # ------------------------------------------------------------------
    # Vectorised attribute access (topological indexing)
    # ------------------------------------------------------------------
    def sizes(self) -> np.ndarray:
        """Gate sizes as an array in topological order."""
        return self._sizes().copy()

    def set_sizes(self, sizes: np.ndarray) -> None:
        """Assign gate sizes from an array in topological order."""
        self._ensure_current()
        sizes = np.asarray(sizes, dtype=float)
        if sizes.shape != (self.n_gates,):
            raise ValueError(
                f"expected {self.n_gates} sizes, got array of shape {sizes.shape}"
            )
        if not (np.all(sizes > 0.0) and np.isfinite(sizes).all()):
            raise ValueError("all gate sizes must be positive and finite")
        self._columns()[_SIZE, self._perm] = sizes
        self._value_version += 1

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Gate placement coordinates (x, y) in topological order."""
        xs, ys = self._gathered("positions", lambda: self._columns()[_X:, self._perm])
        return xs.copy(), ys.copy()

    def cell_coefficients(self) -> dict[str, np.ndarray]:
        """Per-gate cell coefficients (topological order).

        Returns a dict with arrays ``logical_effort``, ``parasitic_delay``,
        ``area_factor`` and ``n_inputs``.
        """
        return {name: column.copy() for name, column in self._coefficients().items()}

    def load_capacitances(self, sizes: np.ndarray | None = None) -> np.ndarray:
        """Output load of every gate in farads (topological order).

        The load is the sum of the input capacitances of the fanout gates
        plus ``default_output_load`` for gates marked as primary outputs.

        Parameters
        ----------
        sizes:
            Optional size vector to evaluate loads at (without mutating the
            netlist); defaults to the current gate sizes.  A ``(k, n_gates)``
            array gives one row of loads per row of sizes, each the same
            bits as that row's 1-D call.
        """
        sizes = self._sizes() if sizes is None else np.asarray(sizes, dtype=float)
        pin_caps = self._coefficients()["logical_effort"] * self.technology.c_unit * sizes
        schedule = self.timing_schedule()
        # Gates with no fanout and not marked as outputs still drive something
        # downstream in a real design; like the outputs they get the default
        # load, so their delay is finite and size-sensitive.
        loaded = self._is_po | (schedule.fanout_counts == 0)
        sources, owners = schedule.fanin_idx, schedule.edge_owner
        if pin_caps.ndim == 2:
            # Rows run as one flat vector: row r's arcs are offset by
            # r * n_gates, so each bin sums the same addends in the same
            # order as that row's own call.
            n_rows = pin_caps.shape[0]
            offsets = schedule.n_gates * np.arange(n_rows)[:, None]
            sources = (sources + offsets).ravel()
            owners = (owners + offsets).ravel()
            loaded = np.tile(loaded, n_rows)
        # Every fanin arc (source -> owner) contributes the owner's pin
        # capacitance to the source's load; one bincount sums them all.
        # (bincount returns int64 for an empty weighted input, so force the
        # dtype for edge-free netlists.)
        loads = np.bincount(
            sources, weights=pin_caps.reshape(-1)[owners], minlength=pin_caps.size
        ).astype(float)
        loads[loaded] += self.default_output_load
        return loads.reshape(pin_caps.shape)

    # ------------------------------------------------------------------
    # Aggregate properties
    # ------------------------------------------------------------------
    def total_area(self, sizes: np.ndarray | None = None) -> float | np.ndarray:
        """Total layout area in square micrometres.

        A ``(k, n_gates)`` array of sizes gives a ``(k,)`` array, one total
        per row, each the same bits as that row's 1-D call.  The rows are
        summed C-ordered: a row sum over a Fortran-ordered block takes a
        different summation order.
        """
        if sizes is None:
            sizes = self._sizes()
        area_factor = self._coefficients()["area_factor"]
        areas = (
            area_factor * self.technology.area_unit * np.ascontiguousarray(sizes)
        ).sum(axis=-1)
        return float(areas) if areas.ndim == 0 else areas

    def logic_depth(self) -> int:
        """Maximum number of gates on any input-to-output path."""
        self._ensure_current()
        return int(self._levels[-1]) + 1 if self.n_gates else 0

    def levels(self) -> np.ndarray:
        """Logic level of every gate (topological order), starting at 1."""
        self._ensure_current()
        return self._levels.astype(int) + 1

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def auto_place(
        self,
        region: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
    ) -> None:
        """Place gates by logic level inside a rectangular die region.

        Gates at the same level are spread vertically; successive levels
        advance horizontally across the region.  This gives a physically
        plausible layout in which gates that are logically close are also
        spatially close, which is what couples logic structure to the
        spatially correlated variation component.

        Parameters
        ----------
        region:
            ``(x0, y0, x1, y1)`` rectangle in normalised die coordinates.
        """
        x0, y0, x1, y1 = region
        if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
            raise ValueError(f"invalid placement region {region}")
        self._ensure_current()
        levels = self.levels()
        max_level = int(levels.max()) if len(levels) else 1
        # Each gate's rank among the gates of its level, in topological order.
        counts = np.bincount(levels)
        by_level = np.argsort(levels, kind="stable")
        level_starts = np.cumsum(counts) - counts
        rank = np.empty(len(levels), dtype=np.int64)
        rank[by_level] = np.arange(len(levels)) - level_starts[levels[by_level]]
        # The same float expressions, in the same order, as one gate at a time.
        values = self._columns()
        values[_X, self._perm] = x0 + (x1 - x0) * (levels - 0.5) / max_level
        values[_Y, self._perm] = y0 + (y1 - y0) * (rank + 0.5) / counts[levels]
        self._value_version += 1

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Netlist":
        """Deep copy of the netlist (gates, sizes, placement, outputs)."""
        clone = Netlist(
            name if name is not None else self.name,
            library=self.library,
            technology=self.technology,
            default_output_load=self.default_output_load,
        )
        clone._names = list(self._names)
        clone._slot = dict(self._slot)
        clone._cell_ids = array("q", self._cell_ids)
        clone._fanin_ptr = array("q", self._fanin_ptr)
        clone._fanins = array("q", self._fanins)
        clone._forward = dict(self._forward)
        clone._values = self._columns().copy()
        clone._primary_inputs = list(self._primary_inputs)
        clone._input_index = dict(self._input_index)
        clone._primary_outputs = list(self._primary_outputs)
        clone._output_set = set(self._output_set)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name!r}, gates={self.n_gates}, "
            f"inputs={len(self._primary_inputs)}, outputs={len(self._primary_outputs)}, "
            f"depth={self.logic_depth()})"
        )
