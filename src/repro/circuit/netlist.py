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
  attribute (name, cell id, fanin names, size, x, y), indexed by insertion
  slot.  :meth:`Netlist.add_gate` appends to Python lists; the size and
  placement columns become NumPy arrays at the next query.  A
  :class:`Gate` is a view of one slot, not a separate object.
* A structural rebuild orders the gates topologically and keeps one
  permutation from topological position to insertion slot.  The vectorised
  accessors (sizes, placement, cell coefficients) gather through it and are
  cached until the structure changes or a size/placement write bumps the
  value version; each call still returns fresh, writable arrays.
* Placement is in normalised die coordinates ([0, 1] x [0, 1]).  A helper
  places gates by logic level inside an arbitrary rectangular region so a
  pipeline can lay its stages side by side across the die, which is what
  gives stages *partial* spatial correlation.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.circuit.cell_library import CellLibrary, standard_cell_library
from repro.circuit.schedule import TimingSchedule, compile_schedule
from repro.process.technology import Technology, default_technology


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
        Assigning new fanins marks the netlist's structure dirty.
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
        return self._netlist._fanins[self._slot]

    @fanins.setter
    def fanins(self, fanins: Iterable[str]) -> None:
        self._netlist._fanins[self._slot] = tuple(fanins)
        self._netlist._dirty = True

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
        self._cell_ids: list[int] = []
        self._fanins: list[tuple[str, ...]] = []
        # Size, x and y as the rows of one NumPy array, plus the interleaved
        # values of gates added since it was last built (see _columns()).
        self._values = np.zeros((3, 0))
        self._appended = array("d")
        self._primary_inputs: list[str] = []
        self._input_set: set[str] = set()
        self._primary_outputs: list[str] = []
        self._output_set: set[str] = set()
        self._dirty = True

        # Structure built by _rebuild()
        self._order: list[str] = []
        self._perm: np.ndarray = np.zeros(0, dtype=np.intp)  # position -> slot
        self._fanin_indices: list[list[int]] = []
        self._fanout_indices: list[list[int]] = []
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
        if name in self._slot or name in self._input_set:
            raise NetlistError(
                f"node {name!r} already exists in netlist {self.name!r}",
                netlist=self.name,
                gate=name,
            )
        self._primary_inputs.append(name)
        self._input_set.add(name)
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
        if name in self._slot or name in self._input_set:
            raise NetlistError(
                f"duplicate gate name {name!r} in netlist {self.name!r}",
                netlist=self.name,
                gate=name,
            )
        try:
            cell_id = self.library.cell_id(cell)
        except KeyError:
            raise NetlistLookupError(
                f"gate {name!r}: cell {cell!r} not in library for netlist "
                f"{self.name!r}; available cells: {self.library.names}",
                netlist=self.name,
                gate=name,
            ) from None
        n_inputs = self.library.cell_at(cell_id).n_inputs
        fanins = tuple(fanins)
        if len(fanins) != n_inputs:
            raise NetlistError(
                f"gate {name!r}: cell {cell} expects {n_inputs} fanins, "
                f"got {len(fanins)}",
                netlist=self.name,
                gate=name,
            )
        if not allow_forward:
            for fanin in fanins:
                if fanin not in self._slot and fanin not in self._input_set:
                    raise NetlistLookupError(
                        f"gate {name!r}: fanin {fanin!r} is not a known gate or "
                        f"primary input",
                        netlist=self.name,
                        gate=name,
                        net=fanin,
                    )
        if size <= 0.0:
            raise NetlistError(
                f"gate {name!r}: size must be positive, got {size}",
                netlist=self.name,
                gate=name,
            )
        slot = len(self._names)
        self._slot[name] = slot
        self._names.append(name)
        self._cell_ids.append(cell_id)
        self._fanins.append(fanins)
        self._appended.extend((size, x, y))
        self._dirty = True
        return Gate(self, slot)

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
        """Rebuild topological order, the slot permutation and fanin/fanout caches.

        Kahn's algorithm over insertion slots: the gates ready at the start
        in name order, then first in, first out.  Insertion order and this
        tie-break fix the topological order every timing result follows
        (DESIGN.md "Round-trip bit-exactness").
        """
        names, fanins_of, slot_of = self._names, self._fanins, self._slot
        inputs = self._input_set
        in_degree = [0] * len(names)
        dependents: dict[str, list[int]] = {}
        dangling: list[tuple[str, str]] = []
        for slot, fanins in enumerate(fanins_of):
            gate_fanin_count = 0
            for fanin in fanins:
                if fanin in slot_of:
                    gate_fanin_count += 1
                    dependents.setdefault(fanin, []).append(slot)
                elif fanin not in inputs:
                    dangling.append((names[slot], fanin))
            in_degree[slot] = gate_fanin_count

        if dangling:
            gate_name, net = dangling[0]
            listing = ", ".join(
                f"{g!r} -> {n!r}" for g, n in dangling[:5]
            ) + ("..." if len(dangling) > 5 else "")
            raise NetlistError(
                f"netlist {self.name!r} has {len(dangling)} fanin reference(s) to "
                f"net(s) that are never defined (gate -> missing net): {listing}",
                netlist=self.name,
                gate=gate_name,
                net=net,
            )

        order = sorted(
            (slot for slot, degree in enumerate(in_degree) if degree == 0),
            key=names.__getitem__,
        )
        position = 0
        while position < len(order):
            for successor in dependents.get(names[order[position]], ()):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    order.append(successor)
            position += 1

        if len(order) != len(names):
            placed = set(order)
            unresolved = {
                name for slot, name in enumerate(names) if slot not in placed
            }
            cycle = self._find_cycle(unresolved)
            raise NetlistError(
                f"netlist {self.name!r} contains a combinational cycle: "
                f"{' -> '.join(cycle)} -> {cycle[0]}",
                netlist=self.name,
                gate=cycle[0],
            )

        position_of = [0] * len(order)  # insertion slot -> topological position
        for position, slot in enumerate(order):
            position_of[slot] = position
        fanin_indices = [
            [position_of[slot_of[f]] for f in fanins_of[slot] if f in slot_of]
            for slot in order
        ]
        fanout_indices: list[list[int]] = [[] for _ in order]
        for gate_pos, fanins in enumerate(fanin_indices):
            for fanin_pos in fanins:
                fanout_indices[fanin_pos].append(gate_pos)

        is_po = np.zeros(len(order), dtype=bool)
        for name in self._primary_outputs:
            is_po[position_of[slot_of[name]]] = True

        self._order = [names[slot] for slot in order]
        self._perm = np.array(order, dtype=np.intp)
        self._fanin_indices = fanin_indices
        self._fanout_indices = fanout_indices
        self._is_po = is_po
        self._structure_version += 1
        self._schedule = None
        self._dirty = False

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
            node = next(f for f in self._fanins[self._slot[node]] if f in unresolved)
        return path[seen[node]:]

    def _ensure_current(self) -> None:
        if self._dirty:
            self._rebuild()

    def topological_order(self) -> list[str]:
        """Gate names in a valid topological (fanin-before-fanout) order."""
        self._ensure_current()
        return list(self._order)

    def gate_index(self) -> dict[str, int]:
        """Mapping from gate name to its position in topological order."""
        self._ensure_current()
        return {name: position for position, name in enumerate(self._order)}

    def fanin_indices(self) -> list[list[int]]:
        """Per-gate list of fanin positions (topological indexing)."""
        self._ensure_current()
        return self._fanin_indices

    def fanout_indices(self) -> list[list[int]]:
        """Per-gate list of fanout positions (topological indexing)."""
        self._ensure_current()
        return self._fanout_indices

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
            self._schedule = compile_schedule(
                self._fanin_indices, self._fanout_indices, self._structure_version
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
        if sizes.shape != (len(self._order),):
            raise ValueError(
                f"expected {len(self._order)} sizes, got array of shape {sizes.shape}"
            )
        if np.any(sizes <= 0.0):
            raise ValueError("all gate sizes must be positive")
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
            netlist); defaults to the current gate sizes.
        """
        sizes = self._sizes() if sizes is None else np.asarray(sizes, dtype=float)
        pin_caps = self._coefficients()["logical_effort"] * self.technology.c_unit * sizes
        schedule = self.timing_schedule()
        # Every fanin arc (source -> owner) contributes the owner's pin
        # capacitance to the source's load; one bincount sums them all.
        # (bincount returns int64 for an empty weighted input, so force the
        # dtype for edge-free netlists.)
        loads = np.bincount(
            schedule.fanin_idx,
            weights=pin_caps[schedule.edge_owner],
            minlength=schedule.n_gates,
        ).astype(float)
        loads[self._is_po] += self.default_output_load
        # Gates with no fanout and not marked as outputs still drive something
        # downstream in a real design; give them the default load so their
        # delay is finite and size-sensitive.
        dangling = (schedule.fanout_counts == 0) & ~self._is_po
        loads[dangling] += self.default_output_load
        return loads

    # ------------------------------------------------------------------
    # Aggregate properties
    # ------------------------------------------------------------------
    def total_area(self, sizes: np.ndarray | None = None) -> float:
        """Total layout area in square micrometres."""
        if sizes is None:
            sizes = self._sizes()
        area_factor = self._coefficients()["area_factor"]
        return float(
            (area_factor * self.technology.area_unit * np.asarray(sizes)).sum()
        )

    def logic_depth(self) -> int:
        """Maximum number of gates on any input-to-output path."""
        return self.timing_schedule().n_levels

    def levels(self) -> np.ndarray:
        """Logic level of every gate (topological order), starting at 1."""
        return self.timing_schedule().levels.astype(int) + 1

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
        clone._cell_ids = list(self._cell_ids)
        clone._fanins = list(self._fanins)
        clone._values = self._columns().copy()
        clone._primary_inputs = list(self._primary_inputs)
        clone._input_set = set(self._input_set)
        clone._primary_outputs = list(self._primary_outputs)
        clone._output_set = set(self._output_set)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name!r}, gates={self.n_gates}, "
            f"inputs={len(self._primary_inputs)}, outputs={len(self._primary_outputs)}, "
            f"depth={self.logic_depth()})"
        )
