"""Logical-effort-style standard-cell library.

Each cell is characterised by three dimensionless coefficients relative to a
minimum-size inverter in the target technology:

* ``logical_effort`` (g): how much more input capacitance the cell presents
  than an inverter with the same drive strength,
* ``parasitic_delay`` (p): the cell's self-loading delay in units of the
  technology time constant tau,
* ``area_factor``: layout area per unit of drive size, in multiples of the
  minimum inverter area.

A cell instance also has a *size* (drive strength in multiples of minimum),
which scales input capacitance, parasitic capacitance and area linearly and
scales drive resistance as ``1/size``.  This is the standard logical-effort
parameterisation; it captures exactly the area/delay trade-off that the
paper's sizing experiments exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.process.technology import Technology


@dataclass(frozen=True)
class Cell:
    """A standard-cell type.

    Parameters
    ----------
    name:
        Cell name, e.g. ``"NAND2"``.
    n_inputs:
        Number of logic inputs the cell accepts.
    logical_effort:
        Logical effort g: ratio of the cell's input capacitance to that of
        an inverter delivering the same output current.
    parasitic_delay:
        Parasitic delay p in units of the technology time constant.
    area_factor:
        Layout area per unit size in multiples of the minimum inverter area.
    """

    name: str
    n_inputs: int
    logical_effort: float
    parasitic_delay: float
    area_factor: float

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ValueError(f"cell {self.name}: n_inputs must be >= 1")
        if self.logical_effort <= 0.0:
            raise ValueError(f"cell {self.name}: logical_effort must be positive")
        if self.parasitic_delay < 0.0:
            raise ValueError(f"cell {self.name}: parasitic_delay must be non-negative")
        if self.area_factor <= 0.0:
            raise ValueError(f"cell {self.name}: area_factor must be positive")

    # ------------------------------------------------------------------
    # Physical quantities for a sized instance
    # ------------------------------------------------------------------
    def input_capacitance(self, size: float, technology: Technology) -> float:
        """Capacitance presented at each input pin, in farads."""
        return self.logical_effort * technology.c_unit * size

    def parasitic_capacitance(self, size: float, technology: Technology) -> float:
        """Self-load capacitance at the output, in farads."""
        return self.parasitic_delay * technology.c_par_unit * size

    def drive_resistance(self, size: float, technology: Technology) -> float:
        """Nominal output drive resistance, in ohms."""
        if size <= 0.0:
            raise ValueError(f"cell {self.name}: size must be positive, got {size}")
        return technology.r_unit / size

    def area(self, size: float, technology: Technology) -> float:
        """Layout area in square micrometres."""
        return self.area_factor * technology.area_unit * size


class CellLibrary:
    """A named collection of :class:`Cell` types.

    Each cell also has an integer id (its position in the constructor's
    list).  :attr:`coefficient_table` maps each coefficient name
    (``logical_effort``, ``parasitic_delay``, ``area_factor``,
    ``n_inputs``) to a read-only column indexed by that id, so a netlist
    turns its per-gate cell ids into coefficient arrays with one gather.
    """

    def __init__(self, cells: list[Cell]) -> None:
        self._cells: dict[str, Cell] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise ValueError(f"duplicate cell name {cell.name!r}")
            self._cells[cell.name] = cell
        self._by_id = tuple(self._cells.values())
        self._ids = {cell.name: cell_id for cell_id, cell in enumerate(self._by_id)}
        self.coefficient_table: dict[str, np.ndarray] = {}
        for name in ("logical_effort", "parasitic_delay", "area_factor", "n_inputs"):
            column = np.array([getattr(cell, name) for cell in self._by_id])
            column.flags.writeable = False
            self.coefficient_table[name] = column

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __getitem__(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(
                f"unknown cell {name!r}; available cells: {sorted(self._cells)}"
            ) from None

    def __iter__(self):
        return iter(self._cells.values())

    def cell_id(self, name: str) -> int:
        """Integer id of the named cell (its row in :attr:`coefficient_table`)."""
        try:
            return self._ids[name]
        except KeyError:
            raise KeyError(
                f"unknown cell {name!r}; available cells: {sorted(self._cells)}"
            ) from None

    def cell_at(self, cell_id: int) -> Cell:
        """The cell with the given integer id."""
        return self._by_id[cell_id]

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def names(self) -> list[str]:
        """Sorted list of cell names in the library."""
        return sorted(self._cells)

    def cells_with_inputs(self, n_inputs: int) -> list[Cell]:
        """All cells with exactly ``n_inputs`` logic inputs."""
        return [cell for cell in self._cells.values() if cell.n_inputs == n_inputs]


def standard_cell_library() -> CellLibrary:
    """The default cell library used throughout the reproduction.

    Logical effort and parasitic delay values follow the classic
    Sutherland/Sproull/Harris numbers; area factors grow with transistor
    count.  The exact values only need to be internally consistent -- they
    set the shape of the area-vs-delay curves the optimization experiments
    explore.
    """
    return CellLibrary(
        [
            Cell("INV", 1, 1.0, 1.0, 1.0),
            Cell("BUF", 1, 1.0, 2.0, 1.6),
            Cell("NAND2", 2, 4.0 / 3.0, 2.0, 1.4),
            Cell("NAND3", 3, 5.0 / 3.0, 3.0, 1.9),
            Cell("NAND4", 4, 6.0 / 3.0, 4.0, 2.4),
            Cell("NOR2", 2, 5.0 / 3.0, 2.0, 1.5),
            Cell("NOR3", 3, 7.0 / 3.0, 3.0, 2.1),
            Cell("AOI21", 3, 2.0, 3.0, 2.2),
            Cell("OAI21", 3, 2.0, 3.0, 2.2),
            Cell("XOR2", 2, 4.0, 4.0, 3.0),
            Cell("XNOR2", 2, 4.0, 4.0, 3.0),
        ]
    )
