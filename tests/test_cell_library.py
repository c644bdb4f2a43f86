"""Tests for repro.circuit.cell_library."""

import pytest

from repro.circuit.cell_library import Cell, CellLibrary, standard_cell_library
from repro.process.technology import default_technology


class TestCell:
    def test_input_capacitance_scales_with_size(self):
        tech = default_technology()
        inv = standard_cell_library()["INV"]
        assert inv.input_capacitance(2.0, tech) == pytest.approx(
            2.0 * inv.input_capacitance(1.0, tech)
        )

    def test_drive_resistance_shrinks_with_size(self):
        tech = default_technology()
        inv = standard_cell_library()["INV"]
        assert inv.drive_resistance(4.0, tech) == pytest.approx(
            inv.drive_resistance(1.0, tech) / 4.0
        )

    def test_area_scales_with_size(self):
        tech = default_technology()
        nand = standard_cell_library()["NAND2"]
        assert nand.area(3.0, tech) == pytest.approx(3.0 * nand.area(1.0, tech))

    def test_nand_has_more_input_cap_than_inverter(self):
        tech = default_technology()
        lib = standard_cell_library()
        assert lib["NAND2"].input_capacitance(1.0, tech) > lib["INV"].input_capacitance(
            1.0, tech
        )

    def test_rejects_nonpositive_size_for_resistance(self):
        tech = default_technology()
        inv = standard_cell_library()["INV"]
        with pytest.raises(ValueError):
            inv.drive_resistance(0.0, tech)

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            Cell("BAD", 0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Cell("BAD", 1, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Cell("BAD", 1, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            Cell("BAD", 1, 1.0, 1.0, 0.0)


class TestCellLibrary:
    def test_standard_library_contents(self):
        lib = standard_cell_library()
        for name in ("INV", "NAND2", "NOR2", "XOR2", "AOI21"):
            assert name in lib

    def test_lookup_unknown_cell_raises(self):
        lib = standard_cell_library()
        with pytest.raises(KeyError):
            lib["NAND17"]

    def test_duplicate_cells_rejected(self):
        inv = Cell("INV", 1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CellLibrary([inv, inv])

    def test_cells_with_inputs(self):
        lib = standard_cell_library()
        two_input = lib.cells_with_inputs(2)
        assert all(cell.n_inputs == 2 for cell in two_input)
        assert {"NAND2", "NOR2", "XOR2", "XNOR2"} <= {cell.name for cell in two_input}

    def test_iteration_and_len(self):
        lib = standard_cell_library()
        assert len(list(lib)) == len(lib)
        assert set(lib.names) == {cell.name for cell in lib}

    def test_inverter_is_reference_cell(self):
        lib = standard_cell_library()
        inv = lib["INV"]
        assert inv.logical_effort == pytest.approx(1.0)
        assert inv.area_factor == pytest.approx(1.0)


class TestCoefficientTable:
    def test_rows_match_cells(self):
        library = standard_cell_library()
        table = library.coefficient_table
        for cell in library:
            row = library.cell_id(cell.name)
            assert library.cell_at(row) is cell
            assert table["logical_effort"][row] == cell.logical_effort
            assert table["parasitic_delay"][row] == cell.parasitic_delay
            assert table["area_factor"][row] == cell.area_factor
            assert table["n_inputs"][row] == cell.n_inputs

    def test_table_is_read_only(self):
        table = standard_cell_library().coefficient_table
        with pytest.raises(ValueError):
            table["logical_effort"][0] = 9.0

    def test_unknown_cell_id(self):
        with pytest.raises(KeyError):
            standard_cell_library().cell_id("NAND77")
