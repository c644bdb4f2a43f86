"""Deterministic circuit generators.

The paper uses three families of combinational blocks:

* **inverter chains** for model verification (Figs. 2, 3, 5 and Table I),
* an **ALU / decoder** three-stage pipeline for the balanced-vs-unbalanced
  study (Figs. 6-8),
* **ISCAS85 benchmarks** for the optimization experiments (Tables II, III);
  synthetic stand-ins for those live in :mod:`repro.circuit.iscas` and are
  built on the random-logic generator defined here.

All generators are deterministic for a given seed, so experiments are
reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.cell_library import CellLibrary, standard_cell_library
from repro.circuit.netlist import Netlist
from repro.process.technology import Technology, default_technology


def inverter_chain(
    depth: int,
    name: str = "inv_chain",
    size: float = 1.0,
    library: CellLibrary | None = None,
    technology: Technology | None = None,
) -> Netlist:
    """Build a chain of ``depth`` inverters.

    This is the paper's model-verification workload: a pipeline stage whose
    combinational logic is a straight chain of ``N_L`` inverters, so the
    stage delay is the sum of ``N_L`` gate delays and its variability scales
    as ``1/sqrt(N_L)`` under independent per-gate variation.

    Parameters
    ----------
    depth:
        Number of inverters in the chain (the stage logic depth ``N_L``).
    name:
        Netlist name.
    size:
        Drive size of every inverter.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    netlist = Netlist(name, library=library, technology=technology)
    netlist.add_primary_input("in")
    previous = "in"
    for position in range(depth):
        gate_name = f"inv{position}"
        netlist.add_gate(gate_name, "INV", [previous], size=size)
        previous = gate_name
    netlist.mark_primary_output(previous)
    netlist.auto_place()
    return netlist


def random_logic_block(
    name: str,
    n_gates: int,
    depth: int,
    n_inputs: int,
    n_outputs: int,
    seed: int,
    library: CellLibrary | None = None,
    technology: Technology | None = None,
) -> Netlist:
    """Build a depth-controlled random-logic block.

    The generator produces a levelised DAG: gates are assigned to logic
    levels 1..depth, each gate takes its first fanin from the previous level
    (which pins the block's logic depth to the requested value) and its
    remaining fanins from earlier levels or primary inputs.  Cell types are
    drawn with weights that favour 2-input gates, matching the composition
    of typical mapped random logic.

    Parameters
    ----------
    name:
        Netlist name.
    n_gates:
        Total number of gates.
    depth:
        Target logic depth (levels of gates on the longest path).
    n_inputs, n_outputs:
        Primary input / output counts.
    seed:
        Seed for the deterministic pseudo-random structure.
    """
    if n_gates < depth:
        raise ValueError(
            f"n_gates ({n_gates}) must be at least the requested depth ({depth})"
        )
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be at least 1, got {n_inputs}")
    if n_outputs < 1:
        raise ValueError(f"n_outputs must be at least 1, got {n_outputs}")

    rng = np.random.default_rng(seed)
    netlist = Netlist(name, library=library, technology=technology)
    for position in range(n_inputs):
        netlist.add_primary_input(f"pi{position}")

    # Distribute gates over levels: every level gets at least one gate, the
    # remainder is spread with a mild bias towards the middle of the cone,
    # which is what mapped benchmark circuits tend to look like.
    base = np.ones(depth, dtype=int)
    remaining = n_gates - depth
    if remaining > 0:
        weights = 1.0 + 0.5 * np.sin(np.linspace(0.0, np.pi, depth))
        weights /= weights.sum()
        extra = rng.multinomial(remaining, weights)
        level_sizes = base + extra
    else:
        level_sizes = base

    cell_names = ["INV", "NAND2", "NOR2", "NAND3", "NOR3", "AOI21", "OAI21", "XOR2"]
    cell_weights = np.array([0.18, 0.28, 0.22, 0.08, 0.06, 0.07, 0.07, 0.04])
    cell_weights /= cell_weights.sum()
    lib = netlist.library

    # Extra fanins come from the last ``window`` gates and inputs (or all).
    window = 4 * max(1, int(level_sizes.max()))
    previous_level: list[str] = []
    all_earlier: list[str] = list(netlist.primary_inputs)
    gate_counter = 0
    for level in range(1, depth + 1):
        current_level: list[str] = []
        for _ in range(int(level_sizes[level - 1])):
            cell_name = str(rng.choice(cell_names, p=cell_weights))
            cell = lib[cell_name]
            fanins: list[str] = []
            if level == 1:
                pool = netlist.primary_inputs
                fanins.append(pool[int(rng.integers(len(pool)))])
            else:
                fanins.append(previous_level[int(rng.integers(len(previous_level)))])
            while len(fanins) < cell.n_inputs:
                # Remaining fanins: mostly from the recent past, occasionally
                # a primary input (long "through" connections exist in real
                # benchmarks too).
                if rng.random() < 0.15 or not all_earlier:
                    pool = netlist.primary_inputs
                else:
                    pool = all_earlier[-window:]
                candidate = pool[int(rng.integers(len(pool)))]
                if candidate not in fanins:
                    fanins.append(candidate)
                elif len(pool) == 1 or all(
                    len(names) > 1 and set(names) <= set(fanins)
                    for names in (netlist.primary_inputs, all_earlier[-window:])
                ):
                    # Only one candidate, or every name either pool holds
                    # is already a fanin (level 1 with two primary inputs
                    # and a three-input cell): accept the duplicate pin
                    # rather than loop forever on a tiny block.  A one-name
                    # pool is left to the first case, so a loop that can
                    # still leave by drawing it keeps its draws.
                    fanins.append(candidate)
            gate_name = f"g{gate_counter}"
            gate_counter += 1
            netlist.add_gate(gate_name, cell_name, fanins)
            current_level.append(gate_name)
        all_earlier.extend(current_level)
        previous_level = current_level

    # Primary outputs: prefer the deepest gates, then walk backwards until we
    # have enough.
    outputs_needed = min(n_outputs, n_gates)
    chosen: list[str] = []
    for name_candidate in reversed(all_earlier):
        if name_candidate in netlist.primary_inputs:
            continue
        chosen.append(name_candidate)
        if len(chosen) == outputs_needed:
            break
    for output_name in chosen:
        netlist.mark_primary_output(output_name)

    netlist.auto_place()
    return netlist


def alu_block(
    width: int = 8,
    name: str = "alu",
    part: str = "full",
    library: CellLibrary | None = None,
    technology: Technology | None = None,
) -> Netlist:
    """Build a bit-sliced ALU-like block (add/logic datapath slice).

    Each bit slice computes propagate/generate terms with XOR/NAND gates and
    chains the carry through alternating AOI/OAI cells, which is how mapped
    ripple-carry ALUs actually look.  ``part`` selects the paper's Fig. 6
    split of the ALU into two pipeline stages:

    * ``"lower"`` -- propagate/generate plus the first half of the carry chain,
    * ``"upper"`` -- the second half of the carry chain plus the sum XORs,
    * ``"full"``  -- the whole datapath in one block.

    Parameters
    ----------
    width:
        Number of bit slices.
    """
    if width < 2:
        raise ValueError(f"width must be at least 2, got {width}")
    if part not in {"full", "lower", "upper"}:
        raise ValueError(f"part must be 'full', 'lower' or 'upper', got {part!r}")

    netlist = Netlist(name, library=library, technology=technology)
    for bit in range(width):
        netlist.add_primary_input(f"a{bit}")
        netlist.add_primary_input(f"b{bit}")
    netlist.add_primary_input("cin")

    include_lower = part in {"full", "lower"}
    include_upper = part in {"full", "upper"}
    split = width // 2

    carry = "cin"
    if not include_lower:
        # Upper half alone: the incoming carry and the lower propagate terms
        # arrive from the previous pipeline stage as primary inputs.
        for bit in range(split):
            netlist.add_primary_input(f"p_in{bit}")

    for bit in range(width):
        in_lower_half = bit < split
        if in_lower_half and not include_lower:
            continue
        if not in_lower_half and not include_upper:
            continue
        a, b = f"a{bit}", f"b{bit}"
        netlist.add_gate(f"p{bit}", "XOR2", [a, b])
        netlist.add_gate(f"gn{bit}", "NAND2", [a, b])
        netlist.add_gate(f"g{bit}", "INV", [f"gn{bit}"])
        if carry == "cin" and not include_lower:
            carry_source = "p_in0"
        else:
            carry_source = carry
        # Carry-out = g | (p & c): one AOI21 plus an inverter.
        netlist.add_gate(f"c_aoi{bit}", "AOI21", [f"p{bit}", carry_source, f"g{bit}"])
        netlist.add_gate(f"c{bit}", "INV", [f"c_aoi{bit}"])
        netlist.add_gate(f"sum{bit}", "XOR2", [f"p{bit}", carry_source])
        carry = f"c{bit}"
        if include_upper and not in_lower_half:
            netlist.mark_primary_output(f"sum{bit}")
        elif include_lower and part == "lower":
            netlist.mark_primary_output(f"sum{bit}")
    netlist.mark_primary_output(carry)

    netlist.auto_place()
    return netlist


def decoder_block(
    n_address: int = 4,
    name: str = "decoder",
    library: CellLibrary | None = None,
    technology: Technology | None = None,
) -> Netlist:
    """Build an ``n``-to-``2**n`` address decoder with buffered outputs.

    The structure is the classic two-level decoder: address complements,
    predecoded pairs, then one NAND per output word line followed by an
    inverting driver.  Logic depth is four, matching the per-stage depth the
    paper quotes for its Fig. 6 pipeline.
    """
    if not 2 <= n_address <= 6:
        raise ValueError(f"n_address must be between 2 and 6, got {n_address}")
    netlist = Netlist(name, library=library, technology=technology)
    for bit in range(n_address):
        netlist.add_primary_input(f"addr{bit}")
        netlist.add_gate(f"addr_n{bit}", "INV", [f"addr{bit}"])
        netlist.add_gate(f"addr_b{bit}", "INV", [f"addr_n{bit}"])

    n_words = 2**n_address
    for word in range(n_words):
        terms = []
        for bit in range(n_address):
            if (word >> bit) & 1:
                terms.append(f"addr_b{bit}")
            else:
                terms.append(f"addr_n{bit}")
        # Combine the address terms pairwise with NAND/NOR so the depth stays
        # at two levels regardless of the address width.
        level = terms
        stage_index = 0
        while len(level) > 1:
            next_level = []
            for position in range(0, len(level) - 1, 2):
                gate_name = f"w{word}_s{stage_index}_{position // 2}"
                if stage_index % 2 == 0:
                    netlist.add_gate(
                        gate_name, "NAND2", [level[position], level[position + 1]]
                    )
                else:
                    netlist.add_gate(
                        gate_name, "NOR2", [level[position], level[position + 1]]
                    )
                next_level.append(gate_name)
            if len(level) % 2 == 1:
                next_level.append(level[-1])
            level = next_level
            stage_index += 1
        driver = f"word{word}"
        netlist.add_gate(driver, "INV", [level[0]], size=2.0)
        netlist.mark_primary_output(driver)

    netlist.auto_place()
    return netlist
