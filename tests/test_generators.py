"""Tests for repro.circuit.generators."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.circuit.generators import (
    alu_block,
    decoder_block,
    inverter_chain,
    random_logic_block,
)
from repro.circuit.ingest import write_bench

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: ``write_bench`` SHA-256 of ``random_logic_block("b", n_gates, depth,
#: n_inputs, n_outputs=1, seed)``, recorded before the two-input fix.  The
#: fix only changes draws that never returned, so these stay put.
#: (n_inputs, depth, n_gates, seed, sha256)
PINNED_BLOCKS = [
    (1, 3, 20, 1, "7cf7541c5b5e2200b5c86f88a5176a45a52bfbe348a50f0b00d5d618b1cf1878"),
    (1, 6, 60, 7, "2728aa6b959a4add7c1b0c68ebddbd5fbffbccc2b733ab712bdf9996c36020e8"),
    (1, 2, 6, 4, "b0deee6fb618db14f18eecffadb6ae718b250196fdb96177327747f979a802c9"),
    (2, 3, 20, 5, "2cb94d8c0b7d9b26264ef7906f0fe12014ee63740ae11b7b7edebac389463afe"),
    (2, 6, 60, 6, "1d428f311f4eec3dcdc8d83d5c3800a8fc77725cf04fb7b7fa1345b8a9d445f6"),
    (2, 2, 20, 11, "e85153cd52f6a4ef43f76a5377d07f531ebfb19542560994d9250e52b213ddb0"),
    (3, 3, 20, 1, "bf624e3747cf53fbd8b4349e40e51c0230ee60a28f33341fd80c5f258d2309a3"),
    (3, 6, 60, 7, "0bba8d5c0c81ada382f3fd5fdc0e2de64dbac01b065069f068e9529d1395d09e"),
    (3, 2, 6, 4, "2a9c719845053e59290ba56e931ec812f5145cdf2e293b3be64224a520634e5f"),
    (5, 3, 20, 1, "5fc36288307e1a52dc38aa18856efa998a1d0240590eca1e2ad34f6f28868816"),
    (5, 6, 60, 7, "881f8f3584ff854f875d05008c0097b5577b37a7bb24c0c0ca02e7df7fc4ce13"),
    (5, 2, 6, 4, "ec46adfa9abe667dcee4ba34164698b10ce6945719734aebd35dafe553487b61"),
]


class TestInverterChain:
    def test_depth_and_gate_count(self):
        chain = inverter_chain(7)
        assert chain.n_gates == 7
        assert chain.logic_depth() == 7

    def test_single_output_marked(self):
        chain = inverter_chain(4)
        assert len(chain.primary_outputs) == 1

    def test_size_applied_to_all_gates(self):
        chain = inverter_chain(3, size=2.5)
        assert all(gate.size == pytest.approx(2.5) for gate in chain.gates.values())

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            inverter_chain(0)


class TestRandomLogicBlock:
    def test_gate_count_matches_request(self):
        block = random_logic_block("b", n_gates=60, depth=10, n_inputs=8, n_outputs=5, seed=3)
        assert block.n_gates == 60

    def test_depth_matches_request(self):
        block = random_logic_block("b", n_gates=80, depth=12, n_inputs=8, n_outputs=5, seed=3)
        assert block.logic_depth() == 12

    def test_io_counts(self):
        block = random_logic_block("b", n_gates=50, depth=9, n_inputs=11, n_outputs=6, seed=1)
        assert len(block.primary_inputs) == 11
        assert len(block.primary_outputs) == 6

    def test_deterministic_for_fixed_seed(self):
        a = random_logic_block("b", n_gates=40, depth=8, n_inputs=6, n_outputs=4, seed=9)
        b = random_logic_block("b", n_gates=40, depth=8, n_inputs=6, n_outputs=4, seed=9)
        assert [g.cell for g in a.gates.values()] == [g.cell for g in b.gates.values()]
        assert [g.fanins for g in a.gates.values()] == [g.fanins for g in b.gates.values()]

    def test_different_seeds_differ(self):
        a = random_logic_block("b", n_gates=40, depth=8, n_inputs=6, n_outputs=4, seed=9)
        b = random_logic_block("b", n_gates=40, depth=8, n_inputs=6, n_outputs=4, seed=10)
        assert [g.fanins for g in a.gates.values()] != [g.fanins for g in b.gates.values()]

    def test_acyclic(self):
        block = random_logic_block("b", n_gates=120, depth=15, n_inputs=10, n_outputs=8, seed=5)
        assert len(block.topological_order()) == 120

    @pytest.mark.parametrize("n_inputs,depth,n_gates,seed,sha256", PINNED_BLOCKS)
    def test_output_is_pinned(self, n_inputs, depth, n_gates, seed, sha256):
        block = random_logic_block(
            "b", n_gates=n_gates, depth=depth, n_inputs=n_inputs, n_outputs=1, seed=seed
        )
        assert hashlib.sha256(write_bench(block).encode("utf-8")).hexdigest() == sha256

    def test_two_inputs_and_a_three_input_cell_at_level_one_returns(self):
        """Both fanin pools are the two primary inputs, so the third pin of
        a NAND3/NOR3/AOI21/OAI21 at level 1 must repeat one of them.  Run in
        a child interpreter: a generator that loops is killed, not waited on."""
        code = (
            "from repro.circuit.generators import random_logic_block\n"
            "block = random_logic_block('b', n_gates=20, depth=3, n_inputs=2,"
            " n_outputs=1, seed=1)\n"
            "print(block.n_gates, block.logic_depth())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["20", "3"]

    def test_validation(self):
        with pytest.raises(ValueError):
            random_logic_block("b", n_gates=5, depth=10, n_inputs=3, n_outputs=2, seed=1)
        with pytest.raises(ValueError):
            random_logic_block("b", n_gates=10, depth=0, n_inputs=3, n_outputs=2, seed=1)
        with pytest.raises(ValueError):
            random_logic_block("b", n_gates=10, depth=2, n_inputs=0, n_outputs=2, seed=1)


class TestStructuredBlocks:
    def test_alu_full_has_sum_outputs(self):
        alu = alu_block(width=4, part="full")
        assert alu.n_gates > 0
        assert any(name.startswith("sum") for name in alu.primary_outputs)

    def test_alu_parts_are_smaller_than_full(self):
        full = alu_block(width=8, part="full")
        lower = alu_block(width=8, part="lower")
        upper = alu_block(width=8, part="upper")
        assert lower.n_gates < full.n_gates
        assert upper.n_gates < full.n_gates

    def test_alu_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            alu_block(width=1)
        with pytest.raises(ValueError):
            alu_block(width=4, part="middle")

    def test_alu_carry_chain_gives_depth_proportional_to_width(self):
        shallow = alu_block(width=4, part="full")
        deep = alu_block(width=8, part="full")
        assert deep.logic_depth() > shallow.logic_depth()

    def test_decoder_output_count(self):
        decoder = decoder_block(n_address=3)
        assert len(decoder.primary_outputs) == 8

    def test_decoder_depth_is_shallow(self):
        decoder = decoder_block(n_address=4)
        assert decoder.logic_depth() <= 6

    def test_decoder_rejects_bad_width(self):
        with pytest.raises(ValueError):
            decoder_block(n_address=1)
        with pytest.raises(ValueError):
            decoder_block(n_address=9)
