"""Naive reference timing kernels (retained seed implementations).

These are the original gate-at-a-time Python-loop implementations of the
STA/SSTA propagation kernels, of the netlist structure path (the FIFO
Kahn sort and the per-gate levelisation) and of the Monte-Carlo path from
sampled parameters to stage delays (the out-of-place sampler, delay model
and register overhead), kept verbatim so that:

* the property-based test suite can assert the vectorized level-parallel
  kernels in :mod:`repro.timing.sta` and :mod:`repro.timing.ssta` match them
  to tight tolerances on arbitrary DAGs, that the netlist's
  frontier-at-a-time sort reproduces the seed order and levels exactly, and
  that the Monte-Carlo engine's in-place chunk pass reproduces the seed
  samples byte for byte, and
* the performance benchmark (``benchmarks/bench_perf_timing.py``) can report
  the speedup of the compiled-schedule kernels against a fixed baseline.

The module imports nothing from the fast path (:mod:`repro.timing.sta`,
:mod:`repro.timing.ssta`, :mod:`repro.core.clark`,
:mod:`repro.process.sampling`, :mod:`repro.timing.delay_model`,
:mod:`repro.montecarlo`): the SSTA reference carries its own seed copy of
Clark's canonical-form max, :func:`canonical_max_reference`, and
:func:`monte_carlo_reference` its own sampler, delay model and cell read,
so an oracle that compares the two shares no code with the path it checks.
The structure references read only a netlist's public gate and fanin
names, never its CSR columns or schedule.  They are not used on any
production path.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Netlist
from repro.process.spatial import SpatialCorrelationModel

# The seed's degeneracy threshold: the variance of (A - B) below this
# fraction of var(A) + var(B) makes the max the larger-mean form.
_DEGENERATE_RATIO = 1e-12


def topological_order_reference(netlist: Netlist) -> list[str]:
    """Seed FIFO Kahn sort of :meth:`Netlist.topological_order`.

    Reads only the public gate names and fanin names: the gates with no gate
    fanins in name order, then first in, first out.
    """
    names = list(netlist.gates)
    fanins_of = [gate.fanins for gate in netlist.gates.values()]
    slot_of = {name: slot for slot, name in enumerate(names)}
    in_degree = [0] * len(names)
    dependents: dict[str, list[int]] = {}
    for slot, fanins in enumerate(fanins_of):
        gate_fanin_count = 0
        for fanin in fanins:
            if fanin in slot_of:
                gate_fanin_count += 1
                dependents.setdefault(fanin, []).append(slot)
        in_degree[slot] = gate_fanin_count

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
        raise ValueError(f"netlist {netlist.name!r} contains a combinational cycle")
    return [names[slot] for slot in order]


def levels_reference(netlist: Netlist) -> np.ndarray:
    """Seed per-gate levelisation of :meth:`Netlist.levels` (1-based).

    One forward pass over :func:`topological_order_reference`: a gate sits
    one level above its deepest gate fanin.
    """
    order = topological_order_reference(netlist)
    position_of = {name: position for position, name in enumerate(order)}
    fanin_lists = [
        [position_of[f] for f in netlist.gate(name).fanins if f in position_of]
        for name in order
    ]
    levels = np.zeros(len(order), dtype=np.int32)
    for gate_pos, gate_fanins in enumerate(fanin_lists):
        if gate_fanins:
            deepest = levels[gate_fanins[0]]
            for fanin_pos in gate_fanins[1:]:
                if levels[fanin_pos] > deepest:
                    deepest = levels[fanin_pos]
            levels[gate_pos] = deepest + 1
    return levels.astype(int) + 1


def arrival_times_reference(netlist: Netlist, gate_delays: np.ndarray) -> np.ndarray:
    """Seed implementation of :func:`repro.timing.sta.arrival_times`."""
    gate_delays = np.asarray(gate_delays, dtype=float)
    fanins = netlist.fanin_indices()
    n_gates = len(fanins)
    if gate_delays.shape[-1] != n_gates:
        raise ValueError(
            f"gate_delays last dimension must be {n_gates}, got {gate_delays.shape}"
        )
    arrivals = np.zeros_like(gate_delays)
    if gate_delays.ndim == 1:
        for gate_pos, gate_fanins in enumerate(fanins):
            latest = 0.0
            for fanin_pos in gate_fanins:
                if arrivals[fanin_pos] > latest:
                    latest = arrivals[fanin_pos]
            arrivals[gate_pos] = latest + gate_delays[gate_pos]
    elif gate_delays.ndim == 2:
        for gate_pos, gate_fanins in enumerate(fanins):
            if gate_fanins:
                latest = arrivals[:, gate_fanins[0]]
                for fanin_pos in gate_fanins[1:]:
                    latest = np.maximum(latest, arrivals[:, fanin_pos])
                arrivals[:, gate_pos] = latest + gate_delays[:, gate_pos]
            else:
                arrivals[:, gate_pos] = gate_delays[:, gate_pos]
    else:
        raise ValueError(
            f"gate_delays must be 1-D or 2-D, got {gate_delays.ndim} dimensions"
        )
    return arrivals


def required_times_reference(
    netlist: Netlist, gate_delays: np.ndarray, target: float
) -> np.ndarray:
    """Seed implementation of :func:`repro.timing.sta.required_times`."""
    gate_delays = np.asarray(gate_delays, dtype=float)
    if gate_delays.ndim != 1:
        raise ValueError("required_times expects a 1-D delay vector")
    fanouts = netlist.fanout_indices()
    n_gates = len(fanouts)
    mask = netlist.output_mask()
    if not mask.any():
        mask = np.array([not f for f in fanouts], dtype=bool)
    required = np.full(n_gates, np.inf)
    required[mask] = target
    for gate_pos in range(n_gates - 1, -1, -1):
        for fanout_pos in fanouts[gate_pos]:
            candidate = required[fanout_pos] - gate_delays[fanout_pos]
            if candidate < required[gate_pos]:
                required[gate_pos] = candidate
    required[np.isinf(required)] = target
    return required


def canonical_max_reference(
    mean_a: float,
    sens_a: np.ndarray,
    rand_a: float,
    mean_b: float,
    sens_b: np.ndarray,
    rand_b: float,
) -> tuple[float, np.ndarray, float]:
    """Seed scalar Clark max of two canonical forms, returned as raw components."""
    from scipy.stats import norm

    var_a = float(np.dot(sens_a, sens_a) + rand_a * rand_a)
    var_b = float(np.dot(sens_b, sens_b) + rand_b * rand_b)
    cov_ab = float(np.dot(sens_a, sens_b))
    theta_sq = var_a + var_b - 2.0 * cov_ab
    if var_a + var_b <= 0.0 or theta_sq <= _DEGENERATE_RATIO * (var_a + var_b):
        # The two quantities are (numerically) the same random variable up to
        # a constant shift; the max is simply the one with the larger mean.
        if mean_a >= mean_b:
            return mean_a, sens_a.copy(), rand_a
        return mean_b, sens_b.copy(), rand_b
    theta = theta_sq**0.5
    alpha = (mean_a - mean_b) / theta
    prob_a = float(norm.cdf(alpha))
    prob_b = 1.0 - prob_a
    phi = float(norm.pdf(alpha))
    mean_max = mean_a * prob_a + mean_b * prob_b + theta * phi
    second_moment = (
        (mean_a**2 + var_a) * prob_a
        + (mean_b**2 + var_b) * prob_b
        + (mean_a + mean_b) * theta * phi
    )
    var_max = max(second_moment - mean_max**2, 0.0)
    sens_max = prob_a * sens_a + prob_b * sens_b
    residual = var_max - float(np.dot(sens_max, sens_max))
    rand_max = residual**0.5 if residual > 0.0 else 0.0
    return mean_max, sens_max, rand_max


def arrival_components_reference(
    analyzer, netlist: Netlist, sizes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed implementation of ``StatisticalTimingAnalyzer.arrival_components``.

    Performs one scalar Clark max per fanin pair, walking the DAG gate by
    gate.  ``analyzer`` is a :class:`repro.timing.ssta.StatisticalTimingAnalyzer`.
    """
    means, sens, rands = analyzer.gate_delay_components(netlist, sizes)
    fanins = netlist.fanin_indices()
    n_gates = means.shape[0]
    arr_mean = np.zeros(n_gates)
    arr_sens = np.zeros((n_gates, analyzer.n_factors))
    arr_rand = np.zeros(n_gates)
    for gate_pos, gate_fanins in enumerate(fanins):
        if gate_fanins:
            best_mean = arr_mean[gate_fanins[0]]
            best_sens = arr_sens[gate_fanins[0]]
            best_rand = arr_rand[gate_fanins[0]]
            for fanin_pos in gate_fanins[1:]:
                best_mean, best_sens, best_rand = canonical_max_reference(
                    best_mean,
                    best_sens,
                    best_rand,
                    arr_mean[fanin_pos],
                    arr_sens[fanin_pos],
                    arr_rand[fanin_pos],
                )
        else:
            best_mean = 0.0
            best_sens = np.zeros(analyzer.n_factors)
            best_rand = 0.0
        arr_mean[gate_pos] = best_mean + means[gate_pos]
        arr_sens[gate_pos] = best_sens + sens[gate_pos]
        arr_rand[gate_pos] = float(np.hypot(best_rand, rands[gate_pos]))
    return arr_mean, arr_sens, arr_rand


def correlation_matrix_reference(forms: list) -> np.ndarray:
    """Seed implementation of ``StatisticalTimingAnalyzer.correlation_matrix``."""
    n = len(forms)
    matrix = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            rho = forms[i].correlation(forms[j])
            matrix[i, j] = rho
            matrix[j, i] = rho
    return matrix


def sample_parameters_reference(
    technology,
    variation,
    spatial: SpatialCorrelationModel,
    sizes: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed ``ParameterSampler.sample``: ``(vth, length, inter_die_vth_shift)``.

    Out of place, with the seed's ``cell_samples[:, cells]`` read.
    """
    sizes = np.asarray(sizes, dtype=float)
    tech = technology
    var = variation
    n_devices = sizes.shape[0]

    inter_vth = var.sigma_vth_inter * rng.standard_normal(n_samples)
    inter_l = var.sigma_l_inter * rng.standard_normal(n_samples)

    if var.has_intra_random:
        random_vth = (
            var.sigma_vth_random
            / np.sqrt(sizes)[None, :]
            * rng.standard_normal((n_samples, n_devices))
        )
    else:
        random_vth = np.zeros((n_samples, n_devices))

    if var.has_intra_systematic:
        cells = spatial.cell_index(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        cell_samples = spatial.sample_cells(n_samples, rng)
        field = cell_samples[:, cells]
        systematic_vth = var.sigma_vth_systematic * field
        systematic_l = var.sigma_l_systematic * field
    else:
        systematic_vth = np.zeros((n_samples, n_devices))
        systematic_l = np.zeros((n_samples, n_devices))

    vth = tech.vth0 + inter_vth[:, None] + random_vth + systematic_vth
    vth = np.clip(vth, 0.0, tech.vdd - 0.05)

    length = tech.lmin * (1.0 + inter_l[:, None] + systematic_l)
    length = np.clip(length, 0.25 * tech.lmin, 4.0 * tech.lmin)
    return vth, length, inter_vth


def nominal_delays_reference(technology, netlist: Netlist) -> np.ndarray:
    """Seed ``GateDelayModel.nominal_delays`` at the netlist's sizes."""
    tech = technology
    sizes = netlist.sizes()
    coeffs = netlist.cell_coefficients()
    loads = netlist.load_capacitances(sizes)
    drive_resistance = tech.r_unit / sizes
    parasitic_cap = coeffs["parasitic_delay"] * tech.c_par_unit * sizes
    return drive_resistance * (parasitic_cap + loads)


def delay_samples_reference(
    technology,
    nominal: np.ndarray,
    vth_samples: np.ndarray,
    length_samples: np.ndarray | None = None,
) -> np.ndarray:
    """Seed ``GateDelayModel.delay_samples`` (with its ``drive_factors``)."""
    tech = technology
    vth_samples = np.asarray(vth_samples, dtype=float)
    overdrive = tech.vdd - vth_samples
    if np.any(overdrive <= 0.0):
        raise ValueError(
            "sampled threshold voltage reaches the supply; clamp samples "
            "before computing delays"
        )
    factor = (tech.gate_overdrive / overdrive) ** tech.alpha
    if length_samples is not None:
        factor = factor * (np.asarray(length_samples, dtype=float) / tech.lmin)
    return nominal[None, :] * factor


def overhead_samples_reference(
    flipflop, technology, vth_samples: np.ndarray, length_samples: np.ndarray | None = None
) -> np.ndarray:
    """Seed ``FlipFlopTiming.overhead_samples``."""
    vth_samples = np.asarray(vth_samples, dtype=float)
    if length_samples is None:
        length_ratio = 1.0
    else:
        length_ratio = np.asarray(length_samples, dtype=float) / technology.lmin
    overdrive_ratio = technology.gate_overdrive / (technology.vdd - vth_samples)
    drive_factor = overdrive_ratio**technology.alpha * length_ratio
    return flipflop.nominal_overhead(technology) * drive_factor


def monte_carlo_reference(
    stages,
    variation,
    technology,
    n_samples: int,
    seed,
    grid_size: int = 8,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Seed Monte-Carlo stage delays, ``(n_samples, n_stages)``.

    The loop of ``MonteCarloEngine.run_pipeline`` (and, for one stage, of
    ``run_stage``) over the seed sampler, delay model, register overhead
    and :func:`arrival_times_reference`, drawing from
    ``numpy.random.default_rng(seed)`` in the engine's chunk order.
    """
    rng = np.random.default_rng(seed)
    spatial = SpatialCorrelationModel(grid_size, variation.correlation_length)
    sizes, xs, ys = [], [], []
    for stage in stages:
        stage_x, stage_y = stage.netlist.positions()
        reg_x, reg_y = stage.register_position
        sizes.append(np.concatenate([stage.netlist.sizes(), [stage.flipflop.size]]))
        xs.append(np.concatenate([stage_x, [reg_x]]))
        ys.append(np.concatenate([stage_y, [reg_y]]))
    sizes, xs, ys = np.concatenate(sizes), np.concatenate(xs), np.concatenate(ys)
    if chunk_size is None or chunk_size >= n_samples:
        chunks = [n_samples]
    else:
        full, rest = divmod(n_samples, chunk_size)
        chunks = [chunk_size] * full + ([rest] if rest else [])

    stage_delays = np.zeros((n_samples, len(stages)))
    sample_offset = 0
    for count in chunks:
        vth, length, _ = sample_parameters_reference(
            technology, variation, spatial, sizes, xs, ys, count, rng
        )
        device_offset = 0
        for index, stage in enumerate(stages):
            netlist = stage.netlist
            n_gates = netlist.n_gates
            gate_cols = slice(device_offset, device_offset + n_gates)
            register_col = device_offset + n_gates
            if n_gates > 0:
                delays = delay_samples_reference(
                    technology,
                    nominal_delays_reference(technology, netlist),
                    vth[:, gate_cols],
                    length[:, gate_cols],
                )
                arrivals = arrival_times_reference(netlist, delays)
                mask = netlist.output_mask()
                if not mask.any():
                    mask = np.ones(n_gates, dtype=bool)
                comb = arrivals[:, mask].max(axis=1)
            else:
                comb = np.zeros(count)
            overhead = overhead_samples_reference(
                stage.flipflop, technology, vth[:, register_col], length[:, register_col]
            )
            stage_delays[sample_offset : sample_offset + count, index] = comb + overhead
            device_offset += n_gates + 1
        sample_offset += count
    return stage_delays
