"""Naive reference timing kernels (retained seed implementations).

These are the original gate-at-a-time Python-loop implementations of the
STA/SSTA propagation kernels and of the netlist structure path (the FIFO
Kahn sort and the per-gate levelisation), kept verbatim so that:

* the property-based test suite can assert the vectorized level-parallel
  kernels in :mod:`repro.timing.sta` and :mod:`repro.timing.ssta` match them
  to tight tolerances on arbitrary DAGs, and that the netlist's
  frontier-at-a-time sort reproduces the seed order and levels exactly,
  and
* the performance benchmark (``benchmarks/bench_perf_timing.py``) can report
  the speedup of the compiled-schedule kernels against a fixed baseline.

The module imports nothing from the fast path (:mod:`repro.timing.sta`,
:mod:`repro.timing.ssta`, :mod:`repro.core.clark`): the SSTA reference
carries its own seed copy of Clark's canonical-form max,
:func:`canonical_max_reference`, so an oracle that compares the two shares
no code with the path it checks.  The structure references read only a
netlist's public gate and fanin names, never its CSR columns or schedule.
They are not used on any production path.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Netlist

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
