"""Deterministic static timing analysis.

Propagates arrival times through a :class:`~repro.circuit.netlist.Netlist`:

    arrival(g) = max over fanins f of arrival(f) + delay(g)

Primary inputs arrive at time zero.  The functions accept either a single
per-gate delay vector (shape ``(n_gates,)``) or a matrix of per-sample
delays (shape ``(n_samples, n_gates)``).

The kernels run on the netlist's compiled :class:`~repro.circuit.schedule.TimingSchedule`:
gates are processed level by level, and within a level the max over every
gate's fanins -- across *all* Monte-Carlo samples at once -- is a single
gather plus ``np.maximum.reduceat``.  Compared to the seed's gate-at-a-time
Python loop this removes the per-gate interpreter overhead that dominated
``MonteCarloEngine.run_pipeline``; the naive loop survives in
:mod:`repro.timing.reference` as the correctness oracle.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Netlist


# Sample-block byte target for the 2-D kernel: one arrival block plus one
# delay block should sit inside a typical L2 cache while the level loop's
# Python overhead stays amortised over enough samples.
_BLOCK_BYTES = 1 << 20


def _propagate_block(schedule, delays: np.ndarray, arrivals: np.ndarray) -> None:
    """Forward-propagate one (contiguous) batch of sample rows in place.

    ``delays``/``arrivals`` are ``(n_rows, n_gates)`` (or 1-D) views.  Each
    level performs ONE fancy gather of every fanin arrival in rank-major
    order (``LevelMaxPlan.edge_cols``) and folds the pin ranks with plain
    contiguous-slice maximums -- the max is exact, so any fold order
    reproduces the naive per-gate loop bit for bit.
    """
    for plan in schedule.level_plans:
        gates = plan.gates
        if plan.edge_cols is None:
            # Source gates: arrival is just the gate's own delay.
            arrivals[..., gates] = delays[..., gates]
            continue
        width = plan.width
        gathered = arrivals[..., plan.edge_cols]
        latest = gathered[..., :width]
        offset = width
        for rank_count in plan.rank_counts:
            np.maximum(
                latest[..., :rank_count],
                gathered[..., offset : offset + rank_count],
                out=latest[..., :rank_count],
            )
            offset += rank_count
        latest += delays[..., gates]
        arrivals[..., gates] = latest


def _propagate_rows(
    schedule, delays: np.ndarray, arrivals: np.ndarray, block: int
) -> None:
    """Forward-propagate ``(n_rows, n_gates)`` sample rows in L2-sized blocks."""
    n_rows = delays.shape[0]
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        _propagate_block(schedule, delays[start:stop], arrivals[start:stop])


def arrival_times(
    netlist: Netlist,
    gate_delays: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Arrival time at the output of every gate.

    Parameters
    ----------
    netlist:
        Netlist to analyse.
    gate_delays:
        Per-gate delays in topological order: either ``(n_gates,)`` or
        ``(n_samples, n_gates)``.
    out:
        Optional preallocated result array of the same shape and dtype.
        Streaming callers (the chunked Monte-Carlo engine, the sizers' inner
        loops) pass a reused workspace here: for large sample blocks the
        page-fault cost of a fresh allocation rivals the propagation itself.

    Returns
    -------
    numpy.ndarray
        Arrival times with the same shape as ``gate_delays`` (``out`` when
        it was provided).
    """
    gate_delays = np.asarray(gate_delays, dtype=float)
    schedule = netlist.timing_schedule()
    if gate_delays.shape[-1] != schedule.n_gates:
        raise ValueError(
            f"gate_delays last dimension must be {schedule.n_gates}, "
            f"got {gate_delays.shape}"
        )
    if gate_delays.ndim not in (1, 2):
        raise ValueError(
            f"gate_delays must be 1-D or 2-D, got {gate_delays.ndim} dimensions"
        )
    if out is None:
        arrivals = np.empty_like(gate_delays)
    else:
        if out.shape != gate_delays.shape or out.dtype != gate_delays.dtype:
            raise ValueError(
                f"out must match gate_delays (shape {gate_delays.shape}, "
                f"dtype {gate_delays.dtype}), got shape {out.shape}, "
                f"dtype {out.dtype}"
            )
        arrivals = out
    if gate_delays.ndim == 1:
        _propagate_block(schedule, gate_delays, arrivals)
        return arrivals
    # 2-D: process sample rows in cache-sized blocks.  Gates in one level are
    # mutually independent, so each block streams through the level sequence
    # with its whole working set resident in L2.
    block = max(16, _BLOCK_BYTES // max(8 * schedule.n_gates, 1))
    _propagate_rows(schedule, gate_delays, arrivals, block)
    return arrivals


def max_delay(
    netlist: Netlist,
    gate_delays: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray | float:
    """Maximum arrival time over the primary outputs.

    If no primary outputs are marked, the maximum over all gates is used
    (every path must terminate somewhere).

    ``out`` is an optional arrival-time workspace, forwarded to
    :func:`arrival_times`.

    Returns a scalar for 1-D delays, or an ``(n_samples,)`` array for 2-D.
    """
    arrivals = arrival_times(netlist, gate_delays, out=out)
    mask = netlist.output_mask()
    if not mask.any():
        mask = np.ones(arrivals.shape[-1], dtype=bool)
    if arrivals.ndim == 1:
        return float(arrivals[mask].max())
    return arrivals[:, mask].max(axis=1)


def required_times(
    netlist: Netlist, gate_delays: np.ndarray, target: float | np.ndarray
) -> np.ndarray:
    """Latest allowed arrival time at every gate output for a delay target.

    Propagated backwards from the primary outputs:
    ``required(g) = min over fanouts h of (required(h) - delay(h))``,
    with ``required = target`` at the primary outputs (or at sink gates when
    no outputs are marked).  ``gate_delays`` is a 1-D delay vector, or
    ``(k, n_gates)`` rows with ``target`` a scalar or one target per row;
    each row of the result is the same bits as that row's 1-D call.

    The backward walk mirrors the forward kernel: levels are visited from
    deepest to shallowest, and each level's min over fanouts is one gather
    plus ``np.minimum.reduceat`` (a gate's fanouts always sit at strictly
    higher levels, so they are final by the time the gate is visited).
    """
    gate_delays = np.asarray(gate_delays, dtype=float)
    if gate_delays.ndim not in (1, 2):
        raise ValueError(
            "required_times expects a 1-D delay vector or (k, n_gates) rows"
        )
    schedule = netlist.timing_schedule()
    n_gates = schedule.n_gates
    if gate_delays.shape[-1] != n_gates:
        raise ValueError(
            f"gate_delays must have length {n_gates}, got {gate_delays.shape}"
        )
    mask = netlist.output_mask()
    if not mask.any():
        mask = schedule.fanout_counts == 0
    targets = np.asarray(target, dtype=float)
    rows = gate_delays.shape[0] if gate_delays.ndim == 2 else 1
    if gate_delays.ndim == 2 and targets.ndim == 1:
        targets = targets[:, None]
    required = np.full(gate_delays.shape, np.inf)
    np.copyto(required, targets, where=mask)
    # Rows run as one flat vector: row r's copy of a level's gate and edge
    # indices is offset by r * n_gates (its segment starts by r times the
    # level's edge count), so each row takes the 1-D walk's operations on
    # its own entries (the min is exact and the subtraction elementwise)
    # and is the same bits as its own call.
    flat_required = required.reshape(-1)
    flat_delays = np.ascontiguousarray(gate_delays).reshape(-1)
    row_starts = np.arange(rows)[:, None]
    for level in range(schedule.n_levels - 1, -1, -1):
        gates = schedule.rev_level_gates[level]
        if gates.shape[0] == 0:
            continue
        edges = schedule.rev_level_edges[level]
        segments = schedule.rev_level_seg[level]
        if rows != 1:
            gates = (gates + n_gates * row_starts).ravel()
            segments = (segments + edges.shape[0] * row_starts).ravel()
            edges = (edges + n_gates * row_starts).ravel()
        candidates = flat_required[edges] - flat_delays[edges]
        tightest = np.minimum.reduceat(candidates, segments)
        flat_required[gates] = np.minimum(flat_required[gates], tightest)
    # Sink gates that are not marked outputs still default to the target.
    np.copyto(required, targets, where=np.isinf(required))
    return required


def slacks(netlist: Netlist, gate_delays: np.ndarray, target: float) -> np.ndarray:
    """Per-gate slack (required minus arrival) for a delay target."""
    arrivals = arrival_times(netlist, gate_delays)
    required = required_times(netlist, gate_delays, target)
    return required - arrivals


def critical_path_positions(netlist: Netlist, arrivals: np.ndarray) -> list[int]:
    """Topological positions on the longest path, from first gate to output.

    ``arrivals`` are a 1-D vector of :func:`arrival_times`.  The path ends
    at the latest primary output (the latest gate when none is marked) and
    walks back through each gate's latest fanin, the first in pin order on
    a tie.  The greedy sizer reads it every move, so it stays in positions.
    """
    schedule = netlist.timing_schedule()
    mask = netlist.output_mask()
    if not mask.any():
        mask = np.ones(arrivals.shape[0], dtype=bool)

    candidates = np.flatnonzero(mask)
    current = int(candidates[arrivals[candidates].argmax()])
    # The walk reads the fanin CSR directly and calls the ``argmax`` method:
    # ~1.5 us per step against ~2.7 us through ``fanins_of`` and
    # ``np.argmax`` (2-vCPU x86 host), and the greedy sizer walks 10-40
    # steps every move.
    ptr, idx = schedule.fanin_ptr, schedule.fanin_idx
    path_positions = [current]
    start, stop = ptr[current], ptr[current + 1]
    while start < stop:
        fanins = idx[start:stop]
        current = int(fanins[arrivals[fanins].argmax()])
        path_positions.append(current)
        start, stop = ptr[current], ptr[current + 1]
    path_positions.reverse()
    return path_positions


def critical_path(
    netlist: Netlist,
    gate_delays: np.ndarray,
    arrivals: np.ndarray | None = None,
) -> list[str]:
    """Gate names on the longest path, from first gate to primary output.

    Only defined for 1-D delay vectors.

    Parameters
    ----------
    arrivals:
        Optional precomputed arrival times for ``gate_delays`` (as returned
        by :func:`arrival_times`); callers that already hold them avoid a
        redundant full propagation.
    """
    gate_delays = np.asarray(gate_delays, dtype=float)
    if gate_delays.ndim != 1:
        raise ValueError("critical_path expects a 1-D delay vector")
    if arrivals is None:
        arrivals = arrival_times(netlist, gate_delays)
    else:
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.shape != gate_delays.shape:
            raise ValueError(
                f"arrivals shape {arrivals.shape} does not match "
                f"gate_delays shape {gate_delays.shape}"
            )
    order = netlist.topological_order()
    return [order[pos] for pos in critical_path_positions(netlist, arrivals)]
