"""Compiled timing schedule: levelized CSR view of a netlist DAG.

Every hot path in the repository -- deterministic STA over Monte-Carlo
sample blocks, canonical-form SSTA, and the inner loops of the sizers --
needs the same two pieces of structural information about a netlist:

* the fanin/fanout adjacency, and
* an evaluation order in which a gate is visited only after its fanins.

The seed implementation stored the adjacency as Python lists-of-lists and
walked the DAG one gate at a time, which made the per-gate Python overhead
the dominant cost of ``MonteCarloEngine.run_pipeline`` and of every sizing
move.  A :class:`TimingSchedule` compiles the structure once into flat
``int32`` CSR arrays plus a *levelization*: gates are grouped by logic level
(level 0 = gates with no gate fanins, level ``l`` = gates whose deepest gate
fanin sits at level ``l - 1``).  All gates within a level are mutually
independent, so a timing kernel can process an entire level -- and an entire
block of Monte-Carlo samples -- with a handful of NumPy gather/``reduceat``
operations instead of a Python loop.

:func:`compile_schedule` takes the structure as the netlist's rebuild
leaves it: the gate-fanin CSR in topological indexing and each position's
level, non-decreasing.  Every level is then a contiguous range of
positions, so its fanin and fanout entries are contiguous CSR slices and
compiling costs a fixed handful of NumPy calls per level.

The schedule is immutable and versioned.  :meth:`repro.circuit.netlist.Netlist.timing_schedule`
caches one per structural version of the netlist and rebuilds it lazily
through the existing ``_ensure_current()`` mechanism, so the sizers can
mutate sizes thousands of times without ever re-deriving structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def gather_rows(ptr: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenate the entries of the CSR rows ``rows``, in the order given.

    One ``repeat`` plus one ``arange`` turn the rows' start offsets into the
    flat positions of their entries, so the gather costs a fixed handful of
    NumPy calls however many rows it spans.
    """
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.shape[0] else 0
    return idx[np.repeat(starts - (ends - counts), counts) + np.arange(total)]


def expand_csr_rows(
    ptr: np.ndarray, idx: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the CSR entries of a subset of rows.

    Returns ``(flat, owner)`` where ``flat`` concatenates ``idx`` entries of
    the requested rows (in row order) and ``owner[i]`` is the position in
    ``rows`` that ``flat[i]`` belongs to.  This is the building block the
    sizers use to evaluate per-move quantities over just the critical-path
    gates without a Python loop.
    """
    rows = np.asarray(rows, dtype=np.int64)
    counts = ptr[rows + 1] - ptr[rows]
    owner = np.repeat(np.arange(rows.shape[0], dtype=np.int64), counts)
    return gather_rows(ptr, idx, rows), owner


@dataclass(frozen=True)
class LevelMaxPlan:
    """Precompiled fanin-max plan for one logic level.

    ``gates`` lists the level's gates sorted by fanin count (descending), so
    the gates still needing their ``j``-th fanin folded in are always a
    prefix of the batch.  ``edge_cols`` concatenates the fanin indices
    rank-major -- first every gate's pin-0 fanin, then the pin-1 fanins of
    the ``rank_counts[0]`` gates that have one, and so on -- which lets the
    forward kernel gather all of a level's fanin arrivals with ONE fancy
    index and fold the ranks with plain contiguous-slice maximums.
    ``edge_cols`` is ``None`` for level 0 (source gates, no fanins).
    """

    gates: np.ndarray
    edge_cols: np.ndarray | None
    width: int
    rank_counts: tuple[int, ...]


@dataclass(frozen=True)
class TimingSchedule:
    """Flattened, levelized structure of one netlist version.

    Attributes
    ----------
    version:
        Structural version of the owning netlist this schedule was compiled
        from; ``Netlist.timing_schedule()`` discards the cache when the
        version moves on.
    n_gates, n_edges:
        Gate and timing-arc counts.
    fanin_ptr, fanin_idx:
        CSR adjacency of gate fanins: the fanins of gate ``g`` are
        ``fanin_idx[fanin_ptr[g]:fanin_ptr[g + 1]]`` in pin order.
    fanout_ptr, fanout_idx:
        CSR adjacency of gate fanouts (inverse of the fanin arcs).
    edge_owner:
        For every fanin arc, the gate that owns it (``len == n_edges``);
        combined with ``fanin_idx`` this is the full (source, destination)
        edge list.
    levels:
        0-based logic level per gate (topological indexing).
    level_gates:
        Per level, the gate positions at that level (sorted ascending).
    level_edges / level_seg:
        Per level ``l >= 1``, the concatenated fanin indices of that level's
        gates and the ``reduceat`` segment starts delimiting each gate's
        fanins.  Every gate above level 0 has at least one fanin, so the
        segments are never empty and ``np.maximum.reduceat`` applies directly.
    rev_level_gates / rev_level_edges / rev_level_seg:
        The mirror-image structures over *fanouts*, restricted to gates that
        have at least one fanout, used by the backward (required-time)
        propagation.
    level_plans:
        One :class:`LevelMaxPlan` per level: the rank-major fanin gather
        plan the forward arrival kernel uses instead of ``reduceat`` (one
        fancy gather per level, then contiguous-slice maximums).
    """

    version: int
    n_gates: int
    n_edges: int
    fanin_ptr: np.ndarray
    fanin_idx: np.ndarray
    fanout_ptr: np.ndarray
    fanout_idx: np.ndarray
    edge_owner: np.ndarray
    levels: np.ndarray
    level_gates: tuple[np.ndarray, ...]
    level_edges: tuple[np.ndarray, ...]
    level_seg: tuple[np.ndarray, ...]
    rev_level_gates: tuple[np.ndarray, ...] = field(repr=False, default=())
    rev_level_edges: tuple[np.ndarray, ...] = field(repr=False, default=())
    rev_level_seg: tuple[np.ndarray, ...] = field(repr=False, default=())
    level_plans: tuple[LevelMaxPlan, ...] = field(repr=False, default=())

    @property
    def n_levels(self) -> int:
        """Number of logic levels (0 for an empty netlist)."""
        return len(self.level_gates)

    @property
    def fanout_counts(self) -> np.ndarray:
        """Number of fanouts of every gate (topological indexing)."""
        return self.fanout_ptr[1:] - self.fanout_ptr[:-1]

    def fanins_of(self, gate_pos: int) -> np.ndarray:
        """Fanin positions of one gate as an array view."""
        return self.fanin_idx[self.fanin_ptr[gate_pos] : self.fanin_ptr[gate_pos + 1]]

    def fanouts_of(self, gate_pos: int) -> np.ndarray:
        """Fanout positions of one gate as an array view."""
        return self.fanout_idx[self.fanout_ptr[gate_pos] : self.fanout_ptr[gate_pos + 1]]


def compile_schedule(
    fanin_ptr: np.ndarray,
    fanin_idx: np.ndarray,
    levels: np.ndarray,
    version: int,
) -> TimingSchedule:
    """Compile a levelised fanin CSR into a :class:`TimingSchedule`.

    ``fanin_ptr``/``fanin_idx`` (``int32``) are the gate-fanin CSR in
    topological indexing and ``levels`` (``int32``) the 0-based logic level
    of every position, non-decreasing -- what ``Netlist._rebuild``'s
    frontier sort produces.  Each level is therefore one contiguous range
    of positions, and its fanin and fanout entries are contiguous slices of
    the two CSR index arrays.
    """
    n_gates = levels.shape[0]
    if n_gates and np.any(levels[1:] < levels[:-1]):
        raise ValueError("compile_schedule needs levels sorted by position")
    counts = fanin_ptr[1:] - fanin_ptr[:-1]
    edge_owner = np.repeat(np.arange(n_gates, dtype=np.int32), counts)
    # Fanouts are the fanin arcs sorted by source; a stable sort keeps each
    # source's destinations ascending, repeated pins included.
    fanout_idx = edge_owner[np.argsort(fanin_idx, kind="stable")]
    fanout_ptr = np.zeros(n_gates + 1, dtype=np.int32)
    np.cumsum(np.bincount(fanin_idx, minlength=n_gates), out=fanout_ptr[1:])

    n_levels = int(levels[-1]) + 1 if n_gates else 0
    bounds = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(np.bincount(levels, minlength=n_levels), out=bounds[1:])
    positions = np.arange(n_gates, dtype=np.int32)
    level_gates: list[np.ndarray] = []
    level_edges: list[np.ndarray] = []
    level_seg: list[np.ndarray] = []
    level_plans: list[LevelMaxPlan] = []
    rev_level_gates: list[np.ndarray] = []
    rev_level_edges: list[np.ndarray] = []
    rev_level_seg: list[np.ndarray] = []
    for level, (start, stop) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        gates = positions[start:stop]
        level_gates.append(gates)
        if level == 0:
            level_edges.append(np.zeros(0, dtype=np.int32))
            level_seg.append(np.zeros(0, dtype=np.int32))
            level_plans.append(
                LevelMaxPlan(
                    gates=gates.astype(np.intp),
                    edge_cols=None,
                    width=int(gates.shape[0]),
                    rank_counts=(),
                )
            )
        else:
            first_edge = fanin_ptr[start]
            level_edges.append(fanin_idx[first_edge : fanin_ptr[stop]])
            level_seg.append((fanin_ptr[start:stop] - first_edge).astype(np.int64))
            # Rank-major max plan: sort the level's gates by fanin count
            # (descending, stable) so every rank applies to a prefix, then
            # concatenate fanin indices pin-rank by pin-rank.
            seg_counts = counts[start:stop]
            order = np.argsort(-seg_counts, kind="stable")
            plan_gates = gates[order].astype(np.intp)
            plan_counts = seg_counts[order]
            starts = fanin_ptr[plan_gates].astype(np.int64)
            columns = [fanin_idx[starts].astype(np.intp)]
            rank_counts: list[int] = []
            for rank in range(1, int(plan_counts[0])):
                k = int((plan_counts > rank).sum())
                columns.append(fanin_idx[starts[:k] + rank].astype(np.intp))
                rank_counts.append(k)
            level_plans.append(
                LevelMaxPlan(
                    gates=plan_gates,
                    edge_cols=np.concatenate(columns),
                    width=int(plan_gates.shape[0]),
                    rank_counts=tuple(rank_counts),
                )
            )
        # Backward structures: only gates with at least one fanout, so the
        # reduceat segments stay non-empty.
        out_starts = fanout_ptr[start : stop + 1]
        has_fanouts = out_starts[1:] > out_starts[:-1]
        rev_level_gates.append(gates[has_fanouts])
        rev_level_edges.append(fanout_idx[out_starts[0] : out_starts[-1]])
        rev_level_seg.append(
            (out_starts[:-1][has_fanouts] - out_starts[0]).astype(np.int64)
        )

    return TimingSchedule(
        version=version,
        n_gates=n_gates,
        n_edges=int(fanin_ptr[-1]) if n_gates else 0,
        fanin_ptr=fanin_ptr,
        fanin_idx=fanin_idx,
        fanout_ptr=fanout_ptr,
        fanout_idx=fanout_idx,
        edge_owner=edge_owner,
        levels=levels,
        level_gates=tuple(level_gates),
        level_edges=tuple(level_edges),
        level_seg=tuple(level_seg),
        rev_level_gates=tuple(rev_level_gates),
        rev_level_edges=tuple(rev_level_edges),
        rev_level_seg=tuple(rev_level_seg),
        level_plans=tuple(level_plans),
    )
