"""Block-based statistical static timing analysis (SSTA).

The paper feeds its pipeline-level model with per-stage delay means and
standard deviations obtained from SPICE Monte-Carlo.  This module provides
the analytical alternative: a first-order canonical-form SSTA engine that
computes the distribution of a stage's combinational delay (and the full
stage delay including sequential overhead) directly from the netlist, the
delay model and the variation model -- no sampling.

Canonical form
--------------
Every timing quantity is represented as

    T = mean + sum_j s_j * Z_j + r * R

where the ``Z_j`` are independent standard-normal *global* factors shared by
all gates (inter-die Vth, inter-die channel length, and the principal
components of the spatially correlated intra-die field) and ``R`` is an
independent standard-normal variable private to this quantity.  Sums add
means and sensitivities and combine the private parts in quadrature; the
max of two forms uses Clark's moment-matching approximation with the tightness
probability splitting the sensitivities.  One such max, built on
:func:`repro.core.clark.clark_max`, serves :meth:`CanonicalForm.maximum`, the
per-level fanin fold and the primary-output fold.

The same factor basis is shared by every stage of a pipeline analysed by one
:class:`StatisticalTimingAnalyzer`, so the covariance between stage delays
(through the shared inter-die factors and overlapping spatial components)
falls directly out of the canonical forms -- exactly the correlation the
paper's pipeline model needs.

``stage_delay`` and ``combinational_delay`` also take ``(k, n_gates)`` size
rows and propagate them through shared level loops.  The stage sizers
embed :class:`MemoizedTimingAnalyzer`, which keeps a bounded memo of stage
forms keyed by their content.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.circuit.flipflop import FlipFlopTiming
from repro.circuit.netlist import Netlist
from repro.core.clark import clark_max
from repro.process.spatial import SpatialCorrelationModel
from repro.process.technology import Technology
from repro.process.variation import VariationModel
from repro.timing.delay_model import GateDelayModel


@dataclass(frozen=True)
class CanonicalForm:
    """First-order canonical representation of a Gaussian timing quantity."""

    mean: float
    sensitivities: np.ndarray
    sigma_random: float

    @property
    def variance(self) -> float:
        """Total variance (global sensitivities plus private part)."""
        return float(np.dot(self.sensitivities, self.sensitivities) + self.sigma_random**2)

    @property
    def sigma(self) -> float:
        """Total standard deviation."""
        return self.variance**0.5

    def covariance(self, other: "CanonicalForm") -> float:
        """Covariance with another form sharing the same factor basis."""
        if self.sensitivities.shape != other.sensitivities.shape:
            raise ValueError(
                "canonical forms have incompatible factor bases: "
                f"{self.sensitivities.shape} vs {other.sensitivities.shape}"
            )
        return float(np.dot(self.sensitivities, other.sensitivities))

    def correlation(self, other: "CanonicalForm") -> float:
        """Correlation coefficient with another form (0 if either is constant)."""
        denom = self.sigma * other.sigma
        if denom <= 0.0:
            return 0.0
        rho = self.covariance(other) / denom
        return float(np.clip(rho, -1.0, 1.0))

    def shifted(self, offset: float) -> "CanonicalForm":
        """Return a copy with the mean shifted by ``offset``."""
        return CanonicalForm(self.mean + offset, self.sensitivities, self.sigma_random)

    def __add__(self, other: "CanonicalForm") -> "CanonicalForm":
        """Sum of two forms (private parts are independent, so they RSS)."""
        return CanonicalForm(
            mean=self.mean + other.mean,
            sensitivities=self.sensitivities + other.sensitivities,
            sigma_random=float(np.hypot(self.sigma_random, other.sigma_random)),
        )

    @staticmethod
    def constant(value: float, n_factors: int) -> "CanonicalForm":
        """A deterministic quantity expressed in an ``n_factors`` basis."""
        return CanonicalForm(float(value), np.zeros(n_factors), 0.0)

    @staticmethod
    def maximum(a: "CanonicalForm", b: "CanonicalForm") -> "CanonicalForm":
        """Clark's approximation to ``max(a, b)`` as a new canonical form."""
        mean, sens, rand = _canonical_max(
            a.mean, a.sensitivities, a.sigma_random,
            b.mean, b.sensitivities, b.sigma_random,
        )
        return CanonicalForm(float(mean), sens, float(rand))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the factor axis: BLAS for one form, einsum per row.

    These keep each fold's summation order, which matters: the Lagrangian
    sizer turns a last-bit change in a stage form into a different sizing.
    """
    if x.ndim == 1:
        return np.dot(x, y)
    return np.einsum("ij,ij->i", x, y)


def _canonical_max(mean_a, sens_a, rand_a, mean_b, sens_b, rand_b):
    """Clark max of ``k`` pairs of canonical forms, as raw components.

    Means and randoms are ``(k,)`` and sensitivities ``(k, n_factors)``, or
    scalars and ``(n_factors,)`` for a single pair.  A block is folded in
    place: the max's sensitivities overwrite ``sens_a``, and ``sens_b`` is
    used as scratch.  Both must be C-ordered (see :func:`_dot`).
    """
    var_a = _dot(sens_a, sens_a) + rand_a * rand_a
    var_b = _dot(sens_b, sens_b) + rand_b * rand_b
    mean, var, prob_a = clark_max(mean_a, var_a, mean_b, var_b, _dot(sens_a, sens_b))
    if sens_a.ndim == 1:
        sens = prob_a[..., None] * sens_a + (1.0 - prob_a)[..., None] * sens_b
    else:
        sens = np.multiply(sens_a, prob_a[:, None], out=sens_a)
        sens += np.multiply(sens_b, (1.0 - prob_a)[:, None], out=sens_b)
    rand = np.sqrt(np.maximum(var - _dot(sens, sens), 0.0))
    return mean, sens, rand


def _take_rows(sources: tuple, rows: np.ndarray, into: tuple) -> tuple:
    """Gather ``rows`` of each source array into the leading rows of ``into``.

    The plans' indices are valid by construction, and ``mode="clip"`` lets
    ``take`` write straight into the buffer: the default ``"raise"``
    gathers into a copy of ``out`` first.
    """
    k = rows.shape[0]
    return tuple(
        np.take(source, rows, axis=0, out=block[:k], mode="clip")
        for source, block in zip(sources, into)
    )


def _output_fold(arr_mean, arr_sens, arr_rand, rows: np.ndarray) -> CanonicalForm:
    """Clark max over the arrival ``rows`` of one pass: the output fold.

    Outputs are folded in increasing order of mean arrival; the paper notes
    (after Ross/Clark) that this ordering minimises the approximation error
    of the pairwise max.  The sorted chain is gathered into contiguous
    arrays once; the pairwise chain itself is inherently sequential (each
    max feeds the next).  Its entries are NumPy scalars, so ``clark_max``
    squares the next mean with libm ``pow``, as it always has: a fold over a
    block of rows at once would square them as arrays and change bits.
    """
    rows = rows[np.argsort(arr_mean[rows])]
    chain_mean = arr_mean[rows]
    chain_sens = arr_sens[rows]
    chain_rand = arr_rand[rows]
    mean, sens, rand = chain_mean[0], chain_sens[0], chain_rand[0]
    for pos in range(1, rows.shape[0]):
        mean, sens, rand = _canonical_max(
            mean, sens, rand, chain_mean[pos], chain_sens[pos], chain_rand[pos]
        )
    return CanonicalForm(float(mean), sens, float(rand))


def _lanes(indices, lanes: int):
    """Gate-major rows of ``indices`` for ``lanes`` size rows.

    Index ``i`` becomes rows ``i * lanes`` to ``i * lanes + lanes - 1``, so
    the rows of consecutive indices stay contiguous.  One lane is the
    indices themselves.
    """
    if lanes == 1:
        return indices
    return (indices[:, None] * lanes + np.arange(lanes)).reshape(-1)


#: (gate, size row) pairs one level loop takes: ``(k, n_gates)`` size rows
#: run ``max(1, _LOOP_ROWS // n_gates)`` rows per loop.  A loop's arrays grow
#: with its pairs, while the NumPy dispatch that sharing a loop saves stops
#: mattering on large stages (on a 2-vCPU host, four rows in one loop ran
#: 2.9x faster than four loops on 160 gates, 1.2x on 20,000).
_LOOP_ROWS = 1 << 15


def _size_rows(netlist: Netlist, sizes) -> int | None:
    """Row count of a ``(k, n_gates)`` sizes array, ``None`` for one vector."""
    if sizes is None or np.ndim(sizes) < 2:
        return None
    shape = np.shape(sizes)
    if len(shape) != 2 or shape[1] != netlist.n_gates:
        raise ValueError(
            f"sizes must have shape ({netlist.n_gates},) or (k, {netlist.n_gates}), "
            f"got {shape}"
        )
    return shape[0]


def _one_vector(netlist: Netlist, sizes) -> None:
    """Reject size rows where only one size vector is taken."""
    if _size_rows(netlist, sizes) is not None:
        raise ValueError(
            "gate and arrival components take one size vector; stage_delay and "
            "combinational_delay take (k, n_gates) rows"
        )


@functools.lru_cache(maxsize=16)
def _cell_table(
    grid_size: int, correlation_length: float, variance_coverage: float
) -> np.ndarray:
    """Read-only cell table of a spatial factor basis, shared per process.

    One C-ordered row per grid cell: two zero inter-die columns, then the
    principal-component loadings of the grid's correlated field (``loadings
    @ Z`` is the cell field for independent standard-normal ``Z``), largest
    component first, as many as ``variance_coverage`` of its variance needs.
    Every analyzer with the same basis shares it: the eigendecomposition of
    the 64 x 64 default grid takes tens of milliseconds under a
    multi-threaded BLAS.
    """
    corr = SpatialCorrelationModel(grid_size, correlation_length).correlation_matrix()
    eigenvalues, eigenvectors = np.linalg.eigh(corr)
    # eigh returns ascending order; take components from largest down.
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    eigenvectors = eigenvectors[:, order]
    total = eigenvalues.sum()
    n_keep = 0
    if total > 0.0:
        cumulative = np.cumsum(eigenvalues) / total
        n_keep = int(np.searchsorted(cumulative, variance_coverage) + 1)
        n_keep = min(n_keep, len(eigenvalues))
    table = np.zeros((corr.shape[0], 2 + n_keep))
    table[:, 2:] = eigenvectors[:, :n_keep] * np.sqrt(eigenvalues[:n_keep])[None, :]
    table.flags.writeable = False
    return table


class StatisticalTimingAnalyzer:
    """Canonical-form SSTA engine over a shared global factor basis.

    Parameters
    ----------
    technology:
        Technology node for the delay model.
    variation:
        The three-component variation model.
    grid_size:
        Resolution of the spatial-correlation grid whose principal
        components form the spatially correlated factors.
    variance_coverage:
        Fraction of the spatial field's variance the retained principal
        components must explain (1.0 keeps all of them).
    """

    def __init__(
        self,
        technology: Technology,
        variation: VariationModel,
        grid_size: int = 8,
        variance_coverage: float = 0.995,
    ) -> None:
        if not 0.0 < variance_coverage <= 1.0:
            raise ValueError(
                f"variance_coverage must be in (0, 1], got {variance_coverage}"
            )
        self.technology = technology
        self.variation = variation
        self.delay_model = GateDelayModel(technology)
        self.spatial = SpatialCorrelationModel(
            grid_size=grid_size, correlation_length=variation.correlation_length
        )
        # The cell table: one full-width, C-ordered sensitivity row per grid
        # cell, zero in the inter-die columns, so gate rows gather whole.
        if variation.has_intra_systematic:
            self._cell_rows = _cell_table(
                self.spatial.grid_size,
                self.spatial.correlation_length,
                float(variance_coverage),
            )
        else:
            self._cell_rows = np.zeros((self.spatial.n_cells, 2))
        # Factor basis: [vth_inter, l_inter, spatial components...]
        self.n_factors = self._cell_rows.shape[1]

    # ------------------------------------------------------------------
    # Gate delay forms
    # ------------------------------------------------------------------
    def _gate_coefficients(
        self, netlist: Netlist, sizes: np.ndarray | None, lanes: int | None = None
    ) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
        """Per-gate delay coefficients, and each gate's spatial grid cell.

        The cells are ``None`` when the basis has no spatial factors.  For
        ``lanes`` rows of ``(k, n_gates)`` sizes every array is gate-major,
        one entry per (gate, row) pair in the order of :func:`_lanes`.
        """
        coefficients = self.delay_model.sensitivity_coefficients(
            netlist, self.variation, sizes
        )
        if lanes is not None:
            coefficients = {
                name: np.ascontiguousarray(column.T).reshape(-1)
                for name, column in coefficients.items()
            }
        cells = None
        if self.n_factors > 2:
            xs, ys = netlist.positions()
            cells = self.spatial.cell_index(xs, ys)
            if lanes is not None:
                cells = np.repeat(cells, lanes)
        return coefficients, cells

    def _gate_rows(
        self,
        coefficients: dict[str, np.ndarray],
        cells: np.ndarray | None,
        rows,
        out: np.ndarray,
    ) -> np.ndarray:
        """Write the sensitivity rows of the gates ``rows`` into ``out``.

        The spatial columns are ``sigma_systematic * loadings[cell]``, taken
        from the cell table as whole rows so every pass over ``out`` is
        contiguous; the two inter-die columns are written over the table's
        zero columns.
        """
        if cells is not None:
            np.take(self._cell_rows, cells[rows], axis=0, out=out, mode="clip")
            np.multiply(coefficients["sigma_systematic"][rows, None], out, out=out)
        out[:, 0] = coefficients["sigma_vth_inter"][rows]
        out[:, 1] = coefficients["sigma_l_inter"][rows]
        return out

    def gate_delay_components(
        self, netlist: Netlist, sizes: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical components of every gate's delay.

        Returns ``(means, sensitivities, randoms)`` with shapes
        ``(n_gates,)``, ``(n_gates, n_factors)`` and ``(n_gates,)``.
        ``sizes`` is one size vector.
        """
        _one_vector(netlist, sizes)
        coefficients, cells = self._gate_coefficients(netlist, sizes)
        means = coefficients["mean"]
        sensitivities = self._gate_rows(
            coefficients, cells, slice(None), np.empty((means.shape[0], self.n_factors))
        )
        return means, sensitivities, coefficients["sigma_random"]

    # ------------------------------------------------------------------
    # Arrival-time propagation
    # ------------------------------------------------------------------
    def _plan_arrivals(
        self, netlist: Netlist, sizes: np.ndarray | None, lanes: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Arrival components stored level by level in plan order.

        Returns ``(means, sensitivities, randoms, row_of)``: gate ``g``'s
        arrival is row ``row_of[g]``.  Each level's rows are one contiguous
        block, so the block is the fold's accumulator and nothing is
        scattered afterwards.  At each level the pairwise Clark fold over
        every gate's fanins is batched by fanin rank: one
        :func:`_canonical_max` call folds the ``j``-th fanin of all gates in
        the level simultaneously, preserving the per-gate left-to-right pin
        order of the scalar reference.  The plan sorts the level's gates by
        fanin count, so the gates still folding their rank-``j`` fanin are
        always a prefix of the block.  One level-wide buffer takes the
        gathered fanin rows, which the fold uses as scratch, and then the
        level's own gate rows; no full gate-sensitivity matrix is built.

        ``lanes`` rows of ``(k, n_gates)`` sizes run through the same level
        loop, stored gate-major: gate ``g`` in row ``r`` is arrival row
        ``row_of[g] * k + r``.  A rank step then folds the first ``count * k``
        rows of the block, one row per (gate, size row) pair, and each row's
        arithmetic is the one its own pass would do.
        """
        coefficients, cells = self._gate_coefficients(netlist, sizes, lanes)
        k = 1 if lanes is None else lanes
        means = coefficients["mean"]
        rands = coefficients["sigma_random"]
        plans = netlist.timing_schedule().level_plans
        n_rows = means.shape[0]
        # Every row is written by exactly one level plan.
        arrivals = (np.empty(n_rows), np.empty((n_rows, self.n_factors)), np.empty(n_rows))
        row_of = np.empty(netlist.n_gates, dtype=np.intp)
        widest = k * max((plan.width for plan in plans), default=0)
        fanin = (np.empty(widest), np.empty((widest, self.n_factors)), np.empty(widest))
        start = 0
        for plan in plans:
            gates, stop = plan.gates, start + plan.width
            row_of[gates] = np.arange(start, stop)
            rows = _lanes(gates, k)
            width = k * plan.width
            level_mean, level_sens, level_rand = (a[k * start : k * stop] for a in arrivals)
            if plan.edge_cols is None:
                # Source gates: the arrival is the gate's own delay form.
                level_mean[:] = means[rows]
                self._gate_rows(coefficients, cells, rows, level_sens)
                level_rand[:] = rands[rows]
                start = stop
                continue
            # Fanins sit in earlier levels; gathering from those rows only
            # keeps ``take`` from copying the level block it writes.
            earlier = tuple(a[: k * start] for a in arrivals)
            cols = _lanes(row_of[plan.edge_cols], k)
            _take_rows(earlier, cols[:width], (level_mean, level_sens, level_rand))
            offset = width
            for count in plan.rank_counts:
                count *= k
                nxt = _take_rows(earlier, cols[offset : offset + count], fanin)
                level_mean[:count], _, level_rand[:count] = _canonical_max(
                    level_mean[:count], level_sens[:count], level_rand[:count], *nxt
                )
                offset += count
            level_mean += means[rows]
            level_sens += self._gate_rows(coefficients, cells, rows, fanin[1][:width])
            np.hypot(level_rand, rands[rows], out=level_rand)
            start = stop
        return (*arrivals, row_of)

    def arrival_components(
        self, netlist: Netlist, sizes: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical arrival-time components at every gate output.

        Propagates level by level over the netlist's compiled schedule (see
        :meth:`_plan_arrivals`) and returns the components in gate order.
        ``sizes`` is one size vector.
        """
        _one_vector(netlist, sizes)
        *arrivals, row_of = self._plan_arrivals(netlist, sizes)
        return tuple(np.take(a, row_of, axis=0) for a in arrivals)

    def combinational_delay(
        self, netlist: Netlist, sizes: np.ndarray | None = None
    ) -> CanonicalForm | list[CanonicalForm]:
        """Distribution of the block's combinational delay (max over outputs).

        A block with no gates (a register-only stage) has zero delay.  A
        ``(k, n_gates)`` array of sizes gives a list of ``k`` forms, each the
        same bits as that row's own call.  The rows share level loops (see
        :meth:`_plan_arrivals`), as many per loop as keep it within
        ``_LOOP_ROWS`` (gate, row) pairs, and at least one.
        """
        lanes = _size_rows(netlist, sizes)
        if netlist.n_gates == 0 or lanes == 0:
            if lanes is None:
                return CanonicalForm.constant(0.0, self.n_factors)
            return [CanonicalForm.constant(0.0, self.n_factors) for _ in range(lanes)]
        per_loop = max(1, _LOOP_ROWS // netlist.n_gates)
        if lanes is not None and lanes > per_loop:
            return [
                form
                for start in range(0, lanes, per_loop)
                for form in self.combinational_delay(netlist, sizes[start : start + per_loop])
            ]
        arr_mean, arr_sens, arr_rand, row_of = self._plan_arrivals(netlist, sizes, lanes)
        mask = netlist.output_mask()
        if not mask.any():
            mask = np.ones(netlist.n_gates, dtype=bool)
        outputs = row_of[np.where(mask)[0]]
        if lanes is None:
            return _output_fold(arr_mean, arr_sens, arr_rand, outputs)
        outputs *= lanes
        return [
            _output_fold(arr_mean, arr_sens, arr_rand, outputs + lane)
            for lane in range(lanes)
        ]

    # ------------------------------------------------------------------
    # Sequential overhead and stage delay
    # ------------------------------------------------------------------
    def flipflop_form(
        self,
        flipflop: FlipFlopTiming,
        position: tuple[float, float] = (0.5, 0.5),
    ) -> CanonicalForm:
        """Canonical form of the sequential overhead ``T_C-Q + T_setup``."""
        tech = self.technology
        var = self.variation
        mean = flipflop.nominal_overhead(tech)
        vth_slope = tech.alpha / tech.gate_overdrive
        sens = np.zeros(self.n_factors)
        sens[0] = mean * vth_slope * var.sigma_vth_inter
        sens[1] = mean * var.sigma_l_inter
        if self.n_factors > 2:
            cell = int(self.spatial.cell_index(position[0], position[1]))
            loading = self._cell_rows[cell, 2:]
            sens[2:] = mean * (
                vth_slope * var.sigma_vth_systematic + var.sigma_l_systematic
            ) * loading
        sigma_random = mean * vth_slope * var.sigma_vth_random / flipflop.size**0.5
        return CanonicalForm(mean, sens, sigma_random)

    def stage_delay(
        self,
        netlist: Netlist,
        flipflop: FlipFlopTiming | None = None,
        flipflop_position: tuple[float, float] | None = None,
        sizes: np.ndarray | None = None,
    ) -> CanonicalForm:
        """Distribution of a full stage delay ``T_C-Q + T_comb + T_setup``.

        Parameters
        ----------
        netlist:
            The stage's combinational logic.
        flipflop:
            Sequential-element model; omit for a purely combinational stage.
        flipflop_position:
            Die position of the stage's output register (defaults to the mean
            position of the stage's gates).
        sizes:
            Optional size vector to analyse without mutating the netlist, or
            a ``(k, n_gates)`` array of size rows: the result is then a list
            of ``k`` forms from shared level loops, each the same bits as
            that row's own call (see :meth:`combinational_delay`).
        """
        comb = self.combinational_delay(netlist, sizes)
        if flipflop is None:
            return comb
        if flipflop_position is None:
            xs, ys = netlist.positions()
            flipflop_position = (float(xs.mean()), float(ys.mean())) if len(xs) else (0.5, 0.5)
        overhead = self.flipflop_form(flipflop, flipflop_position)
        if isinstance(comb, list):
            return [form + overhead for form in comb]
        return comb + overhead

    # ------------------------------------------------------------------
    # Cross-stage statistics
    # ------------------------------------------------------------------
    def pipeline_stage_forms(self, pipeline) -> list[CanonicalForm]:
        """Stage-delay canonical forms for every stage of a pipeline.

        All forms share this analyzer's factor basis, so the cross-stage
        correlation the pipeline model needs falls out of
        :meth:`correlation_matrix` directly.  ``pipeline`` is anything with
        ``.stages`` of objects exposing ``netlist``, ``flipflop`` and
        ``register_position`` (i.e. :class:`repro.pipeline.pipeline.Pipeline`).
        """
        return [
            self.stage_delay(stage.netlist, stage.flipflop, stage.register_position)
            for stage in pipeline.stages
        ]

    def correlation_matrix(self, forms: list[CanonicalForm]) -> np.ndarray:
        """Correlation matrix of a list of canonical forms.

        Computed in one shot as ``S @ S.T`` over the stacked sensitivity
        matrix plus the private (random) variances on the diagonal, instead
        of ``O(n^2)`` scalar covariance calls.
        """
        n = len(forms)
        if n == 0:
            return np.eye(0)
        shapes = {form.sensitivities.shape for form in forms}
        if len(shapes) > 1:
            first, second, *_ = sorted(shapes)
            raise ValueError(
                "canonical forms have incompatible factor bases: "
                f"{first} vs {second}"
            )
        stacked = np.stack([form.sensitivities for form in forms])
        randoms = np.array([form.sigma_random for form in forms])
        covariance = stacked @ stacked.T
        sigma = np.sqrt(np.diag(covariance) + randoms**2)
        denom = np.outer(sigma, sigma)
        matrix = np.divide(
            covariance, denom, out=np.zeros((n, n)), where=denom > 0.0
        )
        matrix = np.clip(matrix, -1.0, 1.0)
        np.fill_diagonal(matrix, 1.0)
        return matrix


#: Stage forms a :class:`MemoizedTimingAnalyzer` keeps; the least recently
#: used goes first.  One form holds ``n_factors`` floats.
_MEMO_FORMS = 512


def _content_hasher(netlist: Netlist, flipflop, flipflop_position):
    """BLAKE2b over everything a stage form reads except the sizes.

    That is the fanin structure (topological CSR) and the per-gate cell
    coefficients, the placement and the output mask, the primary-output
    load and the pin capacitance unit the loads are built from, and the
    flip-flop model and register position.  Every part's length follows
    from the leading gate and edge counts, so no two contents concatenate
    to the same bytes.
    """
    schedule = netlist.timing_schedule()
    coefficients = netlist.cell_coefficients()
    xs, ys = netlist.positions()
    hasher = hashlib.blake2b(digest_size=16)
    counts = np.array([netlist.n_gates, schedule.fanin_idx.shape[0]], dtype=np.int64)
    loads = np.array([netlist.default_output_load, netlist.technology.c_unit])
    for part in (
        counts, schedule.fanin_ptr, schedule.fanin_idx,
        *(coefficients[name] for name in sorted(coefficients)),
        xs, ys, netlist.output_mask(), loads,
    ):
        hasher.update(part.tobytes())
    if flipflop_position is None:
        hasher.update(b"\0")
    else:
        hasher.update(b"\1" + np.array(flipflop_position, dtype=float).tobytes())
    hasher.update(repr(flipflop).encode())
    return hasher


def _stored(form: CanonicalForm) -> CanonicalForm:
    """``form`` with its own read-only sensitivities, fit to be shared."""
    sensitivities = np.array(form.sensitivities)
    sensitivities.flags.writeable = False
    return CanonicalForm(form.mean, sensitivities, form.sigma_random)


class MemoizedTimingAnalyzer(StatisticalTimingAnalyzer):
    """The SSTA engine with a bounded memo of stage forms.

    The design flow asks its sizer's engine for the same stage form again
    and again: each pipeline copy's all-minimum form, a balanced stage's
    final form as the next snapshot's statistics.  :meth:`stage_delay`
    keeps the last forms it returned, keyed by a 16-byte BLAKE2b digest of
    the content the form reads (:func:`_content_hasher` plus the size row),
    so a form computed for one pipeline copy serves every copy: a
    :meth:`~repro.circuit.netlist.Netlist.copy` shares no object with its
    source.  Rows of one call that miss, repeated rows once, go through one
    ``(k, n_gates)`` call.  Stored sensitivities are read-only.

    Threads may share an engine: the memo is read and written under a lock
    and every form is computed outside it, so two threads missing the same
    key both compute the same bits.  The sizers embed this engine; the
    ``ssta`` analysis backend and the verification oracles use the plain
    one.
    """

    def __init__(
        self,
        technology: Technology,
        variation: VariationModel,
        grid_size: int = 8,
        variance_coverage: float = 0.995,
    ) -> None:
        super().__init__(technology, variation, grid_size, variance_coverage)
        self._forms: OrderedDict[bytes, CanonicalForm] = OrderedDict()
        self._lock = threading.Lock()

    def stage_delay(
        self,
        netlist: Netlist,
        flipflop: FlipFlopTiming | None = None,
        flipflop_position: tuple[float, float] | None = None,
        sizes: np.ndarray | None = None,
    ) -> CanonicalForm | list[CanonicalForm]:
        """:meth:`StatisticalTimingAnalyzer.stage_delay`, through the memo."""
        lanes = _size_rows(netlist, sizes)
        rows = np.ascontiguousarray(netlist.sizes() if sizes is None else sizes, dtype=float)
        if lanes is None:
            rows = rows[None]
        prefix = _content_hasher(netlist, flipflop, flipflop_position)
        keys = []
        for row in rows:
            hasher = prefix.copy()
            hasher.update(row.tobytes())
            keys.append(hasher.digest())
        with self._lock:
            forms = [self._forms.get(key) for key in keys]
            for key, form in zip(keys, forms):
                if form is not None:
                    self._forms.move_to_end(key)
        missing: dict[bytes, int] = {}
        for index, (key, form) in enumerate(zip(keys, forms)):
            if form is None:
                missing.setdefault(key, index)
        if missing:
            batch = rows[list(missing.values())]
            if len(batch) == 1:
                computed = [
                    super().stage_delay(netlist, flipflop, flipflop_position, batch[0])
                ]
            else:
                computed = super().stage_delay(netlist, flipflop, flipflop_position, batch)
            found = {key: _stored(form) for key, form in zip(missing, computed)}
            with self._lock:
                for key, form in found.items():
                    self._forms[key] = form
                    self._forms.move_to_end(key)
                while len(self._forms) > _MEMO_FORMS:
                    self._forms.popitem(last=False)
            forms = [found[key] if form is None else form for key, form in zip(keys, forms)]
        return forms[0] if lanes is None else forms
