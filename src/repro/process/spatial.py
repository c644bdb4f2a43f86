"""Spatially correlated intra-die variation.

The systematic part of intra-die variation (channel-length gradients, oxide
thickness drift across the reticle) is correlated in space: two gates that
sit next to each other see almost the same deviation while gates at opposite
corners of the die are nearly independent.  The paper models this with
"spatially correlated W, L, Tox variations" that make stage delays
*partially* correlated.

This module implements the standard grid-based model:

* the die is divided into ``grid_size x grid_size`` cells,
* one Gaussian deviation is drawn per cell per Monte-Carlo sample,
* cell deviations follow an exponential correlation function
  ``rho(d) = exp(-d / correlation_length)`` in normalised die coordinates,
* a gate picks up the deviation of the cell containing its placement point.

Reading cell values at devices goes through one helper, :func:`read_cells`,
which writes ``values[:, cells]`` in C order.  NumPy lays the fancy-index
form out in Fortran order, so every later ``(n_samples, n_devices)`` add or
multiply against a C-ordered array would walk one side a whole row apart.

Correlated cell samples are generated with a Cholesky factor of the cell
covariance matrix, which is exact and cheap for the modest grid sizes used
here (the default is 8 x 8 = 64 cells).
"""

from __future__ import annotations

import functools

import numpy as np


def _correlation_matrix(grid_size: int, correlation_length: float) -> np.ndarray:
    """Cell-to-cell exponential correlation over a ``grid_size`` square grid."""
    edges = (np.arange(grid_size) + 0.5) / grid_size
    xs, ys = np.meshgrid(edges, edges, indexing="ij")
    centres = np.column_stack([xs.ravel(), ys.ravel()])
    deltas = centres[:, None, :] - centres[None, :, :]
    distances = np.sqrt((deltas**2).sum(axis=-1))
    return np.exp(-distances / correlation_length)


@functools.lru_cache(maxsize=16)
def _cholesky_factor(grid_size: int, correlation_length: float) -> np.ndarray:
    """Read-only lower Cholesky factor of the grid's correlation matrix.

    Every Monte-Carlo engine and statistical timer builds a model, so the
    factor is shared per ``(grid_size, correlation_length)``.
    """
    corr = _correlation_matrix(grid_size, correlation_length)
    # Exponential correlation matrices are positive definite, but add a
    # tiny jitter so the factorisation is robust to round-off for large
    # grids or long correlation lengths.
    jitter = 1e-10 * np.eye(corr.shape[0])
    factor = np.linalg.cholesky(corr + jitter)
    factor.flags.writeable = False
    return factor


def read_cells(
    cell_values: np.ndarray, cells: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``cell_values[:, cells]`` written in C order, into ``out`` when given.

    ``cell_values`` has one row per sample and one column per grid cell;
    ``cells`` holds flat cell indices from
    :meth:`SpatialCorrelationModel.cell_index`.  The indices are not
    bounds-checked (``mode="clip"``, which also lets ``take`` write straight
    into ``out`` instead of buffering it), so callers pass valid ones:
    ``cell_index`` of finite coordinates always is.
    """
    if out is None:
        out = np.empty((cell_values.shape[0],) + cells.shape)
    return np.take(cell_values, cells, axis=1, out=out, mode="clip")


class SpatialCorrelationModel:
    """Grid-based exponential spatial correlation over a unit die.

    Parameters
    ----------
    grid_size:
        Number of grid cells along each die edge.
    correlation_length:
        Characteristic distance of the exponential correlation function,
        expressed as a fraction of the die edge length.
    """

    def __init__(self, grid_size: int = 8, correlation_length: float = 0.5) -> None:
        if grid_size < 1:
            raise ValueError(f"grid_size must be at least 1, got {grid_size}")
        if correlation_length <= 0.0:
            raise ValueError(
                f"correlation_length must be positive, got {correlation_length}"
            )
        self.grid_size = int(grid_size)
        self.correlation_length = float(correlation_length)
        self._cholesky = _cholesky_factor(self.grid_size, self.correlation_length)

    def correlation_matrix(self) -> np.ndarray:
        """Full cell-to-cell correlation matrix, shape (n_cells, n_cells)."""
        return _correlation_matrix(self.grid_size, self.correlation_length)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        """Number of grid cells on the die."""
        return self.grid_size * self.grid_size

    def cell_index(self, x: np.ndarray | float, y: np.ndarray | float) -> np.ndarray:
        """Map die coordinates in [0, 1] x [0, 1] to flat cell indices.

        Coordinates outside the unit square are clipped onto the die.
        """
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0 - 1e-12)
        y = np.clip(np.asarray(y, dtype=float), 0.0, 1.0 - 1e-12)
        ix = (x * self.grid_size).astype(int)
        iy = (y * self.grid_size).astype(int)
        return ix * self.grid_size + iy

    def sample_cells(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Draw correlated standard-normal cell deviations.

        Returns an array of shape ``(n_samples, n_cells)`` where each row is
        one die realisation.  Every marginal is standard normal and the
        cross-cell correlation follows the exponential model.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {n_samples}")
        white = rng.standard_normal((n_samples, self.n_cells))
        return white @ self._cholesky.T

    def sample_at(
        self,
        x: np.ndarray,
        y: np.ndarray,
        n_samples: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw correlated deviations at specific placement points.

        Parameters
        ----------
        x, y:
            Placement coordinates of the devices, each of shape
            ``(n_devices,)``, in normalised die coordinates [0, 1].
        n_samples:
            Number of Monte-Carlo samples (die realisations).
        rng:
            NumPy random generator.

        Returns
        -------
        numpy.ndarray
            C-ordered array of shape ``(n_samples, n_devices)`` of
            standard-normal deviations, spatially correlated according to
            the grid model.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            raise ValueError(f"x and y must have the same shape, got {x.shape} and {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("x and y must be finite")
        cells = self.cell_index(x, y)
        return read_cells(self.sample_cells(n_samples, rng), cells)

    def correlation_between(self, point_a: tuple[float, float], point_b: tuple[float, float]) -> float:
        """Model correlation between the deviations at two placement points.

        Points within the same grid cell are perfectly correlated (the grid
        model assigns them the same deviation); otherwise the correlation is
        the exponential function of the distance between their cell centres.
        """
        idx_a = int(self.cell_index(point_a[0], point_a[1]))
        idx_b = int(self.cell_index(point_b[0], point_b[1]))
        if idx_a == idx_b:
            return 1.0
        corr = self.correlation_matrix()
        return float(corr[idx_a, idx_b])
