"""Histogram and distribution-overlay helpers.

The paper's Figs. 2 and 7(a) overlay Monte-Carlo histograms with the
analytically predicted Gaussian.  The benchmarks reproduce those figures as
data series; these helpers produce the series.
"""

from __future__ import annotations

import numpy as np

from repro.core.stage_delay import gaussian_pdf


def histogram_series(
    samples: np.ndarray, bins: int = 30, density: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of delay samples.

    Returns ``(bin_centres, values)``; values are a probability density when
    ``density`` is true, raw counts otherwise.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need a 1-D array of at least two samples")
    counts, edges = np.histogram(samples, bins=bins, density=density)
    centres = 0.5 * (edges[:-1] + edges[1:])
    return centres, counts


def distribution_series(
    mean: float, std: float, delays: np.ndarray
) -> np.ndarray:
    """Gaussian density evaluated on a delay grid (the model overlay curve)."""
    delays = np.asarray(delays, dtype=float)
    if std <= 0.0:
        raise ValueError(f"std must be positive, got {std}")
    return gaussian_pdf(delays, mean, std)


def overlay_series(
    samples: np.ndarray, mean: float, std: float, bins: int = 30
) -> dict[str, np.ndarray]:
    """Monte-Carlo histogram plus the analytical Gaussian on the same grid.

    Returns a dict with ``delay`` (bin centres), ``monte_carlo`` (density)
    and ``analytical`` (density) arrays -- one Fig. 2 panel as data.
    """
    centres, density = histogram_series(samples, bins=bins, density=True)
    return {
        "delay": centres,
        "monte_carlo": density,
        "analytical": distribution_series(mean, std, centres),
    }
