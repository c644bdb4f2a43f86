"""Vectorised Monte-Carlo sampling of per-device parameter deviations.

This module is the bridge between the abstract :class:`~repro.process.variation.VariationModel`
and the Monte-Carlo delay engine.  Given the sizes and placement coordinates
of the devices in a design, :class:`ParameterSampler` draws, for each
Monte-Carlo sample (die realisation):

* one inter-die threshold-voltage / channel-length deviation shared by all
  devices,
* independent per-device random threshold deviations, scaled by
  ``1/sqrt(size)`` (random dopant fluctuation),
* spatially correlated systematic threshold / length deviations from a
  :class:`~repro.process.spatial.SpatialCorrelationModel`.

The result is a :class:`ParameterSamples` container holding dense,
C-ordered ``(n_samples, n_devices)`` arrays of absolute threshold voltages
and channel lengths, ready to be turned into delays by the timing substrate.

The draw is one in-place pass over those two arrays, which a caller may own
(``out=``; the Monte-Carlo engine reuses one pair for every chunk): the
per-device normals go straight into the Vth array and are scaled, shifted
and clipped there.  Channel length has no per-device random term, so it is
computed per (sample, grid cell) and read at the devices once with
:func:`~repro.process.spatial.read_cells`.  Every element sees the same
IEEE operations on the same operands as the seed's out-of-place arithmetic
(:func:`repro.timing.reference.sample_parameters_reference`), so the
samples are byte-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.process.spatial import SpatialCorrelationModel, read_cells
from repro.process.technology import Technology
from repro.process.variation import VariationModel


@dataclass(frozen=True)
class ParameterSamples:
    """Per-device process-parameter samples for a batch of die realisations.

    Attributes
    ----------
    vth:
        Absolute threshold voltages in volts, shape ``(n_samples, n_devices)``.
    length:
        Absolute channel lengths in nanometres, same shape.
    inter_die_vth_shift:
        The inter-die Vth component of each sample, shape ``(n_samples,)``.
        Exposed so analyses can condition on the die corner.

    Samples drawn with ``ParameterSampler.sample(..., out=...)`` alias the
    caller's buffers: drawing the next chunk into them overwrites these.
    """

    vth: np.ndarray
    length: np.ndarray
    inter_die_vth_shift: np.ndarray

    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo samples."""
        return self.vth.shape[0]

    @property
    def n_devices(self) -> int:
        """Number of devices covered by each sample."""
        return self.vth.shape[1]


class ParameterSampler:
    """Draws process-parameter samples for a placed, sized design.

    Parameters
    ----------
    technology:
        Technology node supplying nominal Vth and channel length.
    variation:
        The three-component variation model to sample from.
    grid_size:
        Grid resolution of the spatial-correlation model used for the
        systematic intra-die component.
    """

    def __init__(
        self,
        technology: Technology,
        variation: VariationModel,
        grid_size: int = 8,
    ) -> None:
        self.technology = technology
        self.variation = variation
        self.spatial = SpatialCorrelationModel(
            grid_size=grid_size,
            correlation_length=variation.correlation_length,
        )

    def sample(
        self,
        sizes: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        n_samples: int,
        rng: np.random.Generator,
        out: np.ndarray | None = None,
    ) -> ParameterSamples:
        """Draw ``n_samples`` die realisations for the given devices.

        Parameters
        ----------
        sizes:
            Relative drive sizes of the devices (multiples of minimum size),
            shape ``(n_devices,)``.  Sizes must be positive and finite.
        x, y:
            Normalised placement coordinates, shape ``(n_devices,)``; they
            must be finite, and points outside [0, 1] are clipped onto the
            die.
        n_samples:
            Number of Monte-Carlo samples.
        rng:
            NumPy random generator (callers own the seed for reproducibility).
        out:
            Optional destination: ``out[0]`` and ``out[1]`` are C-contiguous
            float arrays of shape ``(n_samples, n_devices)`` that receive
            the Vth and channel-length samples.  The returned samples then
            alias them, so a caller that reuses the buffers for the next
            chunk overwrites these samples.  The values are the same with or
            without ``out``.

        Returns
        -------
        ParameterSamples
            Absolute Vth and channel-length samples.
        """
        sizes = np.asarray(sizes, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if sizes.ndim != 1:
            raise ValueError(f"sizes must be 1-D, got shape {sizes.shape}")
        if np.any(sizes <= 0.0):
            raise ValueError("all device sizes must be positive")
        if x.shape != sizes.shape or y.shape != sizes.shape:
            raise ValueError(
                "x and y must match sizes in shape: "
                f"sizes {sizes.shape}, x {x.shape}, y {y.shape}"
            )
        if not (np.isfinite(sizes).all() and np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("device sizes and coordinates must be finite")
        if n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {n_samples}")
        shape = (n_samples, sizes.shape[0])
        if out is None:
            out = np.empty((2,) + shape)
        elif out[0].shape != shape or out[1].shape != shape:
            raise ValueError(f"out must hold two arrays of shape {shape}")
        vth, length = out[0], out[1]

        tech = self.technology
        var = self.variation

        # Inter-die: one deviation per sample, broadcast over devices.
        inter_vth = var.sigma_vth_inter * rng.standard_normal(n_samples)
        inter_l = var.sigma_l_inter * rng.standard_normal(n_samples)

        # Intra-die random: independent per (sample, device), RDF size
        # scaling, added to the per-sample base vth0 + inter-die shift.
        base_vth = tech.vth0 + inter_vth
        if var.has_intra_random:
            rng.standard_normal(out=vth)
            vth *= var.sigma_vth_random / np.sqrt(sizes)
            vth += base_vth[:, None]
        else:
            vth[...] = base_vth[:, None]

        # Intra-die systematic: one spatially correlated standard-normal
        # value per (sample, grid cell), scaled separately for Vth and
        # channel length.  Channel length has no per-device term, so it is
        # computed per cell and read at the devices once.
        if var.has_intra_systematic:
            cell_field = self.spatial.sample_cells(n_samples, rng)
            cells = self.spatial.cell_index(x, y)
            vth += read_cells(var.sigma_vth_systematic * cell_field, cells, out=length)
            cell_length = tech.lmin * (
                (1.0 + inter_l[:, None]) + var.sigma_l_systematic * cell_field
            )
            read_cells(_clip_length(tech, cell_length), cells, out=length)
        else:
            length[...] = _clip_length(tech, tech.lmin * (1.0 + inter_l))[:, None]

        # Keep thresholds physical: clamp far away from the supply so the
        # alpha-power drive factor stays finite even for extreme tail samples.
        np.clip(vth, 0.0, tech.vdd - 0.05, out=vth)

        return ParameterSamples(
            vth=vth,
            length=length,
            inter_die_vth_shift=inter_vth,
        )


def _clip_length(technology: Technology, length: np.ndarray) -> np.ndarray:
    """Clamp channel lengths to [0.25, 4] x lmin, in place."""
    return np.clip(length, 0.25 * technology.lmin, 4.0 * technology.lmin, out=length)
