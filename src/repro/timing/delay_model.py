"""Gate delay model.

Delay of a gate ``i`` with size ``x_i`` driving load ``C_load``:

    d_i = R_i * (C_par_i + C_load_i)
        = (r_unit / x_i) * (p_i * c_par_unit * x_i + C_load_i)

which is the logical-effort RC model: a size-independent parasitic term plus
a drive term that shrinks as the gate is upsized (and grows as its fanout is
upsized, because ``C_load`` contains the fanout gates' input capacitance).

Process variation enters through the drive resistance.  With the
alpha-power law, drive current scales as ``(vdd - vth)**alpha / L`` so the
delay of a device whose threshold voltage and channel length deviate from
nominal is the nominal delay multiplied by

    drive_factor = ((vdd - vth0) / (vdd - vth))**alpha * (L / L0).

The same factor gives the first-order sensitivities used by the statistical
timer: ``d(d)/d(vth) = d_nom * alpha / (vdd - vth0)`` and
``d(d)/d(L/L0) = d_nom`` at the nominal point.

:meth:`GateDelayModel.delay_samples` and :meth:`GateDelayModel.drive_factors`
take an optional ``out`` buffer (which may be the Vth samples themselves)
and compute the overdrive, its ratio, the power, the length factor and the
nominal scale in it, one step at a time.  Each step is the seed's operation
on the same operands (a product's operands at most swapped), so the delays
are the same bits as the seed's out-of-place expression.  The power is
always taken by ``np.power`` on an array: Python's scalar ``**`` rounds
differently on some inputs.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Netlist
from repro.process.technology import Technology
from repro.process.variation import VariationModel


class GateDelayModel:
    """Computes nominal, sampled and sensitivity-form gate delays."""

    def __init__(self, technology: Technology) -> None:
        self.technology = technology

    # ------------------------------------------------------------------
    # Nominal
    # ------------------------------------------------------------------
    def nominal_delays(
        self, netlist: Netlist, sizes: np.ndarray | None = None
    ) -> np.ndarray:
        """Nominal delay of every gate in seconds (topological order).

        Parameters
        ----------
        netlist:
            The netlist to evaluate.
        sizes:
            Optional size vector to evaluate at without mutating the netlist,
            or a ``(k, n_gates)`` array of size rows; each row of the result
            is the same bits as that row's 1-D call.
        """
        tech = self.technology
        if sizes is None:
            sizes = netlist.sizes()
        else:
            sizes = np.asarray(sizes, dtype=float)
            if np.any(sizes <= 0.0):
                raise ValueError("all gate sizes must be positive")
        coeffs = netlist.cell_coefficients()
        loads = netlist.load_capacitances(sizes)
        drive_resistance = tech.r_unit / sizes
        parasitic_cap = coeffs["parasitic_delay"] * tech.c_par_unit * sizes
        return drive_resistance * (parasitic_cap + loads)

    # ------------------------------------------------------------------
    # Monte-Carlo samples
    # ------------------------------------------------------------------
    def drive_factors(
        self,
        vth_samples: np.ndarray,
        length_samples: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Delay multipliers for sampled Vth (and optionally channel length).

        Accepts arrays of any matching shape and broadcasts.  ``out`` is an
        optional destination of the broadcast shape; it may be
        ``vth_samples`` itself, whose values are then replaced by the
        factors.  The factors are the same with or without it.
        """
        tech = self.technology
        vth_samples = np.asarray(vth_samples, dtype=float)
        if length_samples is not None:
            length_samples = np.asarray(length_samples, dtype=float)
        if out is None:
            shape = vth_samples.shape
            if length_samples is not None:
                shape = np.broadcast_shapes(shape, length_samples.shape)
            out = np.empty(shape)
        # Each step is the seed's operation on the same operands, written
        # into ``out``: overdrive, ratio, power, then the length factor.
        factor = np.subtract(tech.vdd, vth_samples, out=out)
        if np.any(factor <= 0.0):
            raise ValueError(
                "sampled threshold voltage reaches the supply; clamp samples "
                "before computing delays"
            )
        np.divide(tech.gate_overdrive, factor, out=factor)
        np.power(factor, tech.alpha, out=factor)
        if length_samples is not None:
            factor *= length_samples / tech.lmin
        return factor

    def delay_samples(
        self,
        netlist: Netlist,
        vth_samples: np.ndarray,
        length_samples: np.ndarray | None = None,
        sizes: np.ndarray | None = None,
        nominal: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-sample, per-gate delays in seconds.

        Parameters
        ----------
        netlist:
            The netlist to evaluate.
        vth_samples:
            Threshold samples of shape ``(n_samples, n_gates)`` in topological
            gate order.
        length_samples:
            Optional channel-length samples of the same shape.
        sizes:
            Optional size vector (topological order).
        nominal:
            The netlist's :meth:`nominal_delays` at ``sizes``, when the
            caller already has them (a Monte-Carlo run computes them once
            and reuses them for every sample chunk); ``sizes`` is then
            ignored.
        out:
            Optional ``(n_samples, n_gates)`` destination; it may be
            ``vth_samples`` itself (the Monte-Carlo engine overwrites each
            chunk's Vth columns with the delays they give).  The delays are
            the same with or without it.

        Returns
        -------
        numpy.ndarray
            Delays of shape ``(n_samples, n_gates)`` (``out`` when given).
        """
        if nominal is None:
            nominal = self.nominal_delays(netlist, sizes)
        vth_samples = np.asarray(vth_samples, dtype=float)
        if vth_samples.ndim != 2 or vth_samples.shape[1] != nominal.shape[0]:
            raise ValueError(
                "vth_samples must have shape (n_samples, n_gates="
                f"{nominal.shape[0]}), got {vth_samples.shape}"
            )
        factors = self.drive_factors(vth_samples, length_samples, out=out)
        factors *= nominal
        return factors

    # ------------------------------------------------------------------
    # First-order sensitivities (for SSTA)
    # ------------------------------------------------------------------
    def sensitivity_coefficients(
        self,
        netlist: Netlist,
        variation: VariationModel,
        sizes: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Per-gate delay mean and standard-deviation components.

        Returns a dict of arrays (topological order, units of seconds):

        * ``mean`` -- nominal delay,
        * ``sigma_inter`` -- sigma due to the inter-die component (Vth and
          channel length combined in quadrature; they are modelled as
          independent global factors but both shift all gates together),
        * ``sigma_vth_inter`` / ``sigma_l_inter`` -- the two inter-die parts
          separately (used as separate canonical factors),
        * ``sigma_systematic`` -- sigma due to the spatially correlated
          component (Vth and length move together on the same field),
        * ``sigma_random`` -- sigma of the independent per-gate component.
        """
        tech = self.technology
        if sizes is None:
            sizes = netlist.sizes()
        else:
            sizes = np.asarray(sizes, dtype=float)
        nominal = self.nominal_delays(netlist, sizes)
        vth_slope = tech.alpha / tech.gate_overdrive

        sigma_vth_inter = nominal * vth_slope * variation.sigma_vth_inter
        sigma_l_inter = nominal * variation.sigma_l_inter
        sigma_systematic = nominal * (
            vth_slope * variation.sigma_vth_systematic + variation.sigma_l_systematic
        )
        sigma_random = (
            nominal * vth_slope * variation.sigma_vth_random / np.sqrt(sizes)
        )
        sigma_inter = np.sqrt(sigma_vth_inter**2 + sigma_l_inter**2)
        return {
            "mean": nominal,
            "sigma_inter": sigma_inter,
            "sigma_vth_inter": sigma_vth_inter,
            "sigma_l_inter": sigma_l_inter,
            "sigma_systematic": sigma_systematic,
            "sigma_random": sigma_random,
        }
