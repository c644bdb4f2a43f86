"""Monte-Carlo delay engine (the HSPICE Monte-Carlo stand-in).

For every Monte-Carlo sample (die realisation) the engine:

1. draws one inter-die deviation shared by every device on the die,
2. draws one spatially correlated systematic field over the die and reads it
   at each device's placement point,
3. draws independent random (RDF) deviations per device, scaled by
   ``1 / sqrt(size)``,
4. converts the resulting per-device threshold voltages and channel lengths
   into gate delays with the alpha-power-law model,
5. propagates arrival times through each stage's netlist to obtain the
   combinational delay (one :func:`~repro.timing.sta.max_delay` call per
   stage and chunk, vectorised over samples in cache-sized row blocks), and
   adds the stage's register overhead sampled from its own device,
6. records per-stage delay samples; the pipeline delay of each sample is the
   maximum over stages.

Steps 1-4 are one in-place pass per chunk of samples.  A run allocates two
``(chunk, n_devices)`` buffers once; the sampler draws each chunk's Vth and
channel-length samples straight into them, and each stage's gate delays
overwrite the Vth columns they came from (the register column is read
unchanged).  So a run's per-device memory is those two buffers plus one
arrival workspace per stage, whatever the sample count.  The samples are
byte-identical to the seed's out-of-place path, which
:func:`repro.timing.reference.monte_carlo_reference` keeps.

Because the inter-die deviation and the systematic field are shared by all
stages within one sample, stage delays come out correlated exactly the way
the paper describes: perfectly correlated under inter-die-only variation,
independent under random-intra-only variation, partially correlated in the
combined case.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.flipflop import FlipFlopTiming
from repro.circuit.netlist import Netlist
from repro.montecarlo.results import MonteCarloResult, PipelineMonteCarloResult
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.stage import PipelineStage
from repro.process.sampling import ParameterSampler
from repro.process.technology import Technology, default_technology
from repro.process.variation import VariationModel
from repro.timing.delay_model import GateDelayModel
from repro.timing.sta import max_delay


class MonteCarloEngine:
    """Samples stage and pipeline delays under process variation.

    Parameters
    ----------
    technology:
        Technology node (defaults to the synthetic 70 nm node).
    variation:
        Variation model to sample from.
    n_samples:
        Number of Monte-Carlo samples per run.
    seed:
        Seed of the engine's random generator: an integer or a
        ``numpy.random.SeedSequence`` (e.g. a child spawned for one sweep
        point); runs are reproducible for a fixed seed and input design.
    grid_size:
        Resolution of the spatial-correlation grid.
    chunk_size:
        When set, samples are drawn and propagated in blocks of at most this
        many die realisations, so peak memory is ``O(chunk_size * n_devices)``
        instead of ``O(n_samples * n_devices)`` and million-sample runs fit
        in memory.  ``None`` (the default) processes all samples in one
        block.  Chunked and unchunked runs consume the random stream in a
        different order, so their individual samples differ for a fixed seed
        (the distributions are identical); a chunked run is reproducible for
        a fixed ``(seed, chunk_size)``.
    """

    def __init__(
        self,
        variation: VariationModel,
        technology: Technology | None = None,
        n_samples: int = 2000,
        seed: int | np.random.SeedSequence = 2005,
        grid_size: int = 8,
        chunk_size: int | None = None,
    ) -> None:
        if n_samples < 2:
            raise ValueError(f"n_samples must be at least 2, got {n_samples}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        self.technology = technology if technology is not None else default_technology()
        self.variation = variation
        self.n_samples = int(n_samples)
        self.seed = (
            seed if isinstance(seed, np.random.SeedSequence) else int(seed)
        )
        self.grid_size = int(grid_size)
        self.chunk_size = int(chunk_size) if chunk_size is not None else None
        self.delay_model = GateDelayModel(self.technology)
        self.sampler = ParameterSampler(self.technology, variation, grid_size=grid_size)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def _chunk_counts(self) -> list[int]:
        """Sample-block sizes for one run (one entry when unchunked)."""
        if self.chunk_size is None or self.chunk_size >= self.n_samples:
            return [self.n_samples]
        full, rest = divmod(self.n_samples, self.chunk_size)
        return [self.chunk_size] * full + ([rest] if rest else [])

    def _stage_device_arrays(
        self, stage: PipelineStage
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sizes and placement of a stage's devices (gates plus one register).

        The register is modelled as one extra device located at the stage's
        output-register position; its parameter sample drives the sequential
        overhead.
        """
        netlist = stage.netlist
        sizes = netlist.sizes()
        xs, ys = netlist.positions()
        reg_x, reg_y = stage.register_position
        sizes = np.concatenate([sizes, [stage.flipflop.size]])
        xs = np.concatenate([xs, [reg_x]])
        ys = np.concatenate([ys, [reg_y]])
        return sizes, xs, ys

    def _nominal_delays(self, stage: PipelineStage) -> np.ndarray | None:
        """A stage's nominal gate delays, shared by all of a run's chunks."""
        if stage.netlist.n_gates == 0:
            return None
        return self.delay_model.nominal_delays(stage.netlist)

    def _stage_delay_from_samples(
        self,
        stage: PipelineStage,
        vth: np.ndarray,
        length: np.ndarray,
        nominal: np.ndarray | None,
        workspace: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stage delay samples given this stage's device parameter samples.

        ``vth``/``length`` have one column per device: the stage's gates in
        topological order followed by the register device.  The gate delays
        overwrite the gate columns of ``vth``; the register column is read
        unchanged.  ``nominal`` is the stage's :meth:`_nominal_delays`.
        ``workspace`` is an optional ``(n_chunk_samples, n_gates)`` arrival
        buffer reused across sample chunks.
        """
        netlist = stage.netlist
        n_gates = netlist.n_gates
        register_vth = vth[:, n_gates]
        register_length = length[:, n_gates]

        if n_gates > 0:
            gate_vth = vth[:, :n_gates]
            delays = self.delay_model.delay_samples(
                netlist, gate_vth, length[:, :n_gates], nominal=nominal, out=gate_vth
            )
            if workspace is not None:
                workspace = workspace[: delays.shape[0]]
            comb = np.asarray(max_delay(netlist, delays, out=workspace))
        else:
            comb = np.zeros(vth.shape[0])
        overhead = stage.flipflop.overhead_samples(
            self.technology, register_vth, register_length
        )
        return comb + overhead

    def _sample_stages(self, stages: list[PipelineStage]) -> np.ndarray:
        """Delay samples of every stage on shared dies, ``(n_samples, n_stages)``.

        The chunk loop of one run: all stages' devices are drawn together,
        so each sample's inter-die deviation and systematic field are shared
        by every stage.  The run's Vth and length buffers hold one chunk;
        every chunk is drawn into their leading rows, and each stage's gate
        delays overwrite its Vth columns.
        """
        rng = self._rng()
        devices = [self._stage_device_arrays(stage) for stage in stages]
        device_counts = [sizes.shape[0] for sizes, _, _ in devices]
        sizes, xs, ys = (np.concatenate(column) for column in zip(*devices))
        nominals = [self._nominal_delays(stage) for stage in stages]

        stage_delays = np.zeros((self.n_samples, len(stages)))
        chunks = self._chunk_counts()
        buffers = np.empty((2, chunks[0], sizes.shape[0]))
        workspaces = [
            np.empty((chunks[0], stage.netlist.n_gates))
            if stage.netlist.n_gates > 0
            else None
            for stage in stages
        ]
        sample_offset = 0
        for count in chunks:
            samples = self.sampler.sample(
                sizes, xs, ys, count, rng, out=buffers[:, :count]
            )
            device_offset = 0
            for index, stage in enumerate(stages):
                n_devices = device_counts[index]
                vth = samples.vth[:, device_offset : device_offset + n_devices]
                length = samples.length[:, device_offset : device_offset + n_devices]
                stage_delays[
                    sample_offset : sample_offset + count, index
                ] = self._stage_delay_from_samples(
                    stage, vth, length, nominals[index], workspaces[index]
                )
                device_offset += n_devices
            sample_offset += count
        return stage_delays

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_stage(self, stage: PipelineStage) -> MonteCarloResult:
        """Monte-Carlo delay distribution of a single stage."""
        delays = np.ascontiguousarray(self._sample_stages([stage])[:, 0])
        return MonteCarloResult(delays, name=stage.name)

    def run_netlist(
        self, netlist: Netlist, flipflop: FlipFlopTiming | None = None
    ) -> MonteCarloResult:
        """Monte-Carlo delay distribution of a bare netlist.

        Convenience wrapper that wraps the netlist in a temporary stage; pass
        ``flipflop=None`` for a purely combinational distribution by using a
        zero-overhead register model.
        """
        if flipflop is None:
            flipflop = FlipFlopTiming(clk_to_q_stages=0.0, setup_stages=0.0)
        stage = PipelineStage(name=netlist.name, netlist=netlist, flipflop=flipflop)
        return self.run_stage(stage)

    def run_pipeline(self, pipeline: Pipeline) -> PipelineMonteCarloResult:
        """Monte-Carlo delay distribution of a full pipeline.

        All stages share each sample's inter-die deviation and systematic
        field, so the measured cross-stage correlations reflect the variation
        model (and the stages' physical placement) rather than being imposed.
        """
        return PipelineMonteCarloResult(
            stage_samples=self._sample_stages(pipeline.stages),
            stage_names=tuple(pipeline.stage_names),
        )
