"""Yield estimation for a pipelined design (paper section 2.3).

Yield is the probability that the pipeline meets a target delay,

    P_D = Pr{ T_P <= T_TARGET } = Pr{ max_i SD_i <= T_TARGET }   (eq. 2/7).

Three estimators are provided:

* :func:`yield_independent` -- the exact product form for independent
  Gaussian stage delays (eq. 8),
* :func:`yield_correlated` -- the Gaussian approximation of the pipeline
  delay for correlated stages (eq. 9), using the Clark-estimated mu_T and
  sigma_T,
* :func:`yield_from_samples` -- the empirical yield of Monte-Carlo samples,
  used as ground truth throughout the benchmarks.

:func:`target_delay_for_yield` inverts the correlated estimator to answer
"what clock period can this pipeline run at with yield Y?".
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline_delay import PipelineDelayModel
from repro.core.stage_delay import StageDelayDistribution


def yield_independent(
    stages: list[StageDelayDistribution], target_delay: float
) -> float:
    """Exact yield for independent Gaussian stage delays (paper eq. 8).

    ``P_D = prod_i Phi((T_TARGET - mu_i) / sigma_i)``.
    """
    if not stages:
        raise ValueError("need at least one stage")
    if target_delay < 0.0:
        raise ValueError(f"target_delay must be non-negative, got {target_delay}")
    log_probability = 0.0
    for stage in stages:
        probability = stage.yield_at(target_delay)
        if probability <= 0.0:
            return 0.0
        log_probability += np.log(probability)
    return float(np.exp(log_probability))


def yield_correlated(
    stages: list[StageDelayDistribution],
    target_delay: float,
    correlations: np.ndarray | None = None,
    ordering: str = "increasing",
) -> float:
    """Yield for (possibly) correlated stages via the Gaussian T_P approximation.

    The pipeline delay mean and sigma are estimated with Clark's method
    (section 2.2) and the yield is ``Phi((T_TARGET - mu_T) / sigma_T)``
    (paper eq. 9).
    """
    model = PipelineDelayModel(stages, correlations, ordering=ordering)
    return model.estimate().yield_at(target_delay)


def yield_from_samples(samples: np.ndarray, target_delay: float) -> float:
    """Empirical yield: fraction of delay samples at or below the target."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("need a non-empty 1-D array of delay samples")
    return float((samples <= target_delay).mean())


def target_delay_for_yield(
    stages: list[StageDelayDistribution],
    target_yield: float,
    correlations: np.ndarray | None = None,
) -> float:
    """Clock period at which the pipeline achieves ``target_yield``.

    Uses the Gaussian approximation of the pipeline delay, i.e. the inverse
    of :func:`yield_correlated`.
    """
    if not 0.0 < target_yield < 1.0:
        raise ValueError(f"target_yield must be in (0, 1), got {target_yield}")
    model = PipelineDelayModel(stages, correlations)
    return model.estimate().delay_at_yield(target_yield)


def stage_yield_budget(pipeline_yield: float, n_stages: int) -> float:
    """Per-stage yield target implied by a pipeline yield target.

    For independent, identically budgeted stages the pipeline yield is the
    product of the stage yields, so each stage must individually achieve
    ``pipeline_yield ** (1 / n_stages)``.  The paper uses this allocation
    (via eq. 12) when it optimises stages independently, e.g. the 0.80**(1/3)
    = 0.9283 per-stage target of the Fig. 7 experiment.
    """
    if not 0.0 < pipeline_yield < 1.0:
        raise ValueError(f"pipeline_yield must be in (0, 1), got {pipeline_yield}")
    if n_stages < 1:
        raise ValueError(f"n_stages must be at least 1, got {n_stages}")
    return float(pipeline_yield ** (1.0 / n_stages))
