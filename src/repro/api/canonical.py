"""Canonical spec JSON, content digests and tagged wire forms.

One question keeps coming up across the persistence and serving layers:
*"are these two study specs the same computation?"*.  This module owns the
single answer -- a canonical JSON payload covering exactly the fields that
determine the computation, and its SHA-256 digest:

* :func:`spec_store_payload` -- the canonical, computation-determining
  dictionary of a :class:`~repro.api.spec.StudySpec` /
  :class:`~repro.api.spec.DesignStudySpec` (presentation-only fields such
  as ``name`` and the yield/quantile query targets are excluded);
* :func:`canonical_spec_json` -- that payload as key-sorted, separator-
  normalised JSON text (the byte string that gets hashed);
* :func:`spec_digest` -- the SHA-256 content address
  (:func:`payload_digest` hashes a payload already built).

The digest is used as **both** the on-disk checkpoint key
(:class:`~repro.robust.checkpoint.CheckpointStore`) and the in-flight
request-coalescing key of the study server (:mod:`repro.serve`), so the two
layers can never disagree about spec identity.  The byte layout of the
canonical JSON is therefore an on-disk compatibility contract: changing it
orphans every existing checkpoint store (see the pinned-digest regression
test in ``tests/test_canonical.py``).

:func:`resolved_store_spec` resolves a deferred (``None``) sampling seed
against the executing session *before* keying -- a ``None`` seed means "use
the session's root seed", so two sessions with different root seeds must
not collide on one digest.

The module also carries the *tagged wire forms* used whenever a spec or
report crosses a process/network boundary without the endpoint implying its
type: ``{"kind": ..., "data": ...}`` envelopes with loss-free round trips
(:func:`spec_to_wire` / :func:`spec_from_wire`, :func:`report_to_wire` /
:func:`report_from_wire`).

Everything here imports the spec/report classes lazily so the module can be
imported from anywhere (including ``repro.robust`` during package
initialisation) without cycles.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.backends import DelayReport
    from repro.api.design import DesignReport
    from repro.api.session import Session
    from repro.api.spec import DesignStudySpec, StudySpec

    AnySpec = Union[StudySpec, DesignStudySpec]
    AnyReport = Union[DelayReport, DesignReport]


# ----------------------------------------------------------------------
# Canonical payloads and digests
# ----------------------------------------------------------------------
def spec_store_payload(spec: "AnySpec") -> dict[str, Any]:
    """The canonical, computation-determining payload of a study spec.

    Excludes presentation-only fields (``name``, yield/quantile query
    targets) so equal experiments share one content address regardless of
    how they are labelled or queried.
    """
    from repro.api.spec import DesignStudySpec, StudySpec

    if isinstance(spec, DesignStudySpec):
        return {
            "kind": "design",
            "pipeline": spec.pipeline.to_dict(),
            "variation": spec.variation.to_dict(),
            "design": spec.design.to_dict(),
            "validation": None
            if spec.validation is None
            else spec.validation.to_dict(),
        }
    if isinstance(spec, StudySpec):
        return {
            "kind": "study",
            "pipeline": spec.pipeline.to_dict(),
            "variation": spec.variation.to_dict(),
            "analysis": spec.analysis.to_dict(),
        }
    raise TypeError(
        f"checkpointable specs are StudySpec/DesignStudySpec, got {type(spec).__name__}"
    )


def _canonical_text(payload: Mapping[str, Any]) -> str:
    """Key-sorted, whitespace-free JSON: the one place the hashed text is written."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_spec_json(spec: "AnySpec") -> str:
    """The canonical JSON text of a spec (key-sorted, no whitespace).

    This exact byte layout is what :func:`spec_digest` hashes; it is an
    on-disk compatibility contract shared by the checkpoint store and the
    serving layer.
    """
    return _canonical_text(spec_store_payload(spec))


def payload_digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 content address of a :func:`spec_store_payload` result.

    For a caller that already holds the payload (the checkpoint store
    reads its ``kind`` and writes it beside the report), so the payload is
    built once.
    """
    return hashlib.sha256(_canonical_text(payload).encode("utf-8")).hexdigest()


def spec_digest(spec: "AnySpec") -> str:
    """SHA-256 content address of a spec's canonical JSON."""
    return payload_digest(spec_store_payload(spec))


def resolved_store_spec(spec: "AnySpec", session: "Session") -> "AnySpec":
    """``spec`` with any deferred (``None``) sampling seed made concrete.

    A ``None`` seed means "use the session's root seed", so a content
    address must bake the resolved value in -- otherwise sessions with
    different root seeds would collide on one digest while computing
    different numbers.
    """
    from repro.api.spec import DesignStudySpec

    if isinstance(spec, DesignStudySpec):
        if spec.validation is None or spec.validation.seed is not None:
            return spec
        return spec.replace(
            validation=spec.validation.with_seed(session.resolve_seed(spec.validation))
        )
    if spec.analysis.seed is not None:
        return spec
    return spec.replace(
        analysis=spec.analysis.with_seed(session.resolve_seed(spec.analysis))
    )


# ----------------------------------------------------------------------
# Tagged wire forms
# ----------------------------------------------------------------------
def spec_to_wire(spec: "AnySpec") -> dict[str, Any]:
    """``{"kind": "study"|"design", "data": spec.to_dict()}`` envelope."""
    payload_kind = spec_store_payload(spec)["kind"]
    return {"kind": payload_kind, "data": spec.to_dict()}


def spec_from_wire(data: Mapping[str, Any]) -> "AnySpec":
    """Rehydrate a spec from its tagged wire envelope."""
    from repro.api.spec import DesignStudySpec, StudySpec

    kind = data.get("kind")
    if kind == "study":
        return StudySpec.from_dict(data["data"])
    if kind == "design":
        return DesignStudySpec.from_dict(data["data"])
    raise ValueError(f"unknown spec wire kind {kind!r}; expected 'study' or 'design'")


def report_to_wire(report: "AnyReport") -> dict[str, Any]:
    """``{"kind": "delay"|"design", "data": report.to_dict()}`` envelope."""
    from repro.api.backends import DelayReport
    from repro.api.design import DesignReport

    if isinstance(report, DesignReport):
        return {"kind": "design", "data": report.to_dict()}
    if isinstance(report, DelayReport):
        return {"kind": "delay", "data": report.to_dict()}
    raise TypeError(
        f"wire reports are DelayReport/DesignReport, got {type(report).__name__}"
    )


def report_from_wire(data: Mapping[str, Any]) -> "AnyReport":
    """Rehydrate a report from its tagged wire envelope."""
    from repro.api.backends import DelayReport
    from repro.api.design import DesignReport

    kind = data.get("kind")
    if kind == "delay":
        return DelayReport.from_dict(data["data"])
    if kind == "design":
        return DesignReport.from_dict(data["data"])
    raise ValueError(f"unknown report wire kind {kind!r}; expected 'delay' or 'design'")
