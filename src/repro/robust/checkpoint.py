"""Content-addressed on-disk checkpoint store for study results.

The specs already round-trip loss-free through JSON and the reports
(:class:`~repro.api.backends.DelayReport`,
:class:`~repro.api.design.DesignReport`) compare equal after a JSON round
trip, so persistence is just *canonical spec JSON -> SHA-256 digest ->
report JSON on disk*:

* the digest covers exactly the fields that determine the computation --
  ``(pipeline, variation, analysis)`` for an analysis study, ``(pipeline,
  variation, design, validation)`` for a design study -- so renaming a
  study or changing its query targets never misses the cache, and two
  sweeps over the same physical points share checkpoints;
* specs with a deferred (``None``) sampling seed must be resolved against
  the executing session *before* keying (:func:`resolved_store_spec`),
  otherwise two sessions with different root seeds would poison each
  other's entries;
* writes are atomic (temp file + ``os.replace``) so a sweep killed
  mid-write never leaves a truncated checkpoint, and unreadable or
  mismatched entries read as misses rather than crashes.

Layout on disk: ``<root>/<digest[:2]>/<digest>.json``, each file holding
``{"kind", "spec", "report"}`` (the spec payload is stored for audit and
for :meth:`CheckpointStore.entries`).  A report's Monte-Carlo samples are
the hex of their little-endian float64 bytes
(:meth:`~repro.api.backends.DelayReport.to_dict`); entries written with
the samples as a list of numbers still read.

This store is the seed of ROADMAP item 5 (persistent result store +
resumable distributed sweeps): :class:`~repro.api.session.Session` accepts
a store as its read-through layer, and the sweep executor
(:mod:`repro.robust.executor`) checkpoints every completed point through
it, which is what makes killed-then-resumed sweeps bit-identical to
uninterrupted ones.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import tempfile
import threading
from typing import TYPE_CHECKING, Iterator, Union

# Spec identity (canonical payload + digest + seed resolution) is shared
# with the serving layer's request coalescing, so it lives in one place:
# ``repro.api.canonical``.  Re-exported here because the names are part of
# this module's public API (and the on-disk format they define predates the
# move -- the regression test in tests/test_canonical.py pins the digests).
from repro.api.canonical import (  # noqa: F401  (re-exports)
    payload_digest,
    resolved_store_spec,
    spec_digest,
    spec_store_payload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.backends import DelayReport
    from repro.api.design import DesignReport
    from repro.api.spec import DesignStudySpec, StudySpec

    AnySpec = Union[StudySpec, DesignStudySpec]
    AnyReport = Union[DelayReport, DesignReport]

#: Process-wide suffix counter for temp-file names.  Combined with the pid
#: and thread id it makes every writer's temp path unique even when many
#: processes (shard workers) and threads (the serve bridge) materialise the
#: same digest at the same instant.
_TMP_COUNTER = itertools.count()


class CheckpointStore:
    """Content-addressed ``spec -> report`` store on the local filesystem.

    Safe for concurrent writers of the *same* entry (last atomic replace
    wins with identical content, since equal digests imply equal
    computations) and tolerant of torn files: a checkpoint that fails to
    parse, or whose stored kind disagrees with the requesting spec, reads
    as a miss.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        # Counter increments are read-modify-write; one store instance may be
        # driven from several serve-bridge threads at once.
        self._counter_lock = threading.Lock()

    # -- addressing ------------------------------------------------------
    def path_for(self, digest: str) -> pathlib.Path:
        """On-disk location of one digest's checkpoint file."""
        return self.root / digest[:2] / f"{digest}.json"

    def digest(self, spec: "AnySpec") -> str:
        """The spec's content address (see :func:`spec_digest`)."""
        return spec_digest(spec)

    # -- read / write ----------------------------------------------------
    def get(self, spec: "AnySpec") -> "AnyReport | None":
        """The stored report for ``spec``, or ``None`` on a miss."""
        from repro.api.backends import DelayReport
        from repro.api.design import DesignReport

        expected = spec_store_payload(spec)
        path = self.path_for(payload_digest(expected))
        try:
            payload = json.loads(path.read_text())
            kind = payload.get("kind") if isinstance(payload, dict) else None
            if kind != expected["kind"]:
                raise ValueError(
                    f"checkpoint kind {kind!r} does not match spec kind {expected['kind']!r}"
                )
            loader = (
                DesignReport.from_dict
                if expected["kind"] == "design"
                else DelayReport.from_dict
            )
            report = loader(payload["report"])
        except (OSError, ValueError, KeyError, TypeError, OverflowError):
            # Missing, torn, corrupt or mismatched entries are misses, never
            # crashes: the point simply recomputes (and rewrites the entry).
            # ``OverflowError`` is an integer literal beyond float range in
            # a numeric field.
            with self._counter_lock:
                self.misses += 1
            return None
        with self._counter_lock:
            self.hits += 1
        return report

    def put(self, spec: "AnySpec", report: "AnyReport") -> str:
        """Persist ``report`` under ``spec``'s digest (atomic); returns it."""
        spec_payload = spec_store_payload(spec)
        digest = payload_digest(spec_payload)
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        # ``json.dumps`` runs the C encoder; ``json.dump`` to a stream runs
        # the pure-Python chunk encoder.
        text = json.dumps(
            {"kind": spec_payload["kind"], "spec": spec_payload, "report": report.to_dict()}
        )
        handle, tmp_name = self._open_tmp(path.parent, digest)
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(text)
            try:
                os.replace(tmp_name, path)
            except OSError:
                # The losing side of a concurrent materialisation of the same
                # digest (possible on platforms where replace can fail while
                # the winner holds the destination).  Equal digests imply
                # equal computations, so the winner's bytes are ours: drop
                # the temp file and count the write as served.
                if not path.exists():
                    raise
                self._unlink_quietly(tmp_name)
        except BaseException:
            self._unlink_quietly(tmp_name)
            raise
        with self._counter_lock:
            self.writes += 1
        return digest

    def _open_tmp(self, parent: pathlib.Path, digest: str) -> tuple[int, str]:
        """An exclusively created temp file unique per process *and* thread.

        The name carries pid, thread id and a process-wide counter, so two
        shard workers (or serve-bridge threads) materialising the same digest
        concurrently can never collide on one temp path; a stale leftover
        from a crashed run with the same triple falls back to ``mkstemp``.
        """
        name = (
            f".{digest[:8]}.{os.getpid()}.{threading.get_ident():x}."
            f"{next(_TMP_COUNTER)}.tmp"
        )
        tmp_path = parent / name
        try:
            handle = os.open(
                tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600
            )
        except FileExistsError:
            return tempfile.mkstemp(
                dir=parent, prefix=f".{digest[:8]}.", suffix=".tmp"
            )
        return handle, str(tmp_path)

    @staticmethod
    def _unlink_quietly(tmp_name: str) -> None:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass

    # -- introspection ---------------------------------------------------
    def __contains__(self, spec: object) -> bool:
        try:
            return self.path_for(spec_digest(spec)).exists()  # type: ignore[arg-type]
        except TypeError:
            return False

    def _files(self) -> Iterator[pathlib.Path]:
        return self.root.glob("??/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._files())

    def digests(self) -> list[str]:
        """Every stored digest (sorted, for stable iteration)."""
        return sorted(path.stem for path in self._files())

    def clear(self) -> int:
        """Delete every checkpoint file; returns how many were removed."""
        removed = 0
        for path in list(self._files()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
