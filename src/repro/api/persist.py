"""Shared resume-file persistence for the CLI and the solver service.

Both ``python -m repro resume FILE`` and the ``repro.serve`` daemon
persist the same thing: the facade's JSON-safe resume payload plus the
*workload recipe* needed to rebuild the instance deterministically
(the graph itself is never serialized — it is regenerated bit-for-bit
from the recipe's seeds).  This module owns that envelope format so the
two entry points cannot drift apart:

* :data:`RESUME_FILE_FORMAT` — the self-describing format marker;
* :func:`instance_from_workload` — recipe → :class:`Instance`;
* :func:`resume_envelope` / :func:`write_envelope` /
  :func:`load_envelope` — build, atomically persist, and validate the
  on-disk envelope (malformed input raises the typed
  :class:`~repro.errors.ResumeError` the resume protocol already uses);
* :func:`resume_envelope_report` — one-call warm start from a loaded
  envelope.

``write_envelope`` writes through a temporary file and ``os.replace``
so a crash mid-write can never leave a torn envelope behind — the
property the service's crash-safe journal is built on.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Any, Dict, Optional

from ..errors import ResumeError
from .instance import Instance, random_instance
from .report import SolveReport

#: Self-describing marker of the resume-file format: the facade's
#: resume payload plus the workload recipe needed to rebuild the
#: instance deterministically.
RESUME_FILE_FORMAT = "repro-resume-file/1"

#: The keys a workload recipe must carry to rebuild its instance.
WORKLOAD_KEYS = ("problem", "nodes", "edge_probability", "max_weight",
                 "seed", "eps")


def instance_from_workload(workload: Dict[str, Any],
                           backend: Optional[str] = None,
                           max_rounds: Optional[int] = None) -> Instance:
    """Rebuild the deterministic instance a workload recipe describes.

    The historical seed layout (graph ``seed``, weights ``seed + 1``,
    algorithm ``seed + 2``) is preserved by
    :func:`~repro.api.random_instance`, so the rebuilt instance's
    budget-agnostic fingerprint matches the one pinned inside any
    resume payload captured from the same recipe.  Raises ``KeyError``
    / ``TypeError`` on a malformed recipe, which callers surface as a
    bad-envelope condition.
    """

    instance = random_instance(
        workload["problem"],
        n=workload["nodes"],
        p=workload["edge_probability"],
        max_weight=workload["max_weight"],
        seed=workload["seed"],
        eps=workload["eps"],
        backend=backend,
    )
    if max_rounds is not None:
        instance = replace(instance, max_rounds=max_rounds)
    return instance


def resume_envelope(workload: Dict[str, Any],
                    payload: Dict[str, Any]) -> Dict[str, Any]:
    """Assemble the on-disk envelope for one resume payload."""

    return {
        "format": RESUME_FILE_FORMAT,
        "workload": dict(workload),
        "payload": payload,
    }


def validate_envelope(envelope: Any,
                      source: str = "envelope") -> Dict[str, Any]:
    """Check an envelope's shape, raising :class:`ResumeError` if bad.

    ``source`` names the envelope's origin (a file path, a job id) in
    the error message.  Returns the envelope unchanged on success.
    """

    if (not isinstance(envelope, dict)
            or envelope.get("format") != RESUME_FILE_FORMAT
            or not isinstance(envelope.get("workload"), dict)
            or "payload" not in envelope):
        raise ResumeError(
            f"{source} is not a {RESUME_FILE_FORMAT!r} state file "
            "(write one with --save-state)"
        )
    return envelope


def write_envelope(path: str, envelope: Dict[str, Any]) -> None:
    """Atomically persist an envelope (temp file + ``os.replace``)."""

    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_envelope(path: str) -> Dict[str, Any]:
    """Read and validate one envelope file.

    Raises :class:`ResumeError` whether the file is unreadable, not
    JSON, or not a recognisable envelope — callers get exactly one
    exception type to handle.
    """

    try:
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ResumeError(
            f"cannot read state file {path!r}: {exc}"
        ) from exc
    return validate_envelope(envelope, source=repr(path))


def resume_envelope_report(envelope: Dict[str, Any],
                           backend: Optional[str] = None,
                           max_rounds: Optional[int] = None,
                           **options) -> SolveReport:
    """Warm-start the run a (validated) envelope describes.

    Rebuilds the instance from the envelope's workload recipe (under an
    optional new cumulative ``max_rounds`` budget) and hands the
    payload to :func:`repro.api.resume`.  A malformed recipe raises
    :class:`ResumeError` like every other envelope defect.
    """

    from .facade import resume

    try:
        instance = instance_from_workload(
            envelope["workload"], backend=backend, max_rounds=max_rounds,
        )
    except (KeyError, TypeError) as exc:
        raise ResumeError(
            f"malformed workload recipe: {exc}"
        ) from exc
    return resume(envelope["payload"], instance=instance, **options)


__all__ = [
    "RESUME_FILE_FORMAT",
    "WORKLOAD_KEYS",
    "instance_from_workload",
    "load_envelope",
    "resume_envelope",
    "resume_envelope_report",
    "validate_envelope",
    "write_envelope",
]
