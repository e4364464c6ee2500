"""One envelope for every JSON document the tools write and read back.

Five document kinds leave this program as files for a later command or CI
to load: the bench snapshot, the regress trace diff, the tuned decision
table, the verify report and the calibration report.  Each carries the
same stamp — ``kind``, ``schema_version``, ``label``, the calibration
``identity`` it was produced under and that identity's short
``fingerprint`` — and is written byte-stably (sorted keys, one-space
indent, trailing newline), so two runs of an identical tree produce
identical files.  :func:`load` is the one
checker: a wrong kind, a stale version or a missing field raises
:class:`~repro.errors.ConfigurationError` naming the file, what was
expected, what was found, and the command that regenerates the file.

At module level this imports only the standard library and
:mod:`repro.errors`, so the dispatch and calibration layers can use it
without importing the bench harness (the identity helpers are imported
when a document is stamped).
"""

from __future__ import annotations

import json
import sys
import typing

from repro.errors import ConfigurationError

__all__ = [
    "SNAPSHOT",
    "TRACE_DIFF",
    "TUNED_TABLE",
    "VERIFY_REPORT",
    "CALIBRATION_REPORT",
    "KINDS",
    "stamp",
    "write",
    "load",
]

SNAPSHOT = "repro-bench-snapshot"
TRACE_DIFF = "repro-trace-diff"
TUNED_TABLE = "repro-tuned-policy"
VERIFY_REPORT = "repro-verify-report"
CALIBRATION_REPORT = "repro-calibration-report"


class Kind(typing.NamedTuple):
    """One row of :data:`KINDS`."""

    #: Bumped on any incompatible change to the document's layout.
    version: int
    #: The key holding the document's content.
    content: str
    #: The command that regenerates a document of this kind.
    command: str


KINDS: dict[str, Kind] = {
    SNAPSHOT: Kind(1, "cells", "python -m repro bench --json-out FILE"),
    TRACE_DIFF: Kind(
        1, "cells", "python -m repro regress --baseline BASE --diff-out FILE"
    ),
    TUNED_TABLE: Kind(1, "table", "python -m repro tune -o FILE"),
    # v2: cell entries carry the ``overlap`` mode.  v3: ``schema`` became
    # ``kind`` and the report gained ``identity`` + ``fingerprint``.
    VERIFY_REPORT: Kind(3, "body", "python -m repro verify --json-out FILE"),
    CALIBRATION_REPORT: Kind(1, "cells", "python -m repro calibrate -o FILE"),
}

_STAMP_KEYS = ("label", "identity", "fingerprint")


def stamp(
    kind: str,
    label: str,
    content: typing.Mapping[str, typing.Any],
    tasks_per_node: int = 16,
) -> dict[str, typing.Any]:
    """``content`` wrapped in the envelope of ``kind``, stamped with this
    build's identity (cost model, SRM config, version) at ``tasks_per_node``."""
    from repro.bench.export import bench_identity, identity_fingerprint

    identity = bench_identity(tasks_per_node=tasks_per_node)
    return {
        **content,
        "kind": kind,
        "schema_version": KINDS[kind].version,
        "label": label,
        "identity": identity,
        "fingerprint": identity_fingerprint(identity),
    }


def write(path: str, document: typing.Mapping[str, typing.Any]) -> None:
    """Serialize ``document`` byte-stably to ``path`` (``-`` = stdout)."""
    text = json.dumps(document, indent=1, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load(path: str, kind: str) -> dict[str, typing.Any]:
    """Read ``path`` and check it is a current document of ``kind``."""
    expected = KINDS[kind]
    regenerate = f"regenerate it with '{expected.command}'"
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{path} is not JSON ({error}); expected a {kind} "
                f"v{expected.version} document — {regenerate}"
            ) from error
    header = document if isinstance(document, dict) else {}
    found = (header.get("kind"), header.get("schema_version"))
    if found != (kind, expected.version):
        raise ConfigurationError(
            f"{path}: expected kind {kind!r} schema v{expected.version}, "
            f"found kind {found[0]!r} schema v{found[1]!r} — {regenerate}"
        )
    missing = [
        key for key in (*_STAMP_KEYS, expected.content) if key not in document
    ]
    if missing:
        raise ConfigurationError(
            f"{path}: {kind!r} v{expected.version} document is missing "
            f"{', '.join(missing)} — {regenerate}"
        )
    return document
