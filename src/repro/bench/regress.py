"""Snapshot-vs-baseline comparison: the perf regression gate.

Compares a candidate snapshot (see :mod:`repro.bench.snapshot`) against a
committed baseline cell-by-cell with a configurable relative tolerance.
Because the simulator is deterministic, any drift at all is a real change in
the modelled protocol work — the tolerance exists to absorb *deliberate*
small retunes, not measurement noise.

When a cell regresses, the report does not stop at "slower": it diffs the
two critical-path phase breakdowns and names the dominant phase — the phase
whose critical-path share grew the most — so "allreduce 64 KB on 16 nodes is
+38%" arrives already localized to, say, ``counter-wait``.  When the cells
carry wait-state breakdowns (schema v1 with :mod:`repro.obs.waits` data),
it goes one level deeper via :func:`repro.obs.diff.diff_cells` and names the
cause: "+340 us of bandwidth-contention on ``bus[0]`` during ``ring-step``".
:func:`diff_document` assembles the full differential analysis of every
moved cell as a JSON artifact for CI upload (``regress --diff-out``).

Exit policy (:attr:`RegressionReport.ok`): regressions and vanished cells
fail the gate; improvements, new cells, and in-tolerance drift pass.  A
schema-version or document-kind mismatch raises — an incomparable pair must
never report success.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro import envelope
from repro.bench.report import format_bytes
from repro.bench.snapshot import cell_key
from repro.errors import ConfigurationError
from repro.obs.diff import diff_cells

__all__ = [
    "DEFAULT_TOLERANCE",
    "SchemaMismatchError",
    "CellDelta",
    "RegressionReport",
    "compare_snapshots",
    "diff_document",
    "format_report",
]

#: Relative slowdown tolerated before a cell counts as a regression (5%).
DEFAULT_TOLERANCE = 0.05

#: Relative change below which a cell is byte-for-byte "pass", not "drift".
_EXACT_EPSILON = 1e-9


class SchemaMismatchError(ConfigurationError):
    """Baseline and candidate snapshots use incompatible schemas."""


@dataclass
class CellDelta:
    """One compared cell."""

    operation: str
    stack: str
    nbytes: int
    nodes: int
    baseline_us: float
    candidate_us: float
    #: candidate / baseline (1.0 = unchanged, 2.0 = twice as slow).
    ratio: float
    #: "pass" | "drift" | "regression" | "improvement"
    status: str
    #: For regressions: the critical-path phase that grew the most.
    dominant_phase: str | None = None
    #: Phase -> candidate-minus-baseline critical-path microseconds.
    phase_deltas_us: dict[str, float] = field(default_factory=dict)
    #: For regressions with wait-state data: the (state, context, resource)
    #: bucket that grew the most, phrased for humans ("bandwidth-contention
    #: on bus[0] during ring-step"), and how much it grew.
    dominant_wait: str | None = None
    wait_delta_us: float = 0.0

    @property
    def label(self) -> str:
        return (
            f"{self.operation} {self.stack} {format_bytes(self.nbytes)} "
            f"x{self.nodes} nodes"
        )


@dataclass
class RegressionReport:
    """The gate's verdict over a whole snapshot pair."""

    tolerance: float
    cells: list[CellDelta] = field(default_factory=list)
    #: Keys present in the baseline but absent from the candidate.
    missing: list[tuple] = field(default_factory=list)
    #: Keys present in the candidate but absent from the baseline.
    added: list[tuple] = field(default_factory=list)
    #: Identity fields that differ between the two snapshots.
    identity_drift: list[str] = field(default_factory=list)

    def by_status(self, status: str) -> list[CellDelta]:
        return [cell for cell in self.cells if cell.status == status]

    @property
    def regressions(self) -> list[CellDelta]:
        return self.by_status("regression")

    @property
    def improvements(self) -> list[CellDelta]:
        return self.by_status("improvement")

    @property
    def ok(self) -> bool:
        """True when the gate passes: no regressions, no vanished cells."""
        return not self.regressions and not self.missing


def _phase_map(cell: dict) -> dict[str, float]:
    path = cell.get("critical_path")
    if not path:
        return {}
    return dict(path.get("phases_us", {}))


def _attribute(baseline: dict, candidate: dict) -> tuple[str | None, dict[str, float]]:
    """Name the phase responsible for a slowdown.

    Primary signal: the largest positive critical-path phase delta.  When the
    breakdowns are unavailable (baseline MPI stacks) or cancel out (a
    hand-scaled snapshot), fall back to the candidate's heaviest phase — the
    report must always name where the time is going.
    """
    base_phases = _phase_map(baseline)
    cand_phases = _phase_map(candidate)
    deltas = {
        phase: cand_phases.get(phase, 0.0) - base_phases.get(phase, 0.0)
        for phase in sorted(set(base_phases) | set(cand_phases))
    }
    positive = {phase: delta for phase, delta in deltas.items() if delta > 0}
    if positive:
        return max(positive, key=lambda phase: positive[phase]), deltas
    if cand_phases:
        return max(cand_phases, key=lambda phase: cand_phases[phase]), deltas
    return None, deltas


def compare_snapshots(
    baseline: dict,
    candidate: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RegressionReport:
    """Diff ``candidate`` against ``baseline`` cell-by-cell."""
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    base_version = baseline.get("schema_version")
    cand_version = candidate.get("schema_version")
    expected = envelope.KINDS[envelope.SNAPSHOT]
    if base_version != expected.version or cand_version != expected.version:
        raise SchemaMismatchError(
            f"snapshot schema mismatch: baseline v{base_version}, candidate "
            f"v{cand_version}, this tool speaks v{expected.version} — "
            f"regenerate the stale snapshot with '{expected.command}'"
        )

    report = RegressionReport(tolerance=tolerance)
    report.identity_drift = _identity_drift(
        baseline.get("identity", {}), candidate.get("identity", {})
    )

    base_cells = {cell_key(cell): cell for cell in baseline["cells"]}
    cand_cells = {cell_key(cell): cell for cell in candidate["cells"]}
    report.missing = sorted(set(base_cells) - set(cand_cells))
    report.added = sorted(set(cand_cells) - set(base_cells))

    for key in sorted(set(base_cells) & set(cand_cells)):
        base, cand = base_cells[key], cand_cells[key]
        base_us, cand_us = base["microseconds"], cand["microseconds"]
        ratio = cand_us / base_us if base_us > 0 else float("inf")
        relative = ratio - 1.0
        dominant, deltas = None, {}
        dominant_wait, wait_delta_us = None, 0.0
        if abs(relative) <= _EXACT_EPSILON:
            status = "pass"
        elif relative > tolerance:
            status = "regression"
            dominant, deltas = _attribute(base, cand)
            grown = diff_cells(base, cand).dominant_wait()
            if grown is not None:
                dominant_wait, wait_delta_us = grown.label, grown.delta_us
        elif relative < -tolerance:
            status = "improvement"
        else:
            status = "drift"
        operation, stack, nbytes, nodes = key
        report.cells.append(
            CellDelta(
                operation=operation,
                stack=stack,
                nbytes=nbytes,
                nodes=nodes,
                baseline_us=base_us,
                candidate_us=cand_us,
                ratio=ratio,
                status=status,
                dominant_phase=dominant,
                phase_deltas_us=deltas,
                dominant_wait=dominant_wait,
                wait_delta_us=wait_delta_us,
            )
        )
    return report


def diff_document(baseline: dict, candidate: dict, report: RegressionReport) -> dict:
    """The full differential trace analysis of every moved cell, JSON-ready.

    One :class:`~repro.obs.diff.TraceDiff` per non-"pass" cell — phase and
    wait-state alignment included — suitable for ``regress --diff-out`` and
    CI artifact upload.  Cells are emitted in grid order; all maps inside are
    key-sorted, so the artifact is byte-stable.
    """
    base_cells = {cell_key(cell): cell for cell in baseline["cells"]}
    cand_cells = {cell_key(cell): cell for cell in candidate["cells"]}
    cells = []
    for delta in report.cells:
        if delta.status == "pass":
            continue
        key = (delta.operation, delta.stack, delta.nbytes, delta.nodes)
        trace = diff_cells(base_cells[key], cand_cells[key])
        cells.append({"key": list(key), "status": delta.status, **trace.to_dict()})
    return envelope.stamp(
        envelope.TRACE_DIFF,
        f"{baseline.get('label')}..{candidate.get('label')}",
        {
            "baseline_label": baseline.get("label"),
            "candidate_label": candidate.get("label"),
            "tolerance": report.tolerance,
            "ok": report.ok,
            "compared": len(report.cells),
            "cells": cells,
        },
    )


def _identity_drift(base: dict, cand: dict, prefix: str = "") -> list[str]:
    drift = []
    for key in sorted(set(base) | set(cand)):
        label = f"{prefix}{key}"
        base_value, cand_value = base.get(key), cand.get(key)
        if isinstance(base_value, dict) and isinstance(cand_value, dict):
            drift.extend(_identity_drift(base_value, cand_value, prefix=f"{label}."))
        elif base_value != cand_value:
            drift.append(label)
    return drift


def format_report(report: RegressionReport, verbose: bool = False) -> str:
    """The gate's human-readable verdict."""
    lines: list[str] = []
    counts = {
        status: len(report.by_status(status))
        for status in ("pass", "drift", "regression", "improvement")
    }
    lines.append(
        f"compared {len(report.cells)} cells "
        f"(tolerance ±{report.tolerance * 100:.1f}%): "
        f"{counts['pass']} identical, {counts['drift']} within tolerance, "
        f"{counts['improvement']} improved, {counts['regression']} regressed, "
        f"{len(report.missing)} missing, {len(report.added)} new"
    )
    if report.identity_drift:
        lines.append(
            "identity drift (expected movement — constants were retuned): "
            + ", ".join(report.identity_drift)
        )
    for cell in report.regressions:
        change = (cell.ratio - 1.0) * 100
        line = f"  REGRESSION {cell.label}: {cell.baseline_us:.1f} -> " \
               f"{cell.candidate_us:.1f} us (+{change:.1f}%)"
        if cell.dominant_wait is not None:
            line += f" -- +{cell.wait_delta_us:.1f} us of {cell.dominant_wait}"
        elif cell.dominant_phase is not None:
            grew = cell.phase_deltas_us.get(cell.dominant_phase, 0.0)
            if grew > 0:
                line += f", localized to {cell.dominant_phase} (+{grew:.1f} us on the critical path)"
            else:
                line += f", dominant critical-path phase: {cell.dominant_phase}"
        lines.append(line)
    for key in report.missing:
        operation, stack, nbytes, nodes = key
        lines.append(
            f"  MISSING {operation} {stack} {format_bytes(nbytes)} x{nodes} nodes: "
            f"in baseline but not in candidate"
        )
    cells_shown = report.improvements if not verbose else report.cells
    for cell in cells_shown:
        if cell.status == "improvement":
            change = (1.0 - cell.ratio) * 100
            lines.append(
                f"  improvement {cell.label}: {cell.baseline_us:.1f} -> "
                f"{cell.candidate_us:.1f} us (-{change:.1f}%)"
            )
        elif verbose and cell.status in ("drift", "pass"):
            lines.append(
                f"  {cell.status} {cell.label}: {cell.baseline_us:.1f} -> "
                f"{cell.candidate_us:.1f} us"
            )
    lines.append("gate: " + ("PASS" if report.ok else "FAIL"))
    return "\n".join(lines)
