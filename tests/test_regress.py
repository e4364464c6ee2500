"""Tests for the snapshot regression gate (compare, attribute, CLI)."""

import copy

import pytest

import json

from repro import envelope
from repro.bench.regress import (
    SchemaMismatchError,
    compare_snapshots,
    diff_document,
    format_report,
)
from repro.cli import main
from repro.errors import ConfigurationError

SCHEMA_VERSION = envelope.KINDS[envelope.SNAPSHOT].version


def make_cell(operation="allreduce", stack="srm", nbytes=1024, nodes=2,
              us=100.0, phases=None, waits=None):
    critical = None
    if phases is not None:
        critical = {
            "total_us": us,
            "attributed_us": us,
            "segments": 4,
            "ranks": 2,
            "phases_us": phases,
        }
    return {
        "operation": operation,
        "stack": stack,
        "nbytes": nbytes,
        "nodes": nodes,
        "total_tasks": nodes * 16,
        "repeats": 3,
        "microseconds": us,
        "metrics": {},
        "critical_path": critical,
        "wait_states": waits or {},
    }


def make_snapshot(cells, label="base", version=SCHEMA_VERSION, identity=None):
    return {
        "kind": envelope.SNAPSHOT,
        "schema_version": version,
        "label": label,
        "identity": identity if identity is not None else {"version": "1.0"},
        "fingerprint": "0" * 12,
        "grid": {},
        "cells": cells,
    }


BASE_PHASES = {"counter-wait": 60.0, "smp-reduce": 40.0}


def test_identical_snapshots_pass():
    base = make_snapshot([make_cell(phases=BASE_PHASES)])
    report = compare_snapshots(base, copy.deepcopy(base))
    assert report.ok
    assert [cell.status for cell in report.cells] == ["pass"]
    assert "gate: PASS" in format_report(report)


def test_drift_within_tolerance_passes():
    base = make_snapshot([make_cell(us=100.0)])
    cand = make_snapshot([make_cell(us=103.0)])
    report = compare_snapshots(base, cand, tolerance=0.05)
    assert report.ok
    assert [cell.status for cell in report.cells] == ["drift"]


def test_regression_fails_and_names_grown_phase():
    base = make_snapshot([make_cell(us=100.0, phases=BASE_PHASES)])
    cand = make_snapshot(
        [make_cell(us=200.0, phases={"counter-wait": 160.0, "smp-reduce": 40.0})]
    )
    report = compare_snapshots(base, cand)
    assert not report.ok
    [cell] = report.regressions
    assert cell.ratio == pytest.approx(2.0)
    assert cell.dominant_phase == "counter-wait"
    assert cell.phase_deltas_us["counter-wait"] == pytest.approx(100.0)
    text = format_report(report)
    assert "REGRESSION" in text
    assert "localized to counter-wait" in text
    assert "gate: FAIL" in text


def test_regression_attribution_falls_back_to_heaviest_phase():
    # A uniformly-scaled snapshot has no positive phase delta to blame; the
    # report still names the heaviest candidate phase.
    base = make_snapshot([make_cell(us=100.0, phases=BASE_PHASES)])
    cand = make_snapshot([make_cell(us=200.0, phases=BASE_PHASES)])
    report = compare_snapshots(base, cand)
    [cell] = report.regressions
    assert cell.dominant_phase == "counter-wait"
    assert "dominant critical-path phase: counter-wait" in format_report(report)


def test_regression_without_phase_data_still_fails():
    base = make_snapshot([make_cell(stack="ibm", us=100.0)])
    cand = make_snapshot([make_cell(stack="ibm", us=200.0)])
    report = compare_snapshots(base, cand)
    assert not report.ok
    assert report.regressions[0].dominant_phase is None


def test_regression_names_dominant_wait_state_and_resource():
    base = make_snapshot([make_cell(
        us=100.0, phases=BASE_PHASES,
        waits={"late-release|ring-step|-": 40.0},
    )])
    cand = make_snapshot([make_cell(
        us=200.0, phases={"counter-wait": 160.0, "smp-reduce": 40.0},
        waits={"late-release|ring-step|-": 30.0,
               "bandwidth-contention|ring-step|bus[0]": 120.0},
    )])
    report = compare_snapshots(base, cand)
    [cell] = report.regressions
    assert cell.dominant_wait == "bandwidth-contention on bus[0] during ring-step"
    assert cell.wait_delta_us == pytest.approx(120.0)
    text = format_report(report)
    # The wait-state attribution outranks the phase fallback in the report.
    assert "-- +120.0 us of bandwidth-contention on bus[0] during ring-step" in text
    assert "localized to" not in text


def test_regression_without_wait_growth_keeps_phase_attribution():
    base = make_snapshot([make_cell(us=100.0, phases=BASE_PHASES,
                                    waits={"late-sender|-|-": 50.0})])
    cand = make_snapshot(
        [make_cell(us=200.0, phases={"counter-wait": 160.0, "smp-reduce": 40.0},
                   waits={"late-sender|-|-": 50.0})]
    )
    report = compare_snapshots(base, cand)
    [cell] = report.regressions
    assert cell.dominant_wait is None
    assert "localized to counter-wait" in format_report(report)


def test_diff_document_covers_every_moved_cell():
    unchanged = make_cell(nbytes=512, phases=BASE_PHASES)
    base = make_snapshot([make_cell(us=100.0, phases=BASE_PHASES,
                                    waits={"late-sender|-|-": 20.0}),
                          unchanged])
    cand = make_snapshot([make_cell(us=200.0, phases=BASE_PHASES,
                                    waits={"late-sender|-|-": 130.0}),
                          copy.deepcopy(unchanged)], label="head")
    report = compare_snapshots(base, cand)
    document = diff_document(base, cand, report)
    json.dumps(document)
    assert document["kind"] == envelope.TRACE_DIFF
    assert document["baseline_label"] == "base"
    assert document["candidate_label"] == "head"
    assert document["ok"] is False
    assert document["compared"] == 2
    # Only the moved cell is analyzed; the identical one is skipped.
    [entry] = document["cells"]
    assert entry["key"] == ["allreduce", "srm", 1024, 2]
    assert entry["status"] == "regression"
    assert "+110.0us of late-sender" in entry["headline"]


def test_improvement_passes():
    base = make_snapshot([make_cell(us=100.0)])
    cand = make_snapshot([make_cell(us=50.0)])
    report = compare_snapshots(base, cand)
    assert report.ok
    assert [cell.status for cell in report.cells] == ["improvement"]
    assert "improvement" in format_report(report)


def test_missing_cell_fails_added_cell_passes():
    kept = make_cell(nbytes=1024)
    dropped = make_cell(nbytes=8192)
    new = make_cell(nbytes=512)
    report = compare_snapshots(
        make_snapshot([kept, dropped]), make_snapshot([kept, new])
    )
    assert not report.ok
    assert report.missing == [("allreduce", "srm", 8192, 2)]
    assert report.added == [("allreduce", "srm", 512, 2)]
    assert "MISSING" in format_report(report)
    # Additions alone do not fail the gate.
    assert compare_snapshots(make_snapshot([kept]), make_snapshot([kept, new])).ok


def test_schema_version_mismatch_raises():
    good = make_snapshot([make_cell()])
    stale = make_snapshot([make_cell()], version=SCHEMA_VERSION + 1)
    with pytest.raises(SchemaMismatchError):
        compare_snapshots(stale, good)
    with pytest.raises(SchemaMismatchError):
        compare_snapshots(good, stale)


def test_negative_tolerance_rejected():
    base = make_snapshot([make_cell()])
    with pytest.raises(ConfigurationError):
        compare_snapshots(base, base, tolerance=-0.1)


def test_identity_drift_is_reported_not_fatal():
    base = make_snapshot([make_cell()], identity={"version": "1.0",
                                                  "cost_model": {"latency": 1.0}})
    cand = make_snapshot([make_cell()], identity={"version": "1.1",
                                                  "cost_model": {"latency": 2.0}})
    report = compare_snapshots(base, cand)
    assert report.ok
    assert report.identity_drift == ["cost_model.latency", "version"]
    assert "identity drift" in format_report(report)


def test_verbose_report_lists_every_cell():
    base = make_snapshot([make_cell(us=100.0)])
    report = compare_snapshots(base, copy.deepcopy(base))
    assert "pass allreduce" in format_report(report, verbose=True)


# -- CLI --------------------------------------------------------------------


def write_pair(tmp_path, base, cand):
    base_path = tmp_path / "BENCH_base.json"
    cand_path = tmp_path / "BENCH_cand.json"
    envelope.write(str(base_path), base)
    envelope.write(str(cand_path), cand)
    return str(base_path), str(cand_path)


def test_cli_regress_pass_exit_zero(tmp_path, capsys):
    base = make_snapshot([make_cell(phases=BASE_PHASES)])
    base_path, cand_path = write_pair(tmp_path, base, copy.deepcopy(base))
    code = main(["regress", "--baseline", base_path, "--candidate", cand_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "gate: PASS" in out


def test_cli_regress_injected_slowdown_exits_nonzero(tmp_path, capsys):
    base = make_snapshot([make_cell(us=100.0, phases=BASE_PHASES)])
    cand = copy.deepcopy(base)
    cand["cells"][0]["microseconds"] *= 2  # inject a 2x slowdown in one cell
    base_path, cand_path = write_pair(tmp_path, base, cand)
    code = main(["regress", "--baseline", base_path, "--candidate", cand_path])
    out = capsys.readouterr().out
    assert code == 1
    assert "REGRESSION allreduce srm 1KB x2 nodes" in out
    # The dominant critical-path phase is always named for SRM cells.
    assert "counter-wait" in out


def test_cli_regress_diff_out_writes_artifact(tmp_path, capsys):
    base = make_snapshot([make_cell(us=100.0, phases=BASE_PHASES,
                                    waits={"late-sender|-|-": 20.0})])
    cand = make_snapshot([make_cell(us=200.0, phases=BASE_PHASES,
                                    waits={"late-sender|-|-": 140.0})])
    base_path, cand_path = write_pair(tmp_path, base, cand)
    diff_path = tmp_path / "DIFF.json"
    code = main(["regress", "--baseline", base_path, "--candidate", cand_path,
                 "--diff-out", str(diff_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert f"wrote differential trace analysis to {diff_path}" in out
    document = envelope.load(str(diff_path), envelope.TRACE_DIFF)
    assert document["cells"][0]["status"] == "regression"


def test_cli_regress_trace_out_skipped_without_regressions(tmp_path, capsys):
    base = make_snapshot([make_cell(phases=BASE_PHASES)])
    base_path, cand_path = write_pair(tmp_path, base, copy.deepcopy(base))
    trace_path = tmp_path / "TRACE.json"
    code = main(["regress", "--baseline", base_path, "--candidate", cand_path,
                 "--trace-out", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "no regressions; skipping --trace-out" in out
    assert not trace_path.exists()


def test_cli_regress_trace_out_rebuilds_worst_cell(tmp_path, capsys):
    base = make_snapshot([make_cell(us=100.0, phases=BASE_PHASES)])
    cand = make_snapshot([make_cell(us=250.0, phases=BASE_PHASES)])
    base_path, cand_path = write_pair(tmp_path, base, cand)
    trace_path = tmp_path / "TRACE.json"
    code = main(["regress", "--baseline", base_path, "--candidate", cand_path,
                 "--trace-out", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "wrote Perfetto trace of worst regression" in out
    events = json.loads(trace_path.read_text())
    assert any(event.get("cat") == "phase" for event in events)


def test_cli_regress_update_rewrites_baseline(tmp_path, capsys):
    base = make_snapshot([make_cell(us=100.0, phases=BASE_PHASES)])
    cand = make_snapshot([make_cell(us=200.0, phases=BASE_PHASES)], label="head")
    base_path, cand_path = write_pair(tmp_path, base, cand)
    code = main(["regress", "--baseline", base_path, "--candidate", cand_path,
                 "--update"])
    assert code == 0
    assert "updated baseline" in capsys.readouterr().out
    # The rewritten baseline now matches the candidate: the gate passes.
    code = main(["regress", "--baseline", base_path, "--candidate", cand_path])
    capsys.readouterr()
    assert code == 0
