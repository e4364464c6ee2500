"""Tests for ``python -m repro verify``: report schema, exit codes, smoke."""

from repro import envelope
from repro.cli import main
from repro.verify import run_verify
from repro.verify.runner import Cell

ONE_CELL = [Cell(2, 2, "broadcast", "small", 2048)]

#: Top-level keys every report carries.
ENVELOPE_KEYS = ("kind", "schema_version", "label", "identity", "fingerprint", "body")

#: Keys every ``verify``-mode body carries.
VERIFY_BODY_KEYS = (
    "mode",
    "explorer",
    "seed",
    "faults",
    "schedules_per_cell",
    "cells",
    "totals",
    "ok",
)

#: Keys every cell entry carries.
CELL_KEYS = (
    "cell",
    "nodes",
    "procs",
    "operation",
    "regime",
    "nbytes",
    "overlap",
    "explorer",
    "reference_digest",
    "reference_error",
    "schedules_explored",
    "distinct_signatures",
    "errors",
    "divergences",
    "violations",
    "violation_count",
    "faults_injected",
    "ok",
)


def verify_report(body, label):
    return envelope.stamp(envelope.VERIFY_REPORT, label, {"body": body})


# ---------------------------------------------------------------------------
# golden report schema
# ---------------------------------------------------------------------------


def test_report_carries_full_golden_schema(tmp_path):
    body = run_verify(ONE_CELL, schedules=4, seed=0)
    path = tmp_path / "report.json"
    envelope.write(str(path), verify_report(body, label="test"))
    loaded = envelope.load(str(path), envelope.VERIFY_REPORT)

    assert sorted(loaded) == sorted(ENVELOPE_KEYS)
    assert loaded["kind"] == envelope.VERIFY_REPORT
    assert loaded["schema_version"] == 3
    assert loaded["label"] == "test"
    for key in VERIFY_BODY_KEYS:
        assert key in loaded["body"], key
    for cell_entry in loaded["body"]["cells"]:
        assert sorted(cell_entry) == sorted(CELL_KEYS)
    totals = loaded["body"]["totals"]
    assert totals["cells"] == 1
    assert totals["schedules"] >= 4
    assert loaded["body"]["ok"] is True


def test_report_serialization_is_byte_stable(tmp_path):
    body = run_verify(ONE_CELL, schedules=4, seed=0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    envelope.write(str(a), verify_report(body, label="x"))
    envelope.write(
        str(b), verify_report(run_verify(ONE_CELL, schedules=4, seed=0), label="x")
    )
    assert a.read_bytes() == b.read_bytes()


def test_report_counts_schedules_and_violations():
    body = run_verify(ONE_CELL, schedules=5, seed=2)
    entry = body["cells"][0]
    assert entry["schedules_explored"] == entry["distinct_signatures"] >= 5
    assert body["totals"]["schedules"] == entry["schedules_explored"]
    assert body["totals"]["violations"] == 0


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------


def test_cli_verify_quick_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(
        [
            "verify",
            "--quick",
            "--quiet",
            "--schedules",
            "4",
            "--json-out",
            str(out),
        ]
    )
    assert code == 0
    report = envelope.load(str(out), envelope.VERIFY_REPORT)
    assert report["body"]["ok"] is True
    assert report["body"]["totals"]["violations"] == 0
    assert "cells ok" in capsys.readouterr().out


def test_cli_verify_explicit_grid_and_dfs(capsys):
    code = main(
        [
            "verify",
            "--nodes",
            "2",
            "--procs",
            "2",
            "--ops",
            "barrier",
            "--schedules",
            "4",
            "--explorer",
            "dfs",
            "--no-faults",
            "--quiet",
        ]
    )
    assert code == 0
    assert "(ok)" in capsys.readouterr().out


def test_cli_verify_rejects_unknown_operation(capsys):
    assert main(["verify", "--ops", "alltoallv", "--quiet"]) == 2


def test_cli_verify_smoke_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "smoke.json"
    code = main(["verify", "--smoke", "--quiet", "--json-out", str(out)])
    assert code == 0
    report = envelope.load(str(out), envelope.VERIFY_REPORT)
    assert report["body"]["mode"] == "mutation-smoke"
    assert report["body"]["ok"] is True
    detected = [m for m in report["body"]["mutations"] if m["detected"]]
    assert len(detected) == len(report["body"]["mutations"]) >= 4
    assert "4/4 injected bugs detected" in capsys.readouterr().out


def test_cli_verify_progress_lines(capsys):
    code = main(
        ["verify", "--nodes", "2", "--procs", "2", "--ops", "barrier", "--schedules", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    # One blocking cell, the two overlap (plan2/plans) cells, and the
    # compiled-replay windows cell (barrier has no buffers to rebind).
    assert "verify [1/4] barrier/n2xp2" in out
    assert "/plan2" in out and "/plans" in out and "/replay" in out
