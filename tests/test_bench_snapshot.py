"""Tests for benchmark telemetry snapshots (capture, schema, determinism)."""

import json

import pytest

from repro import envelope
from repro.bench.snapshot import (
    bench_sizes as snapshot_sizes,
)
from repro.bench.snapshot import (
    capture_cell,
    cell_key,
    collect_snapshot,
)
from repro.cli import main
from repro.errors import ConfigurationError


@pytest.fixture
def tiny_grid(monkeypatch):
    monkeypatch.setattr("repro.bench.snapshot.message_sizes", lambda: [512])
    monkeypatch.setattr("repro.bench.snapshot.processor_configs", lambda: [1, 2])


# -- grid -------------------------------------------------------------------


def test_bench_sizes_capped_at_1mb_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    sizes = snapshot_sizes()
    assert max(sizes) == 1024 * 1024
    assert 8 in sizes


def test_bench_sizes_full_grid(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_FULL", "1")
    assert max(snapshot_sizes()) == 8 * 1024 * 1024


# -- capture ----------------------------------------------------------------


def test_capture_cell_srm_has_telemetry():
    cell = capture_cell("srm", "allreduce", 4096, nodes=2, tasks_per_node=2)
    assert cell["microseconds"] > 0
    assert cell["total_tasks"] == 4
    assert cell["metrics"]["task.copies"] > 0
    path = cell["critical_path"]
    assert path is not None
    assert path["phases_us"]
    # The walk partitions the timed window: attribution is essentially total.
    assert path["attributed_us"] == pytest.approx(path["total_us"], rel=1e-6)


def test_capture_cell_baseline_stack_records_substrate_only():
    # MPI baselines record substrate spans (copies, reduce-apply) but no SRM
    # protocol phases, so much of their critical path stays untracked.
    cell = capture_cell("ibm", "allreduce", 4096, nodes=2, tasks_per_node=2)
    assert cell["microseconds"] > 0
    path = cell["critical_path"]
    assert path is not None
    assert "(untracked)" in path["phases_us"]


def test_capture_cell_rejects_unknown_operation():
    with pytest.raises(ConfigurationError):
        capture_cell("srm", "transmogrify", 64, nodes=1, tasks_per_node=2)


# -- snapshot document ------------------------------------------------------


def test_collect_snapshot_document_shape(tiny_grid):
    snapshot = collect_snapshot(
        label="t", operations=("barrier", "reduce"), stacks=("srm",), tasks_per_node=2
    )
    assert snapshot["kind"] == envelope.SNAPSHOT
    assert snapshot["schema_version"] == envelope.KINDS[envelope.SNAPSHOT].version
    assert snapshot["label"] == "t"
    assert snapshot["grid"]["operations"] == ["barrier", "reduce"]
    # barrier is sized once (nbytes=0); reduce once per size.
    assert len(snapshot["cells"]) == 2 + 2
    keys = [cell_key(cell) for cell in snapshot["cells"]]
    assert keys == sorted(keys)


def test_collect_snapshot_is_deterministic(tiny_grid):
    first = collect_snapshot(label="t", operations=("reduce",), stacks=("srm",),
                             tasks_per_node=2)
    second = collect_snapshot(label="t", operations=("reduce",), stacks=("srm",),
                              tasks_per_node=2)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_collect_snapshot_rejects_unknown_operation(tiny_grid):
    with pytest.raises(ConfigurationError):
        collect_snapshot(operations=("reduce", "gossip"))


def test_collect_snapshot_reports_progress(tiny_grid):
    seen = []
    collect_snapshot(operations=("barrier",), stacks=("srm",), tasks_per_node=2,
                     progress=seen.append)
    assert len(seen) == 2
    assert all("barrier srm" in line for line in seen)


# -- persistence ------------------------------------------------------------


def test_load_rejects_missing_fields(tmp_path):
    crippled = tmp_path / "crippled.json"
    crippled.write_text(
        json.dumps({"kind": envelope.SNAPSHOT, "schema_version": 1, "cells": []})
    )
    with pytest.raises(ConfigurationError, match="missing label, identity, fingerprint"):
        envelope.load(str(crippled), envelope.SNAPSHOT)


# -- CLI --------------------------------------------------------------------


def test_cli_bench_writes_snapshot(tiny_grid, tmp_path, capsys):
    target = tmp_path / "BENCH_head.json"
    code = main(["bench", "--ops", "barrier", "--json-out", str(target), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote" in out and "cells" in out
    snapshot = envelope.load(str(target), envelope.SNAPSHOT)
    assert snapshot["label"] == "head"
    assert all(cell["operation"] == "barrier" for cell in snapshot["cells"])
