"""Tests for the parallel grid executor and its byte-identity guarantee.

Workers used with ``jobs > 1`` run in *spawned* child processes, so every
worker in this module is a top-level function (spawn pickles them by
qualified name).
"""

import os

import pytest

from repro import envelope
from repro.bench.pool import resolve_jobs, run_grid
from repro.bench.snapshot import cell_seed, collect_snapshot
from repro.bench.sweeps import clear_cache, measure, warm_cache
from repro.errors import ConfigurationError


@pytest.fixture
def tiny_grid(monkeypatch):
    monkeypatch.setattr("repro.bench.snapshot.message_sizes", lambda: [512])
    monkeypatch.setattr("repro.bench.snapshot.processor_configs", lambda: [1, 2])


# -- spawn-safe workers (module level by contract) --------------------------


def _square(cell):
    return cell * cell


def _explode(cell):
    raise ValueError(f"boom on {cell}")


# -- resolve_jobs -----------------------------------------------------------


def test_resolve_jobs_serial_default():
    assert resolve_jobs(1) == 1


def test_resolve_jobs_zero_means_all_cores():
    assert resolve_jobs(0) == (os.cpu_count() or 1)


def test_resolve_jobs_negative_rejected():
    with pytest.raises(ConfigurationError):
        resolve_jobs(-2)


def test_resolve_jobs_clamped_to_cell_count():
    assert resolve_jobs(8, cells=3) == 3
    assert resolve_jobs(8, cells=0) == 1


# -- run_grid ---------------------------------------------------------------


def test_run_grid_empty():
    assert run_grid([], _square, jobs=4) == []


def test_run_grid_serial_preserves_order_and_reports_progress():
    seen = []
    results = run_grid(
        [3, 1, 2], _square, jobs=1,
        progress=lambda cell, done, total: seen.append((cell, done, total)),
    )
    assert results == [9, 1, 4]
    assert seen == [(3, 1, 3), (1, 2, 3), (2, 3, 3)]


def test_run_grid_parallel_matches_serial():
    cells = list(range(7))
    serial = run_grid(cells, _square, jobs=1)
    parallel = run_grid(cells, _square, jobs=2)
    assert parallel == serial == [c * c for c in cells]


def test_run_grid_parallel_reports_all_completions():
    seen = []
    run_grid(
        [1, 2, 3], _square, jobs=2,
        progress=lambda cell, done, total: seen.append((cell, total)),
    )
    # Completion order is nondeterministic, but every cell reports once.
    assert sorted(seen) == [(1, 3), (2, 3), (3, 3)]


def test_run_grid_serial_propagates_worker_error():
    with pytest.raises(ValueError, match="boom"):
        run_grid([1], _explode, jobs=1)


def test_run_grid_parallel_propagates_worker_error():
    with pytest.raises(ValueError, match="boom"):
        run_grid([1, 2], _explode, jobs=2)


# -- snapshot byte-identity (the executor's core guarantee) -----------------


def test_snapshot_parallel_is_byte_identical_to_serial(tiny_grid, tmp_path):
    kwargs = dict(
        label="t", operations=("barrier", "reduce"), stacks=("srm",),
        tasks_per_node=2,
    )
    serial = collect_snapshot(jobs=1, **kwargs)
    parallel = collect_snapshot(jobs=4, **kwargs)
    serial_path = tmp_path / "serial.json"
    parallel_path = tmp_path / "parallel.json"
    envelope.write(str(serial_path), serial)
    envelope.write(str(parallel_path), parallel)
    assert serial_path.read_bytes() == parallel_path.read_bytes()


def test_snapshot_seeds_identical_under_both_paths(tiny_grid):
    kwargs = dict(operations=("barrier",), stacks=("srm",), tasks_per_node=2)
    serial = collect_snapshot(jobs=1, **kwargs)
    parallel = collect_snapshot(jobs=2, **kwargs)
    serial_seeds = [cell["seed"] for cell in serial["cells"]]
    parallel_seeds = [cell["seed"] for cell in parallel["cells"]]
    assert serial_seeds == parallel_seeds
    # And each seed is the documented pure function of the cell key.
    for cell in serial["cells"]:
        assert cell["seed"] == cell_seed(
            cell["operation"], cell["stack"], cell["nbytes"], cell["nodes"]
        )


# -- warm_cache -------------------------------------------------------------


def test_warm_cache_matches_direct_measure():
    clear_cache()
    direct = measure("srm", "barrier", 0, nodes=1, tasks_per_node=2)
    clear_cache()
    warmed = warm_cache(
        [("srm", "barrier", 0, 1, 2), ("srm", "barrier", 0, 1, 2)], jobs=1
    )
    assert warmed == 1  # duplicates collapse
    cached = measure("srm", "barrier", 0, nodes=1, tasks_per_node=2)
    assert cached.seconds == direct.seconds
    assert warm_cache([("srm", "barrier", 0, 1, 2)], jobs=1) == 0  # cache hit
    clear_cache()
