"""Tests for the executable figure-shape assertions and the committed seed."""

import pathlib

from repro import envelope
from repro.bench.export import identity_fingerprint
from repro.bench.shapes import check_shapes, format_shape_results
from repro.bench.snapshot import cell_key

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = REPO_ROOT / "BENCH_seed.json"

GOOD_CONFIG = {"small_protocol_max": 64 * 1024, "pipeline_min": 8 * 1024}


def make_cell(operation, stack, nbytes, nodes, us):
    return {
        "operation": operation,
        "stack": stack,
        "nbytes": nbytes,
        "nodes": nodes,
        "total_tasks": nodes * 16,
        "repeats": 3,
        "microseconds": us,
        "metrics": {},
        "critical_path": None,
    }


def make_snapshot(cells, srm_config=GOOD_CONFIG):
    return {
        "kind": envelope.SNAPSHOT,
        "schema_version": envelope.KINDS[envelope.SNAPSHOT].version,
        "label": "t",
        "identity": {"srm_config": srm_config},
        "fingerprint": "0" * 12,
        "grid": {},
        "cells": cells,
    }


def result_by_name(snapshot):
    return {result.name: result for result in check_shapes(snapshot)}


# -- individual checks on synthetic grids -----------------------------------


def test_monotone_in_size_detects_inversion():
    good = make_snapshot([
        make_cell("reduce", "srm", 64, 2, 10.0),
        make_cell("reduce", "srm", 1024, 2, 20.0),
    ])
    assert result_by_name(good)["monotone-in-size"].ok
    bad = make_snapshot([
        make_cell("reduce", "srm", 64, 2, 20.0),
        make_cell("reduce", "srm", 1024, 2, 10.0),
    ])
    verdict = result_by_name(bad)["monotone-in-size"]
    assert not verdict.ok
    assert "reduce/srm" in verdict.detail


def test_monotone_in_size_allows_slack():
    jitter = make_snapshot([
        make_cell("reduce", "srm", 64, 2, 10.0),
        make_cell("reduce", "srm", 1024, 2, 9.9),  # within the 2% slack
    ])
    assert result_by_name(jitter)["monotone-in-size"].ok


def test_monotone_in_procs_detects_inversion():
    bad = make_snapshot([
        make_cell("reduce", "srm", 64, 2, 20.0),
        make_cell("reduce", "srm", 64, 4, 10.0),
    ])
    assert not result_by_name(bad)["monotone-in-procs"].ok


def test_srm_wins_small_detects_upset():
    good = make_snapshot([
        make_cell("broadcast", "srm", 1024, 4, 10.0),
        make_cell("broadcast", "ibm", 1024, 4, 20.0),
    ])
    assert result_by_name(good)["srm-wins-small"].ok
    bad = make_snapshot([
        make_cell("broadcast", "srm", 1024, 4, 30.0),
        make_cell("broadcast", "ibm", 1024, 4, 20.0),
    ])
    assert not result_by_name(bad)["srm-wins-small"].ok
    # Sizes above 64KB are outside the claim.
    large = make_snapshot([
        make_cell("broadcast", "srm", 1024 * 1024, 4, 30.0),
        make_cell("broadcast", "ibm", 1024 * 1024, 4, 20.0),
    ])
    assert result_by_name(large)["srm-wins-small"].ok


def test_srm_wins_barrier():
    good = make_snapshot([
        make_cell("barrier", "srm", 0, 4, 10.0),
        make_cell("barrier", "mpich", 0, 4, 30.0),
    ])
    assert result_by_name(good)["srm-wins-barrier"].ok
    bad = make_snapshot([
        make_cell("barrier", "srm", 0, 4, 40.0),
        make_cell("barrier", "mpich", 0, 4, 30.0),
    ])
    assert not result_by_name(bad)["srm-wins-barrier"].ok


def test_fig8_crossing_requires_both_baselines():
    cells = [
        make_cell("allreduce", "ibm", 8, 4, 20.0),
        make_cell("allreduce", "mpich", 8, 4, 30.0),
        make_cell("allreduce", "ibm", 8192, 4, 300.0),
        make_cell("allreduce", "mpich", 8192, 4, 200.0),
    ]
    assert result_by_name(make_snapshot(cells))["fig8-baseline-crossing"].ok
    # No crossing: MPICH stays below IBM even for tiny messages.
    flat = make_snapshot([
        make_cell("allreduce", "ibm", 8, 4, 30.0),
        make_cell("allreduce", "mpich", 8, 4, 20.0),
        make_cell("allreduce", "ibm", 8192, 4, 300.0),
        make_cell("allreduce", "mpich", 8192, 4, 200.0),
    ])
    assert not result_by_name(flat)["fig8-baseline-crossing"].ok
    # Only one baseline in the grid: the claim cannot be evaluated.
    srm_only = make_snapshot([make_cell("allreduce", "srm", 8, 4, 10.0)])
    assert "fig8-baseline-crossing" not in result_by_name(srm_only)


def test_broadcast_protocol_switch_guards_config_and_per_byte_cost():
    cells = [
        make_cell("broadcast", "srm", 1024, 4, 50.0),       # 0.0488 us/B
        make_cell("broadcast", "srm", 64 * 1024, 4, 1000.0),  # 0.0153 us/B
        make_cell("broadcast", "srm", 1024 * 1024, 4, 10000.0),  # 0.0095 us/B
    ]
    assert result_by_name(make_snapshot(cells))["broadcast-protocol-switch"].ok
    retuned = make_snapshot(cells, srm_config={"small_protocol_max": 32 * 1024,
                                               "pipeline_min": 8 * 1024})
    verdict = result_by_name(retuned)["broadcast-protocol-switch"]
    assert not verdict.ok
    assert "small_protocol_max" in verdict.detail
    regressive = make_snapshot([
        make_cell("broadcast", "srm", 1024, 4, 50.0),
        make_cell("broadcast", "srm", 64 * 1024, 4, 5000.0),  # costlier per byte
    ])
    assert not result_by_name(regressive)["broadcast-protocol-switch"].ok


def test_format_shape_results_counts_failures():
    bad = make_snapshot([
        make_cell("reduce", "srm", 64, 2, 20.0),
        make_cell("reduce", "srm", 1024, 2, 10.0),
    ])
    text = format_shape_results(check_shapes(bad))
    assert "[FAIL] monotone-in-size" in text
    assert "violated" in text


# -- the committed seed baseline --------------------------------------------


def test_seed_snapshot_is_committed_and_valid():
    snapshot = envelope.load(str(SEED), envelope.SNAPSHOT)
    assert snapshot["fingerprint"] == identity_fingerprint(snapshot["identity"])
    keys = [cell_key(cell) for cell in snapshot["cells"]]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_seed_snapshot_passes_every_shape_claim():
    snapshot = envelope.load(str(SEED), envelope.SNAPSHOT)
    results = check_shapes(snapshot)
    # The committed grid supports all six claims.
    assert len(results) == 6
    failures = [result for result in results if not result.ok]
    assert not failures, format_shape_results(results)
