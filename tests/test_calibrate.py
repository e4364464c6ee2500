"""Tests for the calibration report (`repro.obs.calib`) and its CLI path.

The heavy lifting — decision records on a live machine, the term-breakdown
invariant — is covered in test_dispatch.py and test_machine_costmodel.py;
this file exercises the report builder itself: document shape, schema
validation, jobs-determinism, crossover checks, the regret scorecard, and
the predicted-vs-measured scatter.
"""

import copy
import json

import pytest

from repro import envelope
from repro.bench.figures import calibration_scatter
from repro.errors import ConfigurationError
from repro.obs.calib import (
    QUICK_SIZES,
    SCORECARD_POLICIES,
    DecisionRecord,
    collect_calibration,
    load_calibration_report,
    run_calibrate,
    validate_calibration_report,
)

KB = 1024

# One micro-grid shared by every test in this file: allreduce on 2 nodes,
# two sizes straddling the 16 KB exchange->pipeline switch point.
GRID = dict(
    operations=("allreduce",),
    sizes=[8 * KB, 32 * KB],
    nodes_axis=[2],
    tasks_per_node=2,
    repeats=1,
    label="test",
)


@pytest.fixture(scope="module")
def report():
    return collect_calibration(**GRID)


def test_report_shape_and_cells(report):
    assert report["kind"] == envelope.CALIBRATION_REPORT
    assert report["schema_version"] == envelope.KINDS[envelope.CALIBRATION_REPORT].version
    assert report["label"] == "test"
    assert report["fingerprint"]
    assert report["grid"]["sizes"] == [8 * KB, 32 * KB]
    assert set(report["terms"]) == {"copy", "wire", "reduce", "eager", "other"}
    assert len(report["cells"]) == 2
    for cell in report["cells"]:
        assert cell["operation"] == "allreduce"
        assert set(cell["variants"]) == {"exchange", "pipeline", "ring"}
        assert cell["best"] in cell["variants"]
        best_entry = cell["variants"][cell["best"]]
        assert best_entry["measured_us"] == cell["best_us"] > 0
        # Selections were scored for every scorecard policy.
        assert set(cell["selections"]) == set(SCORECARD_POLICIES)
        for entry in cell["variants"].values():
            if entry["measured_us"] is None:
                continue
            assert entry["predicted_us"] == pytest.approx(
                sum(entry["predicted_terms_us"].values()), rel=1e-3
            )


def test_report_validates(report):
    validate_calibration_report(report)


def test_model_error_groups_carry_term_attribution(report):
    (group,) = report["model_error"]
    assert group["operation"] == "allreduce" and group["nodes"] == 2
    assert group["mean_abs_log2_error"] is not None
    for entry in group["by_variant"].values():
        assert entry["cells"] >= 1
        # With 2 cells and >=2 active terms the lstsq fit may be
        # underdetermined (None); when present, scales are positive-keyed.
        if entry["term_scales"] is not None:
            assert all(term in report["terms"] for term in entry["term_scales"])


def test_crossover_check_spans_the_exchange_switch(report):
    checks = [c for c in report["crossovers"] if c["switch"] == "allreduce_exchange_max"]
    assert len(checks) == 1
    check = checks[0]
    assert check["paper_bytes"] == 16 * KB
    assert check["below"] == "exchange" and check["above"] == "pipeline"
    assert check["spanned"] is True
    # The threshold is inclusive-below: paper's first pipeline size is the
    # first grid size *above* 16 KB.
    assert check["paper_first_above"] == 32 * KB
    assert check["agrees"] in (True, False)


def test_regret_scorecard_covers_all_policies(report):
    regret = report["regret"]
    assert set(SCORECARD_POLICIES) <= set(regret)
    for name in SCORECARD_POLICIES:
        entry = regret[name]
        assert entry["cells"] == 2
        assert entry["total_regret_us"] >= 0
        assert entry["mis_selections"] >= 0
        assert "allreduce" in entry["by_op"]
    # The self-trained tuned row replays this grid's winners: zero regret
    # by construction, and flagged as such.
    assert regret["tuned"]["trained_on_grid"] is True
    assert regret["tuned"]["total_regret_us"] == 0
    assert regret["tuned"]["mis_selections"] == 0


def test_headlines_lead_with_the_scorecard(report):
    assert report["headlines"]
    assert report["headlines"][0].startswith("policy scorecard over 2 cells:")
    assert all(name in report["headlines"][0] for name in SCORECARD_POLICIES)


def test_report_is_byte_identical_at_any_jobs_setting(report):
    parallel = collect_calibration(**GRID, jobs=2)
    assert json.dumps(parallel, sort_keys=True) == json.dumps(
        report, sort_keys=True
    )


def test_external_tuned_table_is_scored_instead_of_grid_winners(report):
    # A deliberately wrong table: pipeline everywhere, including 8 KB where
    # exchange wins. Scoring it must cost regret and drop the grid flag.
    table = envelope.stamp(
        envelope.TUNED_TABLE,
        "wrong",
        {"table": {"allreduce": {"2": [[1024 * KB, "pipeline"]]}}},
    )
    document = collect_calibration(**GRID, tuned_document=table)
    tuned = document["regret"]["tuned"]
    assert tuned["trained_on_grid"] is False
    expected = [
        cell for cell in document["cells"] if cell["best"] != "pipeline"
    ]
    assert tuned["mis_selections"] == len(expected)
    if expected:
        assert tuned["total_regret_us"] > 0


def test_validation_rejects_malformed_documents(report):
    with pytest.raises(ConfigurationError):
        validate_calibration_report({"kind": "something-else"})
    for key in ("cells", "model_error", "crossovers", "headlines"):
        with pytest.raises(ConfigurationError):
            validate_calibration_report({**report, key: []})
    missing = dict(report)
    del missing["fingerprint"]
    with pytest.raises(ConfigurationError):
        validate_calibration_report(missing)
    negative = copy.deepcopy(report)
    negative["regret"]["paper"]["total_regret_us"] = -1.0
    with pytest.raises(ConfigurationError):
        validate_calibration_report(negative)
    unknown_term = copy.deepcopy(report)
    first_variant = next(iter(unknown_term["cells"][0]["variants"].values()))
    first_variant["predicted_terms_us"]["teleport"] = 1.0
    with pytest.raises(ConfigurationError):
        validate_calibration_report(unknown_term)


def test_validation_rejects_unknown_operation():
    with pytest.raises(ConfigurationError):
        collect_calibration(operations=("telepathy",), sizes=[1024], nodes_axis=[2])


def test_run_calibrate_writes_a_loadable_validated_report(tmp_path, report, monkeypatch):
    # Route the full-grid branch through the micro-grid so the CLI path
    # (validate -> write -> reload) stays test-sized.
    import repro.obs.calib as calib

    def tiny(operations=None, label="calibration", progress=None, jobs=1,
             tuned_document=None, **kwargs):
        return collect_calibration(**{**GRID, "label": label})

    monkeypatch.setattr(calib, "collect_calibration", tiny)
    path = tmp_path / "CALIB_report.json"
    document = run_calibrate(out=str(path), label="roundtrip")
    assert document["label"] == "roundtrip"
    loaded = load_calibration_report(str(path))
    assert loaded == json.loads(json.dumps(document))
    # Byte-stable serialization: a rewrite reproduces the file exactly.
    first = path.read_bytes()
    run_calibrate(out=str(path), label="roundtrip")
    assert path.read_bytes() == first


def test_tuned_table_is_rejected_before_any_cell_is_measured(tmp_path, report, monkeypatch):
    import repro.obs.calib as calib

    def sweep(**kwargs):
        raise AssertionError("the sweep ran before the tuned table was checked")

    monkeypatch.setattr(calib, "collect_calibration", sweep)
    path = tmp_path / "not_tuned.json"
    envelope.write(str(path), report)  # a calibration report, not a table
    with pytest.raises(ConfigurationError, match="not_tuned.json"):
        run_calibrate(out=None, quick=True, tuned_table=str(path))


def test_stale_tuned_table_warns_and_is_scored(tmp_path, monkeypatch):
    import repro.obs.calib as calib

    received = []

    def sweep(tuned_document=None, **kwargs):
        received.append(tuned_document)
        return collect_calibration(**GRID, tuned_document=tuned_document)

    monkeypatch.setattr(calib, "collect_calibration", sweep)
    table = envelope.stamp(
        envelope.TUNED_TABLE, "foreign",
        {"table": {"allreduce": {"2": [[1024 * KB, "pipeline"]]}}},
    )
    table["fingerprint"] = "0" * 12  # measured under another cost model
    path = tmp_path / "foreign.json"
    envelope.write(str(path), table)
    with pytest.warns(UserWarning, match="foreign.json"):
        document = run_calibrate(out=None, tuned_table=str(path))
    assert received[0]["fingerprint"] == "0" * 12
    assert document["regret"]["tuned"]["trained_on_grid"] is False


def test_quick_grid_spans_the_paper_switch_points():
    # The CI micro-grid must keep straddling the 8 KB (pipeline_min) and
    # 16 KB (allreduce_exchange_max) switch points.
    assert min(QUICK_SIZES) <= 8 * KB < max(QUICK_SIZES)
    assert min(QUICK_SIZES) <= 16 * KB < max(QUICK_SIZES)


def test_calibration_scatter_renders(report):
    chart = calibration_scatter(report)
    assert "predicted vs measured latency" in chart
    assert "measured us" in chart and "predicted us" in chart
    empty = calibration_scatter({**report, "cells": []})
    assert empty == "calibration scatter: no measured cells"


def test_decision_record_to_dict_is_json_ready():
    record = DecisionRecord(
        op="broadcast", nbytes=4 * KB, nodes=2, ppn=2, policy="paper",
        chosen="small",
        predictions={
            "small": {
                "applicable": True,
                "total_us": 12.34567,
                "terms_us": {"wire": 10.0, "copy": 2.34567},
            }
        },
    )
    record.calls += 1
    record.cache_hits += 1
    payload = record.to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["calls"] == 2 and payload["cache_hits"] == 1
    assert payload["fallback"] is False and payload["fallback_from"] is None
    assert payload["predictions"]["small"]["total_us"] == 12.3457
