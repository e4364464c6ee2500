"""Tests for the shared document envelope (:mod:`repro.envelope`).

Every kind is produced by the code that really emits it, written, and read
back through the one loader: the round trip must be byte-stable, and a
wrong kind or schema version must fail naming the file, both versions and
the command that regenerates it.
"""

import json
import pathlib

import pytest

from repro import envelope
from repro.errors import ConfigurationError

SEED = pathlib.Path(__file__).resolve().parent.parent / "BENCH_seed.json"


def _snapshot():
    from repro.bench.snapshot import collect_snapshot

    return collect_snapshot(
        label="t", operations=("barrier",), stacks=("srm",), tasks_per_node=2
    )


def _trace_diff():
    from repro.bench.regress import compare_snapshots, diff_document

    base = _snapshot()
    cand = json.loads(json.dumps(base))
    cand["label"] = "head"
    cand["cells"][0]["microseconds"] *= 2
    return diff_document(base, cand, compare_snapshots(base, cand))


def _tuned_table():
    from repro.bench.tune import collect_table

    return collect_table(
        operations=("broadcast",), sizes=[512], nodes_axis=[2],
        tasks_per_node=2, repeats=1,
    )


def _verify_report():
    from repro.verify import run_verify
    from repro.verify.runner import Cell

    body = run_verify([Cell(2, 2, "barrier", "none", 0)], schedules=2, seed=0)
    return envelope.stamp(envelope.VERIFY_REPORT, "t", {"body": body})


def _calibration_report():
    from repro.obs.calib import collect_calibration

    return collect_calibration(
        operations=("allreduce",), sizes=[8 * 1024, 32 * 1024], nodes_axis=[2],
        tasks_per_node=2, repeats=1, label="t",
    )


PRODUCERS = {
    envelope.SNAPSHOT: _snapshot,
    envelope.TRACE_DIFF: _trace_diff,
    envelope.TUNED_TABLE: _tuned_table,
    envelope.VERIFY_REPORT: _verify_report,
    envelope.CALIBRATION_REPORT: _calibration_report,
}


@pytest.fixture
def tiny_grid(monkeypatch):
    monkeypatch.setattr("repro.bench.snapshot.message_sizes", lambda: [512])
    monkeypatch.setattr("repro.bench.snapshot.processor_configs", lambda: [2])


@pytest.mark.parametrize("kind", sorted(envelope.KINDS))
def test_envelope_round_trip_and_rejections(kind, tiny_grid, tmp_path):
    document = PRODUCERS[kind]()
    version, _content, command = envelope.KINDS[kind]
    assert document["kind"] == kind and document["schema_version"] == version

    path = tmp_path / "doc.json"
    envelope.write(str(path), document)
    loaded = envelope.load(str(path), kind)
    assert loaded == json.loads(json.dumps(document))
    again = tmp_path / "again.json"
    envelope.write(str(again), loaded)
    assert again.read_bytes() == path.read_bytes()
    assert path.read_bytes().endswith(b"}\n")

    wrong_kind = tmp_path / "wrong_kind.json"
    envelope.write(str(wrong_kind), {**document, "kind": "repro-something-else"})
    with pytest.raises(ConfigurationError) as caught:
        envelope.load(str(wrong_kind), kind)
    assert "wrong_kind.json" in str(caught.value)
    assert "repro-something-else" in str(caught.value)

    stale = tmp_path / "stale.json"
    envelope.write(str(stale), {**document, "schema_version": version + 1})
    with pytest.raises(ConfigurationError) as caught:
        envelope.load(str(stale), kind)
    message = str(caught.value)
    assert "stale.json" in message
    assert f"v{version}" in message and f"v{version + 1}" in message
    assert command in message


def test_load_rejects_non_json_and_non_objects(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    with pytest.raises(ConfigurationError, match="garbage.json is not JSON"):
        envelope.load(str(garbage), envelope.SNAPSHOT)
    listing = tmp_path / "list.json"
    listing.write_text("[]")
    with pytest.raises(ConfigurationError, match="list.json"):
        envelope.load(str(listing), envelope.SNAPSHOT)


def test_committed_seed_round_trips_byte_for_byte(tmp_path):
    rewritten = tmp_path / "seed.json"
    envelope.write(str(rewritten), envelope.load(str(SEED), envelope.SNAPSHOT))
    assert rewritten.read_bytes() == SEED.read_bytes()


def test_write_dash_goes_to_stdout(capsys):
    envelope.write("-", {"b": 1, "a": [2]})
    assert capsys.readouterr().out == '{\n "a": [\n  2\n ],\n "b": 1\n}\n'
