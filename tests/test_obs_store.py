"""The columnar span/flow/sample stores behind the phase recorder and monitor.

Spans, flow links and resource samples are recorded as columns; the
``PhaseSpan`` / ``FlowLink`` / ``ResourceSample`` objects exist only when a
consumer reads a row.  These tests pin the sequence surface of
``recorder.spans`` / ``recorder.flows``, the build-on-read contract on both
the slow path and compiled replay, and the span-id guarantees of
``PhaseRecorder.clear()``.
"""

import random

import numpy as np
import pytest

from repro.core import SRM, SRMConfig
from repro.machine import ClusterSpec
from repro.machine.cluster import Machine
from repro.mpi.ops import SUM
from repro.obs.critical import critical_path
from repro.obs.monitor import ResourceSample
from repro.obs.spans import FlowLink, PhaseSpan
from repro.obs.taxonomy import FLAG_WAIT, FLOW_PUT_COUNTER, WAIT_UNATTRIBUTED
from repro.obs.waits import classify_waits


def run_allreduce():
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    srm = SRM(machine)
    total = machine.spec.total_tasks
    sources = {r: np.full(512, float(r + 1)) for r in range(total)}
    outs = {r: np.zeros(512) for r in range(total)}

    def program(task):
        yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program)
    return machine


@pytest.fixture
def built(monkeypatch):
    """Counts of row objects constructed while the fixture is live."""
    counts = {"PhaseSpan": 0, "FlowLink": 0, "ResourceSample": 0}
    span_init = PhaseSpan.__init__
    flow_init = FlowLink.__init__
    sample_new = ResourceSample.__new__

    def init_span(self, *args, **kwargs):
        counts["PhaseSpan"] += 1
        span_init(self, *args, **kwargs)

    def init_flow(self, *args, **kwargs):
        counts["FlowLink"] += 1
        flow_init(self, *args, **kwargs)

    def new_sample(cls, *args, **kwargs):
        counts["ResourceSample"] += 1
        return sample_new(cls, *args, **kwargs)

    monkeypatch.setattr(PhaseSpan, "__init__", init_span)
    monkeypatch.setattr(FlowLink, "__init__", init_flow)
    monkeypatch.setattr(ResourceSample, "__new__", staticmethod(new_sample))
    return counts


NONE_BUILT = {"PhaseSpan": 0, "FlowLink": 0, "ResourceSample": 0}


# -- the sequence surface -----------------------------------------------------


def test_recording_and_len_build_no_objects(built):
    machine = run_allreduce()
    recorder = machine.obs.recorder
    assert len(recorder.spans) > 0 and len(recorder.flows) > 0
    assert recorder.spans and recorder.flows
    assert sum(len(t) for t in machine.obs.monitor.timelines.values()) > 0
    assert built == NONE_BUILT
    recorder.spans[0]
    recorder.flows[-1]
    machine.obs.monitor.get("bus[0]").samples
    assert built["PhaseSpan"] == 1 and built["FlowLink"] == 1
    assert built["ResourceSample"] == len(machine.obs.monitor.get("bus[0]"))


def test_index_slice_and_iteration_agree():
    recorder = run_allreduce().obs.recorder
    spans = recorder.spans
    size = len(spans)
    listed = list(spans)
    assert len(listed) == size
    for position in (0, size // 2, size - 1):
        span = spans[position]
        twin = listed[position]
        assert span.index == position and twin.index == position
        assert (span.rank, span.name, span.start, span.end, span.depth, span.parent,
                span.track, span.detail) == (twin.rank, twin.name, twin.start, twin.end,
                                             twin.depth, twin.parent, twin.track, twin.detail)
    assert spans[-1].index == size - 1
    assert [s.index for s in spans[2:7:2]] == [2, 4, 6]
    assert spans[size:] == []
    with pytest.raises(IndexError):
        spans[size]
    with pytest.raises(IndexError):
        spans[-size - 1]

    flows = recorder.flows
    assert list(flows) == [flows[i] for i in range(len(flows))]
    assert flows[1:3] == [flows[1], flows[2]]
    assert flows[0] in flows
    assert flows.count(flows[0]) >= 1


def test_append_and_item_assignment_store_fields():
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=2))
    recorder = machine.obs.recorder
    outer = PhaseSpan(index=len(recorder.spans), rank=1, name="context", start=1.0,
                      depth=0, parent=-1, track=0)
    outer.end = 4.0
    recorder.spans.append(outer)
    inner = PhaseSpan(index=len(recorder.spans), rank=1, name=FLAG_WAIT, start=2.0,
                      depth=1, parent=outer.index, track=0, detail="d")
    inner.end = 3.0
    recorder.spans.append(inner)
    stored = recorder.spans[1]
    assert (stored.index, stored.rank, stored.name, stored.start, stored.end,
            stored.depth, stored.parent, stored.detail) == (1, 1, FLAG_WAIT, 2.0, 3.0, 1, 0, "d")
    assert recorder.by_phase() == {"context": 3.0, FLAG_WAIT: 1.0}

    replacement = PhaseSpan(index=99, rank=0, name="other", start=0.5, depth=0,
                            parent=-1, track=1)
    recorder.spans[0] = replacement
    assert recorder.spans[0].name == "other"
    assert recorder.spans[0].index == 0  # ids come from positions
    assert recorder.spans[0].end is None

    link = FlowLink(FLOW_PUT_COUNTER, 0, 1.0, 1, 2.0, "x")
    recorder.flows.append(link)
    assert recorder.flows[0] == link
    recorder.flows[0] = FlowLink(FLOW_PUT_COUNTER, 1, 1.5, 0, 2.5)
    assert recorder.flows[0] == FlowLink(FLOW_PUT_COUNTER, 1, 1.5, 0, 2.5, "")


def test_flows_shuffle_in_place():
    recorder = run_allreduce().obs.recorder
    before = list(recorder.flows)
    random.Random(7).shuffle(recorder.flows)
    after = list(recorder.flows)
    assert after != before
    key = lambda f: (f.src_ts, f.src_rank, f.dst_ts, f.dst_rank, f.kind, f.detail)  # noqa: E731
    assert sorted(after, key=key) == sorted(before, key=key)


# -- compiled replay ------------------------------------------------------------


def test_replayed_windows_build_no_row_objects(built):
    machine = Machine(ClusterSpec(nodes=2, tasks_per_node=2))
    srm = SRM(machine, config=SRMConfig(compiled_replay=True))
    total = machine.spec.total_tasks
    buffers = {r: np.zeros(2048, np.uint8) for r in range(total)}
    plans = [srm.plan_broadcast(machine.task(r), buffers[r], root=0) for r in range(total)]
    recorder = machine.obs.recorder
    windows = []  # (t0, first row, end row)
    for window in range(6):
        buffers[0][:] = window + 1
        t0 = machine.engine.now
        spans_before = len(recorder.spans)
        for plan in plans:
            plan.start()
        machine.engine.run()
        windows.append((t0, spans_before, len(recorder.spans)))
    manager = machine.engine.trace
    assert manager.miss_count == 2 and manager.hit_count == 4
    assert built == NONE_BUILT

    # Replayed window 4 re-emits recorded window 0 (same slot parity).  The
    # block shift is exactly the per-value float arithmetic t0 + (t - t0_rec).
    (rec_t0, rec_lo, rec_hi), (rep_t0, rep_lo, rep_hi) = windows[0], windows[4]
    assert rep_hi - rep_lo == rec_hi - rec_lo
    columns = recorder.spans
    for column in (columns.start, columns.end):
        assert column[rep_lo:rep_hi] == [rep_t0 + (t - rec_t0) for t in column[rec_lo:rec_hi]]
    assert columns.name[rep_lo:rep_hi] == columns.name[rec_lo:rec_hi]
    assert columns.parent[rep_lo:rep_hi] == [
        p + rep_lo - rec_lo if p >= 0 else -1 for p in columns.parent[rec_lo:rec_hi]
    ]
    assert built == NONE_BUILT

    # Reading builds exactly what is read; the replayed rows carry the
    # window's own request numbers.
    last = recorder.spans[-1]
    assert built["PhaseSpan"] == 1
    assert last.end is not None and last.end <= machine.engine.now
    details = [span.detail for span in recorder.spans if span.name == "request"]
    assert len(set(details)) == len(details) == 6 * total
    critical_path(recorder)
    assert built["FlowLink"] < len(recorder.flows)


# -- clear() ------------------------------------------------------------------------


def test_clear_while_a_span_is_open_keeps_ids_monotonic():
    """A wait span cleared while open must not become its child's parent
    alias: the child's parent id names the dropped span, and the wait
    classifier's parent walk stops there instead of looping."""
    machine = Machine(ClusterSpec(nodes=1, tasks_per_node=2))
    recorder = machine.obs.recorder
    engine = machine.engine
    ids = {}

    def program(task):
        if task.rank == 0:
            with task.phase(FLAG_WAIT) as outer:
                yield engine.timeout(1.0)
                recorder.clear()
                with task.phase(FLAG_WAIT) as inner:
                    yield engine.timeout(1.0)
                yield engine.timeout(1.0)
            ids.update(outer=outer, inner=inner)

    machine.launch(program)
    assert len(recorder.spans) == 1
    inner = recorder.spans[0]
    assert inner.index == ids["inner"] == ids["outer"] + 1
    assert inner.parent == ids["outer"] != inner.index
    assert recorder.spans.row_of(ids["outer"]) == -1
    assert recorder.spans.row_of(ids["inner"]) == 0
    # Closing the dropped outer span wrote nothing into the live rows.
    assert (inner.start, inner.end) == (1.0, 2.0)

    report = classify_waits(machine)
    assert len(report.intervals) == 1
    interval = report.intervals[0]
    assert interval.context == "-"
    assert interval.state == WAIT_UNATTRIBUTED

    recorder.clear()
    assert len(recorder.spans) == 0 and recorder.spans.base == 2
