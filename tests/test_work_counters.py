"""Exact work counters of fixed SRM cells.

Host-time changes to the kernel, the contention resources or the recorder
must not change the work the simulator does: every event, span, flow link
and resource sample is part of the deterministic output.  These cells pin
the counts (and the final simulated time, bit for bit) so that a change
that adds, drops or reorders events fails here with the counter that moved,
not as a drifted benchmark.
"""

import numpy as np
import pytest

from repro.core import SRM
from repro.machine import ClusterSpec
from repro.machine.cluster import Machine
from repro.mpi.ops import SUM

#: cell -> (nodes, tasks per node, message bytes, collectives run in order)
CELLS = {
    "step-4x8-32K": (4, 8, 32768, ("broadcast", "reduce", "barrier")),
    "allreduce-4x8-8B": (4, 8, 8, ("allreduce",)),
    "broadcast-4x16-64K": (4, 16, 65536, ("broadcast",)),
}

#: cell -> (events processed, spans, flow links, resource samples, final time)
EXPECTED = {
    "step-4x8-32K": (5375, 3323, 708, 1193, "0x1.32aa9a5e69a8bp-10"),
    "allreduce-4x8-8B": (633, 321, 64, 156, "0x1.e1dc5aac283a8p-15"),
    "broadcast-4x16-64K": (8153, 5312, 1773, 738, "0x1.019719d4c7c7bp-10"),
}


def run_cell(cell: str) -> Machine:
    nodes, tasks, nbytes, ops = CELLS[cell]
    machine = Machine(ClusterSpec(nodes=nodes, tasks_per_node=tasks))
    srm = SRM(machine)
    count = nbytes // 8
    total = machine.spec.total_tasks
    sources = {r: np.arange(count, dtype=np.float64) + r for r in range(total)}
    outs = {r: np.zeros(count) for r in range(total)}

    def program(task):
        buffer = sources[task.rank].copy()
        for op in ops:
            if op == "broadcast":
                yield from srm.broadcast(task, buffer, root=0)
            elif op == "reduce":
                yield from srm.reduce(task, sources[task.rank], outs[task.rank], SUM, root=0)
            elif op == "barrier":
                yield from srm.barrier(task)
            else:
                yield from srm.allreduce(task, sources[task.rank], outs[task.rank], SUM)

    machine.launch(program)
    return machine


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_work_counters_are_exact(cell):
    machine = run_cell(cell)
    recorder = machine.obs.recorder
    counters = (
        machine.engine.events_processed,
        len(recorder.spans),
        len(recorder.flows),
        sum(len(timeline) for timeline in machine.obs.monitor.timelines.values()),
        machine.engine.now.hex(),
    )
    assert counters == EXPECTED[cell]


def test_contended_cell_shares_the_bus():
    machine = run_cell("broadcast-4x16-64K")
    links = machine.obs.monitor.by_kind("bandwidth")
    assert max(timeline.max_occupancy() for timeline in links) > 1
