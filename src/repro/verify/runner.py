"""End-to-end schedule-invariance verification of the SRM collectives.

For every cell of a small-config grid (nodes × tasks-per-node × operation ×
protocol regime), the runner:

1. executes one **reference** run under the default deterministic scheduler
   (``scheduler=None`` — the exact path every benchmark uses) and checks the
   result against an analytically computed truth (NumPy);
2. explores many **alternative schedules** (random or bounded-DFS tie-break
   orders, optionally with timing faults injected) and requires that every
   explored execution (a) trips no protocol invariant, (b) completes without
   deadlock, and (c) produces a result digest identical to the reference —
   the collective's outcome must be a pure function of its inputs, never of
   the interleaving.

Message sizes are chosen to land in each of the paper's three protocol
regimes under the default :class:`~repro.core.config.SRMConfig` thresholds
(small ≤ 8 KB, pipelined 8–64 KB, large > 64 KB).  Reductions use small
integer-valued float64 data so every association order produces bit-equal
sums (schedule invariance of the *digest* is then exact, not approximate).
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

import numpy as np

from repro.core import SRM
from repro.errors import ReproError, VerificationError
from repro.machine import ClusterSpec, CostModel, Machine
from repro.mpi.ops import SUM
from repro.obs.metrics import MetricsRegistry
from repro.sim.scheduler import Scheduler
from repro.verify.explorer import ScheduleOutcome, explore_cell
from repro.verify.faults import FaultPlan
from repro.verify.invariants import Verifier
from repro.verify.mutations import MUTATIONS, apply_mutation

__all__ = [
    "Cell",
    "default_grid",
    "quick_grid",
    "run_cell",
    "run_verify",
    "run_mutation_smoke",
]

#: Operations covered by the verification grid (the paper's common set).
VERIFY_OPERATIONS = ("broadcast", "reduce", "allreduce", "barrier")

#: One representative size per protocol regime (see module docstring).
REGIME_SIZES: dict[str, int] = {"small": 2048, "pipelined": 16384, "large": 81920}

#: Calls per schedule — two back-to-back calls exercise the double-buffer
#: alternation and the cross-call pipelining the paper's §2.2 describes.
ITERATIONS = 2


@dataclasses.dataclass(frozen=True)
class Cell:
    """One verification grid cell."""

    nodes: int
    procs: int
    operation: str
    regime: str
    nbytes: int
    #: In-flight-collective mode: ``"none"`` runs the classic blocking
    #: program; ``"plan2"`` starts one persistent plan twice before waiting
    #: either (two outstanding invocations on one plan); ``"plans"`` holds an
    #: operation plan and a barrier plan in flight together on one group.
    overlap: str = "none"

    @property
    def cell_id(self) -> str:
        base = f"{self.operation}/n{self.nodes}xp{self.procs}/{self.regime}({self.nbytes}B)"
        if self.overlap != "none":
            base += f"/{self.overlap}"
        return base


def default_grid(
    node_counts: typing.Sequence[int] = (2, 4),
    proc_counts: typing.Sequence[int] = (2, 3),
    operations: typing.Sequence[str] = VERIFY_OPERATIONS,
    regimes: typing.Sequence[str] = ("small", "pipelined", "large"),
) -> list[Cell]:
    """The standard grid: 2–4 nodes × 2–4 procs × all ops × all regimes.

    Barrier moves no data, so it contributes one cell per shape regardless
    of the regime list.
    """
    cells: list[Cell] = []
    for nodes in node_counts:
        for procs in proc_counts:
            for operation in operations:
                if operation == "barrier":
                    cells.append(Cell(nodes, procs, "barrier", "none", 0))
                    continue
                for regime in regimes:
                    cells.append(Cell(nodes, procs, operation, regime, REGIME_SIZES[regime]))
    # Overlapping in-flight collectives (the request layer): one shape per
    # grid, every operation, both overlap modes — two outstanding invocations
    # of one persistent plan, and two plans in flight on one group.
    nodes, procs = node_counts[0], proc_counts[-1]
    for operation in operations:
        regime = "none" if operation == "barrier" else "small"
        nbytes = 0 if operation == "barrier" else REGIME_SIZES["small"]
        for overlap in ("plan2", "plans"):
            cells.append(Cell(nodes, procs, operation, regime, nbytes, overlap))
    # Compiled-replay windows (the trace cache): repeated persistent starts
    # driven from outside the engine, where the reference run replays the
    # recorded schedule while every explored schedule re-drives the slow
    # path — digest equality is the replay-vs-slow differential.  The
    # ``replay-rebind`` variant rebinds the plans to fresh buffers midway,
    # exercising trace invalidation (barrier has no buffers to rebind).
    for operation in operations:
        regime = "none" if operation == "barrier" else "small"
        nbytes = 0 if operation == "barrier" else REGIME_SIZES["small"]
        cells.append(Cell(nodes, procs, operation, regime, nbytes, "replay"))
        if operation != "barrier":
            cells.append(Cell(nodes, procs, operation, regime, nbytes, "replay-rebind"))
    return cells


def quick_grid() -> list[Cell]:
    """A minutes-not-hours subset for CI smoke and ``--quick``."""
    cells = default_grid(node_counts=(2,), proc_counts=(2,), regimes=("small", "pipelined"))
    # Trim the default grid's full overlap block to three representative
    # cells so the quick pass still covers both overlap modes.
    keep = {
        ("broadcast", "plan2"),
        ("broadcast", "plans"),
        ("allreduce", "plan2"),
        ("broadcast", "replay"),
        ("broadcast", "replay-rebind"),
        ("allreduce", "replay"),
    }
    return [
        cell for cell in cells
        if cell.overlap == "none" or (cell.operation, cell.overlap) in keep
    ]


# ---------------------------------------------------------------------------
# One run of one cell
# ---------------------------------------------------------------------------


def _expected_sum(total_tasks: int, count: int) -> np.ndarray:
    """Analytic truth for sum-reductions of ``full(count, rank + 1)``."""
    return np.full(count, float(total_tasks * (total_tasks + 1) // 2))


def _digest(arrays: typing.Iterable[np.ndarray]) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


#: Windows per replay cell and the window index at which ``replay-rebind``
#: swaps every plan onto fresh buffers.  Six windows cover the record, the
#: self-healing re-record, and steady-state replays of both slot parities.
REPLAY_WINDOWS = 6
REPLAY_REBIND_AT = 3


def _run_replay_windows(
    cell: Cell,
    machine: Machine,
    srm: SRM,
    verifier: Verifier,
    scheduler: Scheduler | None,
    fault_plan: FaultPlan | None,
    total: int,
    count: int,
) -> ScheduleOutcome:
    """Drive a replay cell: repeated persistent windows from outside the engine.

    Unlike the launch-driven cells, each window issues every rank's
    ``start()`` while the engine is idle and then runs to quiescence — the
    shape under which the compiled-schedule cache engages.  The reference
    run (no scheduler, no faults) replays recorded traces; explored
    schedules re-drive the slow path, so the cell's digest-invariance check
    doubles as a replay-vs-slow-path differential.  ``replay-rebind``
    additionally rebinds every plan to fresh buffers mid-sequence, which
    must invalidate the cached traces (the ``stale-compiled-schedule``
    mutation breaks exactly that and must be caught here).
    """
    engine = machine.engine
    nbytes = max(1, cell.nbytes)

    def allocate() -> tuple[dict, dict, dict, np.ndarray]:
        buffers = {r: np.zeros(nbytes, dtype=np.uint8) for r in range(total)}
        sources = {r: np.full(count, float(r + 1)) for r in range(total)}
        destinations = {r: np.zeros(count) for r in range(total)}
        return buffers, sources, destinations, np.zeros(count)

    def build_plans(buffers, sources, destinations, reduce_dst) -> dict:
        plans = {}
        for rank in range(total):
            task = machine.task(rank)
            if cell.operation == "broadcast":
                plans[rank] = srm.plan_broadcast(task, buffers[rank], root=0)
            elif cell.operation == "reduce":
                dst = reduce_dst if rank == 0 else None
                plans[rank] = srm.plan_reduce(task, sources[rank], dst, SUM, root=0)
            elif cell.operation == "allreduce":
                plans[rank] = srm.plan_allreduce(
                    task, sources[rank], destinations[rank], SUM
                )
            elif cell.operation == "barrier":
                plans[rank] = srm.plan_barrier(task)
            else:
                raise VerificationError(f"unknown operation {cell.operation!r}")
        return plans

    def rebind_plans(plans, buffers, sources, destinations, reduce_dst) -> None:
        for rank in range(total):
            if cell.operation == "broadcast":
                plans[rank].rebind(buffers[rank])
            elif cell.operation == "reduce":
                plans[rank].rebind(sources[rank], reduce_dst if rank == 0 else None)
            elif cell.operation == "allreduce":
                plans[rank].rebind(sources[rank], destinations[rank])

    buffers, sources, destinations, reduce_dst = allocate()
    plans = build_plans(buffers, sources, destinations, reduce_dst)
    rebind_at = REPLAY_REBIND_AT if cell.overlap == "replay-rebind" else None

    error: str | None = None
    start = engine.now
    violations: list[dict] = []
    hasher = hashlib.blake2b(digest_size=16)
    try:
        for window in range(REPLAY_WINDOWS):
            if rebind_at is not None and window == rebind_at:
                buffers, sources, destinations, reduce_dst = allocate()
                rebind_plans(plans, buffers, sources, destinations, reduce_dst)
            fill = (7 + 31 * window) % 251
            if cell.operation == "broadcast":
                buffers[0][:] = fill
            elif cell.operation in ("reduce", "allreduce"):
                sources[0][:] = float(window + 1)
            requests = [plans[rank].start() for rank in range(total)]
            engine.run()
            for request in requests:
                if not request.completed:
                    raise VerificationError(
                        f"window {window}: {request.describe()} incomplete "
                        "after the engine drained"
                    )
            if cell.operation == "broadcast":
                results = [buffers[r] for r in range(total)]
                truth_ok = all(np.all(buf == fill) for buf in results)
            elif cell.operation == "reduce":
                expected = _expected_sum(total, count) + float(window)
                results = [reduce_dst]
                truth_ok = bool(np.array_equal(reduce_dst, expected))
            elif cell.operation == "allreduce":
                expected = _expected_sum(total, count) + float(window)
                results = [destinations[r] for r in range(total)]
                truth_ok = all(np.array_equal(dst, expected) for dst in results)
            else:  # barrier: completion is the result
                results = []
                truth_ok = True
            for array in results:
                hasher.update(np.ascontiguousarray(array).tobytes())
            if not truth_ok:
                violations.append(
                    {
                        "rule": "result-mismatch",
                        "subject": cell.cell_id,
                        "time": engine.now - start,
                        "detail": (
                            f"window {window} data disagrees with the analytic "
                            "truth"
                        ),
                    }
                )
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = engine.now - start

    manager = engine.trace
    if (
        error is None
        and scheduler is None
        and fault_plan is None
        and srm.config.compiled_replay
        and (manager is None or manager.hit_count == 0)
    ):
        # A replay cell whose reference run never replayed is vacuous —
        # flag it rather than silently verifying only the slow path.
        violations.append(
            {
                "rule": "replay-not-engaged",
                "subject": cell.cell_id,
                "time": elapsed,
                "detail": "no compiled-schedule cache hit across the window sequence",
            }
        )
    violations.extend(violation.as_dict() for violation in verifier.violations)
    digest = hasher.hexdigest() if error is None and cell.operation != "barrier" else ""
    signature = scheduler.signature() if scheduler is not None else "default"
    return ScheduleOutcome(
        explorer=scheduler.name if scheduler is not None else "default",
        signature=signature,
        digest=digest,
        elapsed=elapsed,
        violations=violations,
        error=error,
        injected=dict(fault_plan.injected) if fault_plan is not None else None,
    )


def run_cell_once(
    cell: Cell,
    scheduler: Scheduler | None,
    fault_plan: FaultPlan | None = None,
) -> ScheduleOutcome:
    """Execute ``cell`` once under ``scheduler`` (+ optional faults).

    Returns the outcome: the schedule signature, the result digest, every
    invariant violation the attached :class:`Verifier` recorded, and — when
    the run ended in a deadlock or protocol error — the error text.  A
    ``result-mismatch`` pseudo-violation is appended when the final data
    disagrees with the analytic truth.
    """
    spec = ClusterSpec(nodes=cell.nodes, tasks_per_node=cell.procs)
    machine = Machine(spec, cost=CostModel.ibm_sp_colony(), seed=0, scheduler=scheduler)
    verifier = Verifier()
    machine.engine.verifier = verifier
    if fault_plan is not None:
        fault_plan.reset()
        machine.engine.faults = fault_plan
    srm = SRM(machine)
    total = spec.total_tasks
    count = max(1, cell.nbytes // 8)

    if cell.overlap in ("replay", "replay-rebind"):
        return _run_replay_windows(
            cell, machine, srm, verifier, scheduler, fault_plan, total, count
        )

    bcast_buffers = {r: np.zeros(max(1, cell.nbytes), dtype=np.uint8) for r in range(total)}
    bcast_buffers[0][:] = 7
    sources = {r: np.full(count, float(r + 1)) for r in range(total)}
    destinations = {r: np.zeros(count) for r in range(total)}
    reduce_dst = np.zeros(count)

    def body(task) -> typing.Any:
        if cell.operation == "broadcast":
            yield from srm.broadcast(task, bcast_buffers[task.rank], root=0)
        elif cell.operation == "reduce":
            dst = reduce_dst if task.rank == 0 else None
            yield from srm.reduce(task, sources[task.rank], dst, SUM, root=0)
        elif cell.operation == "allreduce":
            yield from srm.allreduce(task, sources[task.rank], destinations[task.rank], SUM)
        elif cell.operation == "barrier":
            yield from srm.barrier(task)
        else:
            raise VerificationError(f"unknown operation {cell.operation!r}")

    def make_plan(task) -> typing.Any:
        if cell.operation == "broadcast":
            return srm.plan_broadcast(task, bcast_buffers[task.rank], root=0)
        if cell.operation == "reduce":
            dst = reduce_dst if task.rank == 0 else None
            return srm.plan_reduce(task, sources[task.rank], dst, SUM, root=0)
        if cell.operation == "allreduce":
            return srm.plan_allreduce(task, sources[task.rank], destinations[task.rank], SUM)
        if cell.operation == "barrier":
            return srm.plan_barrier(task)
        raise VerificationError(f"unknown operation {cell.operation!r}")

    def overlapped(task) -> typing.Any:
        plan = make_plan(task)
        if cell.overlap == "plan2":
            # Two outstanding invocations of one plan before either wait.
            first, second = plan.start(), plan.start()
        elif cell.overlap == "plans":
            # Two plans in flight on one group: the operation + a barrier.
            first, second = plan.start(), srm.plan_barrier(task).start()
        else:
            raise VerificationError(f"unknown overlap mode {cell.overlap!r}")
        yield from first.wait()
        yield from second.wait()

    def program(task) -> typing.Any:
        if fault_plan is not None:
            stall = fault_plan.master_stall()
            if stall > 0.0:
                yield machine.engine.timeout(stall)
        if cell.overlap != "none":
            yield from overlapped(task)
            return
        for _ in range(ITERATIONS):
            yield from body(task)

    error: str | None = None
    start = machine.engine.now
    try:
        machine.launch(program)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    except RecursionError as exc:  # pragma: no cover - mutant safety net
        error = f"RecursionError: {exc}"
    elapsed = machine.engine.now - start

    violations = [violation.as_dict() for violation in verifier.violations]
    if verifier.dropped:
        violations.append(
            {
                "rule": "violations-truncated",
                "subject": "verifier",
                "time": elapsed,
                "detail": f"{verifier.dropped} further violation(s) not recorded",
            }
        )
    digest = ""
    if error is None:
        if cell.operation == "broadcast":
            results = [bcast_buffers[r] for r in range(total)]
            truth_ok = all(np.all(buf == 7) for buf in results)
        elif cell.operation == "reduce":
            results = [reduce_dst]
            truth_ok = bool(np.array_equal(reduce_dst, _expected_sum(total, count)))
        elif cell.operation == "allreduce":
            expected = _expected_sum(total, count)
            results = [destinations[r] for r in range(total)]
            truth_ok = all(np.array_equal(dst, expected) for dst in results)
        else:  # barrier: completion is the result
            results = []
            truth_ok = True
        digest = _digest(results)
        if not truth_ok:
            violations.append(
                {
                    "rule": "result-mismatch",
                    "subject": cell.cell_id,
                    "time": elapsed,
                    "detail": "final data disagrees with the analytic truth",
                }
            )
    signature = scheduler.signature() if scheduler is not None else "default"
    return ScheduleOutcome(
        explorer=scheduler.name if scheduler is not None else "default",
        signature=signature,
        digest=digest,
        elapsed=elapsed,
        violations=violations,
        error=error,
        injected=dict(fault_plan.injected) if fault_plan is not None else None,
    )


# ---------------------------------------------------------------------------
# Cell-level exploration + invariance check
# ---------------------------------------------------------------------------


def run_cell(
    cell: Cell,
    schedules: int = 56,
    explorer: str = "random",
    seed: int = 0,
    faults: bool = True,
) -> dict[str, typing.Any]:
    """Verify one cell; returns its JSON-ready report entry.

    The reference run (default scheduler, no faults) anchors the expected
    digest; every explored schedule must be clean and digest-equal.
    """
    reference = run_cell_once(cell, scheduler=None)

    def run_one(scheduler: Scheduler, variant_seed: int) -> ScheduleOutcome:
        plan = FaultPlan(seed=seed * 100003 + variant_seed) if faults else None
        return run_cell_once(cell, scheduler, fault_plan=plan)

    outcomes = explore_cell(run_one, explorer=explorer, schedules=schedules, seed=seed)

    divergences = 0
    errors = 0
    violations: list[dict] = list(reference.violations)
    for outcome in outcomes:
        violations.extend(outcome.violations)
        if outcome.error is not None:
            errors += 1
        elif cell.operation != "barrier" and outcome.digest != reference.digest:
            divergences += 1
            violations.append(
                {
                    "rule": "schedule-divergence",
                    "subject": cell.cell_id,
                    "time": outcome.elapsed,
                    "detail": (
                        f"schedule {outcome.signature} produced digest "
                        f"{outcome.digest} != reference {reference.digest}"
                    ),
                }
            )
    injected = {"put_jitter": 0, "wakeup_reorder": 0, "master_stall": 0}
    for outcome in outcomes:
        for family, count in (outcome.injected or {}).items():
            injected[family] = injected.get(family, 0) + count
    ok = (
        reference.error is None
        and not violations
        and errors == 0
        and divergences == 0
    )
    entry = {
        "cell": cell.cell_id,
        "nodes": cell.nodes,
        "procs": cell.procs,
        "operation": cell.operation,
        "regime": cell.regime,
        "nbytes": cell.nbytes,
        "overlap": cell.overlap,
        "explorer": explorer,
        "reference_digest": reference.digest,
        "reference_error": reference.error,
        "schedules_explored": len(outcomes),
        "distinct_signatures": len({o.signature for o in outcomes}),
        "errors": errors,
        "divergences": divergences,
        "violations": violations[:200],
        "violation_count": len(violations),
        "faults_injected": injected,
        "ok": ok,
    }
    return entry


# ---------------------------------------------------------------------------
# Grid driver + mutation smoke
# ---------------------------------------------------------------------------


def run_verify(
    cells: typing.Sequence[Cell] | None = None,
    schedules: int = 56,
    explorer: str = "random",
    seed: int = 0,
    faults: bool = True,
    metrics: MetricsRegistry | None = None,
    progress: typing.Callable[[str], None] | None = None,
) -> dict[str, typing.Any]:
    """Run the verification grid; returns the report body (the ``body`` of the
    ``repro-verify-report`` document, see :mod:`repro.envelope`).

    ``metrics`` (optional) receives the harness's observability counters:
    ``verify.schedules`` (explored schedules) and ``verify.violations``.
    """
    if cells is None:
        cells = default_grid()
    registry = metrics if metrics is not None else MetricsRegistry()
    schedules_counter = registry.counter("verify.schedules")
    violations_counter = registry.counter("verify.violations")
    entries: list[dict] = []
    for index, cell in enumerate(cells):
        entry = run_cell(
            cell,
            schedules=schedules,
            explorer=explorer,
            seed=seed,
            faults=faults,
        )
        schedules_counter.inc(entry["schedules_explored"])
        violations_counter.inc(entry["violation_count"])
        entries.append(entry)
        if progress is not None:
            status = "ok" if entry["ok"] else "FAIL"
            progress(
                f"[{index + 1}/{len(cells)}] {entry['cell']}: "
                f"{entry['schedules_explored']} schedules, "
                f"{entry['violation_count']} violations, "
                f"{entry['divergences']} divergences ({status})"
            )
    return {
        "mode": "verify",
        "explorer": explorer,
        "seed": seed,
        "faults": faults,
        "schedules_per_cell": schedules,
        "cells": entries,
        "totals": {
            "cells": len(entries),
            "cells_ok": sum(1 for e in entries if e["ok"]),
            "schedules": int(schedules_counter.value),
            "violations": int(violations_counter.value),
            "divergences": sum(e["divergences"] for e in entries),
            "errors": sum(e["errors"] for e in entries),
        },
        "ok": all(entry["ok"] for entry in entries),
    }


def run_mutation_smoke(
    mutations: typing.Sequence[str] | None = None,
    schedules: int = 8,
    seed: int = 0,
    progress: typing.Callable[[str], None] | None = None,
) -> dict[str, typing.Any]:
    """Prove the harness detects injected bugs (see :mod:`verify.mutations`).

    Each mutation is applied to the live protocol code and one small cell is
    explored; the mutation is **detected** when at least one schedule reports
    a violation or fails (deadlock / protocol error).  The smoke passes only
    if *every* mutation is detected.
    """
    names = list(mutations) if mutations is not None else sorted(MUTATIONS)
    cell = Cell(nodes=2, procs=3, operation="broadcast", regime="small", nbytes=2048)
    # Mutations that only bite under overlapping in-flight invocations get an
    # overlap cell; everything else smokes on the classic blocking cell.
    smoke_cells: dict[str, Cell] = {
        "alias-invocation-slot": dataclasses.replace(cell, overlap="plan2"),
        "stale-compiled-schedule": dataclasses.replace(cell, overlap="replay-rebind"),
    }
    results: list[dict] = []
    for name in names:
        target = smoke_cells.get(name, cell)
        with apply_mutation(name):
            entry = run_cell(target, schedules=schedules, seed=seed, faults=False)
        detected = entry["violation_count"] > 0 or entry["errors"] > 0
        results.append(
            {
                "mutation": name,
                "cell": target.cell_id,
                "expectation": MUTATIONS[name][0],
                "detected": detected,
                "violation_count": entry["violation_count"],
                "errors": entry["errors"],
                "rules_fired": sorted({v["rule"] for v in entry["violations"]}),
            }
        )
        if progress is not None:
            progress(
                f"mutation {name}: "
                f"{'DETECTED' if detected else 'MISSED'} "
                f"({entry['violation_count']} violations, {entry['errors']} errors)"
            )
    return {
        "mode": "mutation-smoke",
        "cell": cell.cell_id,
        "mutations": results,
        "ok": all(result["detected"] for result in results),
    }
