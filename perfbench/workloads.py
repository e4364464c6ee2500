"""The benchmark's three workloads, each a closed loop with one client.

A workload is built once per set-up (machines, stacks, buffers, plans and
warm-up) and then runs *units* back to back: a grid cell, an application
iteration or a training step.  Every unit draws fresh inputs from the
workload's seeded generator, times only its calls into the simulator
(``host_s``, in process CPU seconds), and checks each collective's output
against a NumPy reference and its simulated time against a pinned value.  Inputs are integer-valued
doubles (or bytes), so SUM reductions are exact in any combining order.

Simulated times come from a model that has not been validated against
hardware; the pinned values guard the model's determinism, not its accuracy.
"""

from __future__ import annotations

import json
import time
import typing

import numpy as np

from repro.bench.snapshot import cell_seed
from repro.core import SRM, SRMConfig
from repro.machine import ClusterSpec, CostModel, Machine
from repro.mpi.collectives import IbmMpi, Mpich
from repro.mpi.ops import SUM
from repro.obs.critical import critical_path
from repro.obs.taxonomy import WAIT_STATES
from repro.obs.waits import classify_waits

from tracing import Spans

ROOT_RANK = 0
#: Integer-valued inputs stay far below 2**53 / ranks, so every SUM is exact.
VALUE_RANGE = 1 << 20
#: Simulated-time agreement for loop units, whose absolute clock grows while
#: their durations repeat: subtracting larger clock values rounds differently
#: in the last bits, so a per-unit duration can only match to this tolerance.
SIM_REL_TOL = 1e-9

COUNTERS = (
    "task.copies",
    "task.bytes_copied",
    "task.reduce_ops",
    "lapi.puts",
    "lapi.bytes_put",
    "shmem.flag_sets",
    "dispatch.fallbacks",
)
MPI_STATS = ("eager_messages", "rendezvous_messages", "unexpected_arrivals")
WAIT_STATE_NAMES = tuple(sorted(WAIT_STATES))
CRIT_PHASES = (
    "counter-wait",
    "flag-set",
    "flag-wait",
    "put-flight",
    "put-issue",
    "reduce-apply",
    "shm-copy",
    "(untracked)",
)
#: Critical-path time in any phase not named in ``CRIT_PHASES`` is summed
#: under this name, so no phase's time is dropped from the report.
CRIT_OTHER = "other"


class UnitResult(typing.NamedTuple):
    host_s: float
    sim_s: float
    ops: int
    failed: int


def machine_counts(machine: Machine) -> dict[str, float]:
    """Exact work counters read from a machine's public state."""
    registry = machine.obs.metrics
    counts: dict[str, float] = {"events": machine.engine.events_processed}
    for name in COUNTERS:
        instrument = registry.get(name)
        counts[name] = instrument.value if instrument is not None else 0
    for name in MPI_STATS:
        counts[f"mpi.{name}"] = sum(getattr(task.mpi.stats, name) for task in machine.tasks)
    trace = machine.engine.trace
    counts["replay.hits"] = getattr(trace, "hit_count", 0)
    counts["replay.misses"] = getattr(trace, "miss_count", 0)
    return counts


def _add(into: dict[str, float], counts: dict[str, float]) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


class Workload:
    """Shared unit timing and bookkeeping; subclasses build and run units."""

    name = ""
    #: Units in the window that the exact counts, ``sim_us_per_op`` and the
    #: paired (traced, observe-off, replay-off) runs cover.
    window = 0

    def __init__(self, seed: int, spans: Spans, observe: bool = True, replay: bool = True) -> None:
        self.rng = np.random.default_rng(seed)
        self.spans = spans
        self.observe = observe
        self.config = SRMConfig(compiled_replay=replay)
        self.units_run = 0
        self.spans_recorded = 0
        #: Per-unit failure notes, for the result document.
        self.failures: list[str] = []
        self._host = 0.0

    def call(self, name: str, fn: typing.Callable, *args: typing.Any, **kwargs: typing.Any):
        """Call a simulator entry point inside a span, adding to the unit's CPU time."""
        with self.spans.span(name):
            started = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self._host += time.process_time() - started

    def run_unit(self) -> UnitResult:
        self._host = 0.0
        sim_s, ops, failed = self._unit(self.units_run)
        self.units_run += 1
        return UnitResult(self._host, sim_s, ops, failed)

    def _unit(self, index: int) -> tuple[float, int, int]:
        raise NotImplementedError

    def nominal_ops(self, index: int) -> int:
        """Collective ops that unit ``index`` issues (all failed if it raises)."""
        raise NotImplementedError

    def may_stop(self) -> bool:
        """Whether the units run so far form a whole number of rounds."""
        return True

    def counts(self) -> dict[str, float]:
        """Cumulative exact counts (differences of two calls give a window's)."""
        raise NotImplementedError

    def analysis(self) -> dict[str, float]:
        """Cumulative simulated-time wait and critical-path totals (µs)."""
        return {}

    def _drain_spans(self, machine: Machine) -> None:
        """Count and drop the machine's phase spans, bounding memory."""
        self.spans_recorded += len(machine.obs.recorder.spans)
        machine.obs.recorder.clear()

    def _fail(self, index: int, what: str) -> None:
        if len(self.failures) < 50:
            self.failures.append(f"{self.name} unit {index}: {what}")


def _ints(rng: np.random.Generator, shape: typing.Any) -> np.ndarray:
    return rng.integers(-VALUE_RANGE, VALUE_RANGE, size=shape).astype(np.float64)


# ---------------------------------------------------------------------------
# paper-grid
# ---------------------------------------------------------------------------

#: (operation, stack, bytes, nodes) at 16 tasks/node: every operation on
#: every stack, sizes on both sides of the 8 KB pipeline and 64 KB large
#: switch points up to 1 MB, on 4 and 16 nodes.  SRM cells above 8 KB run on
#: 4 nodes only, because at 16 nodes each costs several host seconds.  With
#: 25 cells the median and the 90th percentile of whole passes (ranks 12.5
#: and 22.5 per pass, plus a fraction) fall in the middle of one cell's
#: samples each, the 13th and the 23rd fastest, not on the boundary between
#: two cells, where a percentile would be one cell's extreme sample.
GRID_CELLS = (
    ("broadcast", "srm", 8, 16),
    ("broadcast", "srm", 65536, 4),
    ("broadcast", "srm", 1048576, 4),
    ("broadcast", "ibm", 8192, 16),
    ("broadcast", "ibm", 65536, 16),
    ("broadcast", "mpich", 65536, 16),
    ("broadcast", "mpich", 1048576, 4),
    ("reduce", "srm", 8192, 16),
    ("reduce", "srm", 1048576, 4),
    ("reduce", "ibm", 65536, 16),
    ("reduce", "ibm", 1048576, 4),
    ("reduce", "mpich", 8, 16),
    ("allreduce", "srm", 8192, 16),
    ("allreduce", "srm", 65536, 4),
    ("allreduce", "ibm", 8, 4),
    ("allreduce", "mpich", 512, 4),
    ("barrier", "srm", 0, 16),
    ("barrier", "ibm", 0, 4),
    ("barrier", "mpich", 0, 4),
    ("broadcast", "mpich", 512, 4),
    ("reduce", "srm", 512, 4),
    ("reduce", "ibm", 8, 4),
    ("allreduce", "srm", 8, 4),
    ("allreduce", "mpich", 8192, 4),
    ("barrier", "srm", 0, 4),
)
TASKS_PER_NODE = 16
WARMUP_CALLS = 1


def timed_calls(nbytes: int) -> int:
    """Timed calls per cell, as the snapshot grid runs them."""
    return 2 if nbytes >= 1048576 else 3


class PaperGrid(Workload):
    """Cells of the quick bench grid, each run as the snapshot capture runs it.

    Fresh machine, one warm-up call, the timed calls, the metrics summary,
    then the critical path and wait classification of the timed window.
    Every cell's simulated µs per call must equal the committed snapshot.
    """

    name = "paper-grid"
    window = len(GRID_CELLS)

    def __init__(self, seed: int, spans: Spans, reference_path: str, **kwargs: typing.Any) -> None:
        super().__init__(seed, spans, **kwargs)
        with open(reference_path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        self.reference_us = {
            (cell["operation"], cell["stack"], cell["nbytes"], cell["nodes"]): cell["microseconds"]
            for cell in snapshot["cells"]
        }
        for stack in ("srm", "ibm", "mpich"):  # warm lazy imports and first-use paths
            machine, collectives = self._stack(stack, ClusterSpec(nodes=2, tasks_per_node=2), seed=0)
            self.call("launch", machine.launch, collectives.barrier)
        self._totals: dict[str, float] = {}
        self._analysis: dict[str, float] = {}
        #: (cell, simulated µs per call) of every cell run, for the document.
        self.cell_sim_us: list[tuple[tuple, float]] = []

    def nominal_ops(self, index: int) -> int:
        return WARMUP_CALLS + timed_calls(GRID_CELLS[index % len(GRID_CELLS)][2])

    def may_stop(self) -> bool:
        return self.units_run % len(GRID_CELLS) == 0

    def counts(self) -> dict[str, float]:
        return dict(self._totals, spans=self.spans_recorded)

    def analysis(self) -> dict[str, float]:
        return dict(self._analysis)

    def _stack(self, stack: str, spec: ClusterSpec, seed: int) -> tuple[Machine, typing.Any]:
        base = CostModel.ibm_sp_colony()
        cost = {"srm": base, "ibm": IbmMpi.tune_cost(base), "mpich": Mpich.tune_cost(base)}[stack]
        machine = self.call("machine_init", Machine, spec, cost=cost, seed=seed, observe=self.observe)
        if stack == "srm":
            collectives = self.call("stack_init", SRM, machine, config=self.config)
        elif stack == "ibm":
            collectives = self.call("stack_init", IbmMpi, machine)
        else:
            collectives = self.call("stack_init", Mpich, machine)
        return machine, collectives

    def _unit(self, index: int) -> tuple[float, int, int]:
        cell = GRID_CELLS[index % len(GRID_CELLS)]
        operation, stack, nbytes, nodes = cell
        repeats = timed_calls(nbytes)
        spec = ClusterSpec(nodes=nodes, tasks_per_node=TASKS_PER_NODE)
        machine, collectives = self._stack(stack, spec, cell_seed(*cell))
        bad: set[int] = set()
        body = self._body(operation, nbytes, machine, collectives, bad)

        def looped(first: int, calls: int) -> typing.Callable:
            def program(task):
                for call in range(first, first + calls):
                    yield from body(task, call)

            return program

        recorder = machine.obs.recorder
        warm = self.call("launch", machine.launch, looped(0, WARMUP_CALLS))
        self.spans_recorded += len(recorder.spans)
        recorder.clear()
        result = self.call("launch", machine.launch, looped(WARMUP_CALLS, repeats))
        self.spans_recorded += len(recorder.spans)
        self.call("metrics_summary", machine.obs.metrics.summary)
        if recorder.spans:
            path = self.call(
                "critical_path", critical_path, recorder, start=result.start_time, end=result.end_time
            )
            waits = self.call(
                "classify_waits",
                classify_waits,
                machine,
                start=result.start_time,
                end=result.end_time,
                critical=path,
            )
            for phase, us in path.to_dict()["phases_us"].items():
                name = phase if phase in CRIT_PHASES else CRIT_OTHER
                _add(self._analysis, {f"crit_us.{name}": us})
            for state, seconds in waits.by_state().items():
                _add(self._analysis, {f"wait_us.{state}": seconds * 1e6})
        _add(self._totals, machine_counts(machine))

        sim_us = result.elapsed / repeats * 1e6
        self.cell_sim_us.append((cell, sim_us))
        reference = self.reference_us[cell]
        if sim_us != reference:
            self._fail(index, f"{cell} simulated {sim_us!r} us, reference {reference!r} us")
            bad.update(range(WARMUP_CALLS, WARMUP_CALLS + repeats))
        elif bad:
            self._fail(index, f"{cell} output mismatch on calls {sorted(bad)}")
        return warm.elapsed + result.elapsed, WARMUP_CALLS + repeats, len(bad)

    def _body(
        self, operation: str, nbytes: int, machine: Machine, collectives: typing.Any, bad: set
    ) -> typing.Callable:
        """A per-rank body for call ``k`` that checks its own output.

        Inputs change on every call (a new payload, or every contribution
        raised by one), so an output left over from an earlier call fails.
        """
        ranks = machine.spec.total_tasks
        calls = WARMUP_CALLS + timed_calls(nbytes)
        if operation == "broadcast":
            payloads = [self.rng.integers(0, 256, size=max(1, nbytes), dtype=np.uint8) for _ in range(calls)]
            buffers = np.zeros((ranks, max(1, nbytes)), dtype=np.uint8)

            def body(task, k):
                buffer = buffers[task.rank]
                if task.rank == ROOT_RANK:
                    buffer[:] = payloads[k]
                yield from collectives.broadcast(task, buffer, root=ROOT_RANK)
                if not np.array_equal(buffer, payloads[k]):
                    bad.add(k)

            return body

        if operation == "barrier":
            entered: dict[int, list[float]] = {}

            def body(task, k):
                entered.setdefault(k, []).append(machine.now)
                yield from collectives.barrier(task)
                if machine.now < max(entered[k]) or len(entered[k]) < ranks:
                    bad.add(k)

            return body

        sources = _ints(self.rng, (ranks, max(1, nbytes // 8)))
        total = sources.sum(axis=0)
        expected = [total + ranks * k for k in range(calls)]
        if operation == "reduce":
            result = np.zeros(sources.shape[1])

            def body(task, k):
                source = sources[task.rank]
                if k:
                    source += 1.0
                dst = result if task.rank == ROOT_RANK else None
                yield from collectives.reduce(task, source, dst, SUM, root=ROOT_RANK)
                if task.rank == ROOT_RANK and not np.array_equal(result, expected[k]):
                    bad.add(k)

            return body

        results = np.zeros_like(sources)

        def body(task, k):
            source = sources[task.rank]
            if k:
                source += 1.0
            yield from collectives.allreduce(task, source, results[task.rank], SUM)
            if not np.array_equal(results[task.rank], expected[k]):
                bad.add(k)

        return body


# ---------------------------------------------------------------------------
# app-loop and persistent-loop
# ---------------------------------------------------------------------------

LOOP_NODES = 4
LOOP_TASKS_PER_NODE = 8
UNKNOWNS = 512  # Jacobi vector: a 16-double block per rank, 4 KB gathered
FEATURES = 4096  # training parameters: 32 KB, the pipelined protocols


class _Loop(Workload):
    """One long-lived 4x8 SRM machine shared by every unit of the run."""

    #: Set-up units run before timing, so dispatch caches and (for plans)
    #: compiled schedules are warm.
    warmup_units = 0
    #: Pinned simulated µs of each unit of one period, by unit index modulo
    #: the period (units repeat once the warm-up has run).
    period_key = ""

    def __init__(self, seed: int, spans: Spans, sim_reference: dict, **kwargs: typing.Any) -> None:
        super().__init__(seed, spans, **kwargs)
        self.period_us: list[float] = sim_reference[self.period_key]
        spec = ClusterSpec(nodes=LOOP_NODES, tasks_per_node=LOOP_TASKS_PER_NODE)
        self.machine = self.call("machine_init", Machine, spec, observe=self.observe)
        self.srm = self.call("stack_init", SRM, self.machine, config=self.config)
        self.tasks = self.machine.tasks
        self.ranks = spec.total_tasks
        self.weights = np.zeros((self.ranks, FEATURES))
        self.grads = np.zeros((self.ranks, FEATURES))
        self.gradient_sum = np.zeros(FEATURES)
        self.residuals = np.zeros((self.ranks, 1))
        self.global_residuals = np.zeros((self.ranks, 1))
        self._build()
        self._warming = True
        for _ in range(self.warmup_units):
            self.run_unit()
        self._warming = False
        self.units_run = 0

    def _build(self) -> None:
        pass

    def counts(self) -> dict[str, float]:
        return dict(machine_counts(self.machine), spans=self.spans_recorded)

    def _check_sim(self, index: int, sim_s: float) -> bool:
        if self._warming:  # cold units take longer; only the steady state repeats
            return True
        reference = self.period_us[index % len(self.period_us)]
        sim_us = sim_s * 1e6
        if abs(sim_us - reference) > SIM_REL_TOL * reference:
            self._fail(index, f"simulated {sim_us!r} us, reference {reference!r} us")
            return False
        return True

    def _new_step_inputs(self, parameters: np.ndarray) -> np.ndarray:
        """Fresh root parameters and gradients; returns the expected gradient sum."""
        parameters[:] = _ints(self.rng, FEATURES)
        self.grads[:] = _ints(self.rng, self.grads.shape)
        return self.grads.sum(axis=0)

    def _new_residuals(self) -> float:
        self.residuals[:] = _ints(self.rng, self.residuals.shape)
        return float(self.residuals.sum())


class AppLoop(_Loop):
    """Jacobi sweeps and training steps as blocking SRM calls.

    A sweep is an allgather of 16-double blocks and an 8 B allreduce
    stopping test (``examples/iterative_jacobi.py``); a step is a 32 KB
    broadcast, reduce and barrier (``examples/parameter_server.py``).  The
    mix is the examples' own: the Jacobi solve converges in 10 sweeps and the
    training loop runs 25 steps, so every cycle of seven units holds two
    sweeps and five steps, spread out.  A window of ten cycles is the
    communication of two runs of each example.
    """

    name = "app-loop"
    window = 70
    warmup_units = 7
    period_key = "app-loop"
    CYCLE = ("step", "sweep", "step", "step", "sweep", "step", "step")

    def _build(self) -> None:
        self.blocks = np.zeros((self.ranks, UNKNOWNS // self.ranks))
        self.vectors = np.zeros((self.ranks, UNKNOWNS))
        srm = self.srm

        def sweep(task):
            rank = task.rank
            yield from srm.allgather(task, self.blocks[rank], self.vectors[rank])
            yield from srm.allreduce(task, self.residuals[rank], self.global_residuals[rank], SUM)

        self.entered = np.zeros(self.ranks)
        self.left = np.zeros(self.ranks)

        def step(task):
            rank = task.rank
            yield from srm.broadcast(task, self.weights[rank], root=ROOT_RANK)
            dst = self.gradient_sum if rank == ROOT_RANK else None
            yield from srm.reduce(task, self.grads[rank], dst, SUM, root=ROOT_RANK)
            self.entered[rank] = self.machine.now
            yield from srm.barrier(task)
            self.left[rank] = self.machine.now

        self.programs = {"sweep": sweep, "step": step}

    def nominal_ops(self, index: int) -> int:
        return 2 if self.CYCLE[index % len(self.CYCLE)] == "sweep" else 3

    def may_stop(self) -> bool:
        return self.units_run % len(self.CYCLE) == 0

    def _unit(self, index: int) -> tuple[float, int, int]:
        kind = self.CYCLE[index % len(self.CYCLE)]
        if kind == "sweep":
            self.blocks[:] = _ints(self.rng, self.blocks.shape)
            total = self._new_residuals()
        else:
            gradient_sum = self._new_step_inputs(self.weights[ROOT_RANK])
        result = self.call("launch", self.machine.launch, self.programs[kind])
        self._drain_spans(self.machine)

        if kind == "sweep":
            failed = [
                not np.array_equal(self.vectors, np.broadcast_to(self.blocks.reshape(-1), self.vectors.shape)),
                not np.all(self.global_residuals == total),
            ]
        else:
            failed = [
                not np.array_equal(self.weights, np.broadcast_to(self.weights[ROOT_RANK], self.weights.shape)),
                not np.array_equal(self.gradient_sum, gradient_sum),
                self.left.min() < self.entered.max(),
            ]
        if any(failed):
            self._fail(index, f"{kind} output mismatch {failed}")
        if not self._check_sim(index, result.elapsed):
            failed = [True] * len(failed)
        return result.elapsed, len(failed), sum(failed)


class PersistentLoop(_Loop):
    """The training step and stopping test through persistent plans.

    Each step runs four driver-style windows (start every rank's plan, then
    ``Engine.run``): broadcast, reduce, barrier and the 8 B allreduce.  Data
    changes every step; every eighth step re-binds one rank's broadcast plan
    to its other buffer, which drops the compiled schedules recorded for it
    and forces the record path on that step and the next.  A quarter of the
    steps thus record, so the median falls among replayed steps and the
    90th percentile among recording ones.
    """

    name = "persistent-loop"
    window = 64
    warmup_units = 16
    period_key = "persistent-loop"
    REBIND_EVERY = 8

    def _build(self) -> None:
        self.spare = np.zeros_like(self.weights)
        self.bound = [self.weights[rank] for rank in range(self.ranks)]
        srm, tasks = self.srm, self.tasks

        def plan(name, *args, **kwargs):
            return self.call("plan_init", getattr(srm, name), *args, **kwargs)

        self.broadcasts = [plan("plan_broadcast", t, self.weights[t.rank], root=ROOT_RANK) for t in tasks]
        self.reduces = [
            plan(
                "plan_reduce", t, self.grads[t.rank],
                self.gradient_sum if t.rank == ROOT_RANK else None, SUM, root=ROOT_RANK,
            )
            for t in tasks
        ]
        self.barriers = [plan("plan_barrier", t) for t in tasks]
        self.allreduces = [
            plan("plan_allreduce", t, self.residuals[t.rank], self.global_residuals[t.rank], SUM)
            for t in tasks
        ]
        self._steps = 0

    def nominal_ops(self, index: int) -> int:
        return 4

    def may_stop(self) -> bool:
        return self.units_run % self.REBIND_EVERY == 0

    def _window(self, plans: list) -> tuple[float, bool]:
        """Start every rank's plan, run the engine; (simulated s, all completed)."""
        engine = self.machine.engine
        before = engine.now
        requests = [self.call("plan_start", plan.start) for plan in plans]
        self.call("engine_run", engine.run)
        self._drain_spans(self.machine)
        return engine.now - before, all(request.test() for request in requests)

    def _unit(self, index: int) -> tuple[float, int, int]:
        step = self._steps
        self._steps += 1
        if step % self.REBIND_EVERY == self.REBIND_EVERY - 1:
            rank = (step // self.REBIND_EVERY) % self.ranks
            other = self.spare[rank] if self.bound[rank] is self.weights[rank] else self.weights[rank]
            self.call("rebind", self.broadcasts[rank].rebind, other)
            self.bound[rank] = other

        gradient_sum = self._new_step_inputs(self.bound[ROOT_RANK])
        total = self._new_residuals()
        windows = (
            (self.broadcasts, lambda: all(np.array_equal(b, self.bound[ROOT_RANK]) for b in self.bound)),
            (self.reduces, lambda: np.array_equal(self.gradient_sum, gradient_sum)),
            (self.barriers, lambda: True),  # completing is a barrier's only output
            (self.allreduces, lambda: np.all(self.global_residuals == total)),
        )
        sim_s = 0.0
        failed = []
        for plans, output_ok in windows:
            elapsed, done = self._window(plans)
            sim_s += elapsed
            failed.append(not (done and output_ok()))

        if any(failed):
            self._fail(index, f"step output mismatch {failed}")
        if not self._check_sim(index, sim_s):
            failed = [True] * len(failed)
        return sim_s, len(failed), sum(failed)


WORKLOADS = {cls.name: cls for cls in (PaperGrid, AppLoop, PersistentLoop)}
