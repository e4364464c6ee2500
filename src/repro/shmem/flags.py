"""Shared-memory synchronization flags with a spin/yield cost model.

The paper's SMP protocols coordinate through flags in shared memory — one
READY flag per process per broadcast buffer (§2.2, Fig. 3), one check-in flag
per process for the barrier.  Waiting is *spinning*, and §2.4 adds the twist
that after a bounded number of unsuccessful spins a process must yield its
time slice so the LAPI threads can run.

The cost model here:

* **setting** a flag costs :attr:`CostModel.flag_set_cost` (store + fence);
* a waiter whose condition is already true pays one
  :attr:`CostModel.flag_poll_interval` to observe it;
* a waiter that blocked and was satisfied within
  ``spin_yield_threshold × flag_poll_interval`` pays one poll interval of
  detection delay (it was spinning when the flag flipped);
* a waiter that blocked longer has yielded the CPU: it pays
  :attr:`CostModel.yield_cost` of wake-up delay instead, and the yield is
  counted in :class:`~repro.machine.cluster.TaskStats` (this is what makes
  "spin forever" configurations measurably bad, the effect §2.4 describes).

Flags are single-writer in all SRM protocols (each flag has a well-defined
owner for each phase), so observing the value after the wake-up event is
race-free; the implementation still re-checks the predicate for safety.
"""

from __future__ import annotations

import typing

from repro.errors import ProtocolError
from repro.obs.taxonomy import FLAG_SET, FLAG_WAIT, FLOW_FLAG_WAKEUP
from repro.sim.events import Event
from repro.sim.process import ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Node, Task

__all__ = ["SharedFlag", "FlagArray"]

Predicate = typing.Callable[[int], bool]


class SharedFlag:
    """One integer flag in node shared memory (its own cache line).

    ``kind`` declares the flag's synchronization discipline so the
    verification harness (:mod:`repro.verify`) can apply the matching
    invariant checker; it is purely declarative and free when no verifier
    is attached to the engine:

    * ``"ready"`` — a READY handshake flag (0 = free, 1 = data available);
      the writer may only set 0→1 and the reader may only clear 1→0.
    * ``"checkin"`` — a barrier check-in flag with the same 0/1 pairing.
    * ``"sequence"`` — a cumulative chunk counter; values must be monotone
      non-decreasing.
    * ``None`` — no declared discipline (no checks).
    """

    def __init__(
        self,
        node: "Node",
        initial: int = 0,
        name: str | None = None,
        kind: str | None = None,
    ) -> None:
        self.node = node
        self.engine = node.machine.engine
        self.cost = node.machine.cost
        self.obs = node.machine.obs
        self.name = name
        self._event_name = f"flag:{name}"
        self.kind = kind
        self._value = int(initial)
        self._waiters: list[tuple[Predicate, Event, int | None]] = []

    @property
    def value(self) -> int:
        """Current flag value (reading is free; waiting is not)."""
        return self._value

    # -- writer side --------------------------------------------------------

    def set(self, task: "Task", value: int) -> ProcessGenerator:
        """Timed store of ``value`` by ``task`` (``yield from``)."""
        if task.node is not self.node:
            raise ProtocolError(
                f"task {task.rank} on node {task.node.index} cannot touch flag "
                f"on node {self.node.index}: flags are node-local shared memory"
            )
        with task.phase(FLAG_SET):
            yield self.engine.timeout(self.cost.flag_set_cost)
        self.obs.flag_sets.inc()
        self.store(value, writer_rank=task.rank)

    def store(self, value: int, writer_rank: int | None = None) -> None:
        """Untimed store — used when the cost is accounted elsewhere (e.g. a
        LAPI put that lands data and flips a flag in one DMA).

        ``writer_rank`` attributes the resulting waiter wakeups to the
        storing task in the recorded flow links.
        """
        verifier = self.engine.verifier
        if verifier is not None:
            verifier.on_flag_store(self, self._value, int(value), writer_rank)
        self._value = int(value)
        if not self._waiters:
            return
        now = self.engine.now
        waiters = self._waiters
        faults = self.engine.faults
        if faults is not None:
            # Fault injection: release satisfied waiters in a perturbed
            # order (changes resume scheduling order, not who is released).
            waiters = faults.reorder_wakeups(waiters)
        still_waiting: list[tuple[Predicate, Event, int | None]] = []
        for predicate, event, waiter_rank in waiters:
            if predicate(self._value):
                event.succeed(self._value)
                if writer_rank is not None and waiter_rank is not None:
                    self.obs.flow(
                        FLOW_FLAG_WAKEUP,
                        writer_rank,
                        now,
                        waiter_rank,
                        now,
                        detail=self.name or "",
                    )
            else:
                still_waiting.append((predicate, event, waiter_rank))
        self._waiters = still_waiting

    # -- waiter side ---------------------------------------------------------

    def _event_when(self, predicate: Predicate, waiter_rank: int | None = None) -> Event | None:
        """Internal: event firing when ``predicate(value)`` becomes true, or
        ``None`` if it is already true.  No detection cost included."""
        if predicate(self._value):
            return None
        event = Event(self.engine, name=self._event_name)
        self._waiters.append((predicate, event, waiter_rank))
        return event

    def wait_for(self, task: "Task", predicate: Predicate) -> ProcessGenerator:
        """Spin until ``predicate(value)`` holds; returns the observed value."""
        if task.node is not self.node:
            raise ProtocolError(
                f"task {task.rank} cannot spin on a flag of node {self.node.index}"
            )
        start = self.engine.now
        with task.phase(FLAG_WAIT):
            pending = self._event_when(predicate, waiter_rank=task.rank)
            if pending is not None:
                yield pending
            yield self.engine.timeout(self._detection_delay(task, start))
        self.obs.flag_wait_seconds.observe(self.engine.now - start)
        if not predicate(self._value):  # pragma: no cover - single-writer protocols
            raise ProtocolError(f"flag {self.name!r} changed under a waiter")
        return self._value

    def wait_value(self, task: "Task", value: int) -> ProcessGenerator:
        """Spin until the flag equals ``value``."""
        result = yield from self.wait_for(task, lambda v: v == value)
        return result

    def _detection_delay(self, task: "Task", wait_start: float) -> float:
        waited = self.engine.now - wait_start
        spin_window = self.cost.spin_yield_threshold * self.cost.flag_poll_interval
        if waited > spin_window:
            task.stats.yields += 1
            self.obs.yields.inc()
            return self.cost.yield_cost
        return self.cost.flag_poll_interval

    def __repr__(self) -> str:
        return f"<SharedFlag {self.name!r}={self._value} node={self.node.index}>"


class FlagArray:
    """A bank of per-task flags, each on its own cache line (paper §2.2)."""

    def __init__(
        self,
        node: "Node",
        count: int,
        initial: int = 0,
        name: str = "flags",
        kind: str | None = None,
    ) -> None:
        if count < 1:
            raise ProtocolError(f"FlagArray needs >= 1 flag, got {count}")
        self.node = node
        self.engine = node.machine.engine
        self.cost = node.machine.cost
        self.name = name
        self.kind = kind
        self.flags = [
            SharedFlag(node, initial, name=f"{name}[{i}]", kind=kind) for i in range(count)
        ]

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, index: int) -> SharedFlag:
        return self.flags[index]

    def values(self) -> list[int]:
        """Snapshot of all flag values."""
        return [flag.value for flag in self.flags]

    def set_all(self, task: "Task", value: int, skip: int | None = None) -> ProcessGenerator:
        """Timed store of ``value`` into every flag (optionally skipping one).

        This is the barrier master's "reset the value of flags for all the
        other processes" step (§2.2): the master pays one store per flag.
        """
        indices = [i for i in range(len(self.flags)) if i != skip]
        with task.phase(FLAG_SET):
            yield task.engine.timeout(self.cost.flag_set_cost * len(indices))
        self.node.machine.obs.flag_sets.inc(len(indices))
        for index in indices:
            self.flags[index].store(value, writer_rank=task.rank)

    def wait_all(self, task: "Task", predicate: Predicate, skip: int | None = None) -> ProcessGenerator:
        """Spin until ``predicate`` holds on every flag (optionally skip one).

        Models the barrier master polling the whole flag bank: one detection
        delay total once the last flag satisfies the predicate.
        """
        start = self.engine.now
        with task.phase(FLAG_WAIT):
            pending = [
                event
                for index, flag in enumerate(self.flags)
                if index != skip
                for event in [flag._event_when(predicate, waiter_rank=task.rank)]
                if event is not None
            ]
            if pending:
                yield self.engine.all_of(pending)
            # Reuse the single-flag detection model for the final observation.
            yield self.engine.timeout(self.flags[0]._detection_delay(task, start))
        self.node.machine.obs.flag_wait_seconds.observe(self.engine.now - start)
