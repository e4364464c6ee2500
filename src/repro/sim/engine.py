"""The discrete-event simulation engine.

The engine owns the simulation clock and the time-ordered event queue.  It is
deliberately tiny: everything else (resources, protocols, machines) is built
from :class:`~repro.sim.events.Event` and :class:`~repro.sim.process.Process`.

Determinism contract: a run is a **pure function of (inputs, scheduler)**.
Ties at the same timestamp are broken by the engine's tie-break scheduler —
``None`` (the default, scheduling order; byte-identical to the historical
behaviour) or any :class:`~repro.sim.scheduler.Scheduler` — so replaying the
same program under the same scheduler state reproduces every event order,
every timing, and every buffer byte.  Any randomness a model needs must come
from an explicitly seeded RNG the caller passes in; there is no wall-clock
or global RNG anywhere in a simulated code path.  Alternative schedulers
(seeded shuffles, DFS replay) explore *other* legal interleavings of
simultaneously-ready events — that is the schedule-exploration verification
harness's lever (:mod:`repro.verify`).
"""

from __future__ import annotations

import heapq
import itertools
import typing
import weakref

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.scheduler import Scheduler

__all__ = ["Engine"]


class Engine:
    """Event queue + clock for one simulation run.

    ``scheduler`` selects the tie-break policy for same-timestamp events.
    With the default ``None`` the engine keeps its allocation-free fast
    lanes and processes ties in scheduling order; with a
    :class:`~repro.sim.scheduler.Scheduler` instance every same-timestamp
    batch is routed through ``scheduler.order`` before processing.
    """

    def __init__(self, start_time: float = 0.0, scheduler: "Scheduler | None" = None) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._active_process: Process | None = None
        #: Number of events processed; useful for budget checks in tests.
        self.events_processed = 0
        #: Tie-break policy for same-timestamp batches (None = FIFO fast path).
        self.scheduler = scheduler
        #: Invariant-checker hooks (:class:`repro.verify.invariants.Verifier`)
        #: consulted by the substrate layers; ``None`` disables all checks.
        self.verifier: typing.Any = None
        #: Fault-injection plan (:class:`repro.verify.faults.FaultPlan`)
        #: consulted by the substrate layers; ``None`` disables all faults.
        self.faults: typing.Any = None
        #: Resource-occupancy monitor (:class:`repro.obs.monitor.ResourceMonitor`)
        #: consulted by the contention resources; ``None`` disables recording.
        self.monitor: typing.Any = None
        #: Compiled-schedule replay manager (:class:`repro.core.replay.ReplayManager`)
        #: consulted by the run loops and the data-moving substrates;
        #: ``None`` disables trace recording and replay.
        self.trace: typing.Any = None
        # Weak registry of every process started on this engine, kept so a
        # deadlock can name who is still blocked and on what.
        self._processes: list[weakref.ref] = []
        self._process_prune_at = 64

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction helpers --------------------------------------

    def event(self, name: str | None = None) -> Event:
        """Create a fresh untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: typing.Any = None, name: str | None = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: ProcessGenerator, name: str | None = None) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    # -- process registry (deadlock diagnostics) --------------------------

    def _register_process(self, process: Process) -> None:
        """Track ``process`` weakly so deadlocks can name the blocked."""
        refs = self._processes
        refs.append(weakref.ref(process))
        if len(refs) >= self._process_prune_at:
            refs[:] = [ref for ref in refs if (p := ref()) is not None and p.is_alive]
            self._process_prune_at = max(64, 2 * len(refs))

    def blocked_processes(self) -> list[Process]:
        """Every started process that has not finished, in creation order."""
        out = []
        for ref in self._processes:
            process = ref()
            if process is not None and process.is_alive:
                out.append(process)
        return out

    def _deadlock(self, reason: str) -> DeadlockError:
        """Build a :class:`DeadlockError` naming every blocked process."""
        blocked = self.blocked_processes()
        if not blocked:
            return DeadlockError(reason)
        shown = blocked[:16]
        lines = []
        for process in shown:
            target = process.waiting_on
            waiting = repr(target) if target is not None else "(not yet resumed)"
            line = f"  {process.name or '<anonymous>'} blocked on {waiting}"
            request = process.waiting_request
            if request is not None:
                line += f" in wait() on request {request.describe()}"
            lines.append(line)
        more = len(blocked) - len(shown)
        if more:
            lines.append(f"  ... and {more} more")
        detail = "\n".join(lines)
        return DeadlockError(
            f"{reason}; {len(blocked)} process(es) blocked forever:\n{detail}"
        )

    def all_of(self, events: typing.Iterable[Event]) -> AllOf:
        """Event firing when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: typing.Iterable[Event]) -> AnyOf:
        """Event firing when the first of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------

    def call_at(self, when: float, callback: typing.Callable[[Event], None]) -> Timeout:
        """Run ``callback(timer)`` at absolute time ``when`` (>= now).

        Returns the timer; the callback runs when it is processed.  Used by
        fluid-flow resources to (re)schedule completions.  Clearing the
        timer's ``_cb0`` cancels the callback but leaves the timer queued, so
        cancelling never changes the event stream.
        """
        if not when >= self._now:
            if when != when:
                raise SimulationError(f"call_at({when!r}) needs a time, got NaN")
            # Tolerate floating-point residue from rate arithmetic; anything
            # beyond rounding noise is a real causality bug.
            if self._now - when > 1e-12 * max(1.0, abs(self._now)):
                raise SimulationError(f"call_at({when!r}) is in the past (now={self._now!r})")
            when = self._now
        timer = Timeout(self, when - self._now, name="call_at")
        timer._cb0 = callback
        return timer

    # -- main loop ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next event in the queue."""
        if self.trace is not None:
            # Stepped windows are driven one event at a time; deferred starts
            # materialize on the slow path (no recording, no replay).
            self.trace.on_run("step")
        if not self._queue:
            raise self._deadlock("event queue is empty")
        when, _seq, event = heapq.heappop(self._queue)
        if when < self._now:
            raise SimulationError("event queue went backwards in time")
        self._now = when
        self.events_processed += 1
        if event._cb0 is None:
            # Callback-free fast lane: nothing is waiting, so skip the
            # generic _fire dance (bare Timeouts dominate this case).
            event._processed = True
            if event._ok is False and not event._defused:
                raise event._value
            return
        event._fire()

    def _fire_inline(self, event: Event) -> None:
        """One event's processing, inlined for the run loops below.

        Mirrors :meth:`Event._fire` exactly (zero/one-callback fast lanes
        included); kept as a method so every loop shares one definition.
        """
        cb0 = event._cb0
        if cb0 is not None:
            cbs = event._cbs
            event._cb0 = None
            event._cbs = None
            event._processed = True
            cb0(event)
            if cbs is not None:
                for callback in cbs:
                    callback(event)
        else:
            event._processed = True
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the queue drains.
            ``float`` — run until the clock reaches that time.
            ``Event`` — run until that event is processed; returns its value
            (raising its exception if it failed).

        The loops below are the simulator's hottest code: they pop events in
        same-timestamp batches (one heap drain per distinct time instead of a
        per-event bookkeeping round-trip) and process each event through the
        same zero/one-callback fast lane as :meth:`step`.  Ordering is
        byte-identical to stepping one event at a time: batches preserve the
        (time, sequence) heap order, and anything a callback schedules at the
        current time carries a later sequence number, landing in a later
        batch exactly as it would land in a later step.
        """
        trace = self.trace
        if trace is not None:
            # Flush deferred persistent starts: replay a cached schedule or
            # materialize (and possibly record) the slow path.
            trace.on_run(until)
        if isinstance(until, Event):
            return self._run_until_processed(until)
        if self.scheduler is not None:
            return self._run_scheduled(None if until is None else float(until))
        queue = self._queue
        pop = heapq.heappop
        fire = self._fire_inline
        if until is None:
            while queue:
                when, _seq, event = pop(queue)
                if when < self._now:
                    raise SimulationError("event queue went backwards in time")
                self._now = when
                self.events_processed += 1
                fire(event)
            if trace is not None:
                # Quiescence: the only point where a recording may commit.
                trace.on_quiescent()
            return None
        deadline = float(until)
        if not deadline >= self._now:  # also rejects NaN
            raise SimulationError(f"run(until={deadline!r}) is in the past or NaN")
        while queue and queue[0][0] <= deadline:
            when, _seq, event = pop(queue)
            if when < self._now:
                raise SimulationError("event queue went backwards in time")
            self._now = when
            self.events_processed += 1
            fire(event)
        self._now = deadline
        return None

    def _run_scheduled(self, deadline: float | None) -> None:
        """``run()`` / ``run(until=<time>)`` with a tie-break scheduler.

        Semantically identical to the fast loops in :meth:`run` except that
        every same-timestamp batch is handed to the scheduler for ordering
        before processing.  Events a callback schedules at the current time
        carry a later sequence number and land in a later batch, exactly as
        in the default loops.
        """
        if deadline is not None and not deadline >= self._now:
            raise SimulationError(f"run(until={deadline!r}) is in the past or NaN")
        queue = self._queue
        pop = heapq.heappop
        scheduler = self.scheduler
        while queue and (deadline is None or queue[0][0] <= deadline):
            when = queue[0][0]
            if when < self._now:
                raise SimulationError("event queue went backwards in time")
            self._now = when
            batch = [pop(queue)]
            while queue and queue[0][0] == when:
                batch.append(pop(queue))
            if len(batch) > 1:
                batch = scheduler.order(batch)
            index = 0
            try:
                while index < len(batch):
                    event = batch[index][2]
                    index += 1
                    self.events_processed += 1
                    self._fire_inline(event)
            finally:
                for entry in batch[index:]:
                    heapq.heappush(queue, entry)
        if deadline is not None:
            self._now = deadline

    def _run_until_processed(self, stop_event: Event) -> typing.Any:
        """``run(until=<event>)``: the launch hot loop, batched."""
        stop_event.defuse()
        queue = self._queue
        pop = heapq.heappop
        scheduler = self.scheduler
        batch: list[tuple[float, int, Event]] = []
        while not stop_event._processed:
            if not queue:
                raise self._deadlock(
                    f"event queue drained before {stop_event!r} fired"
                )
            head = pop(queue)
            when = head[0]
            if when < self._now:
                raise SimulationError("event queue went backwards in time")
            self._now = when
            batch.append(head)
            while queue and queue[0][0] == when:
                batch.append(pop(queue))
            if scheduler is not None and len(batch) > 1:
                batch = scheduler.order(batch)
            index = 0
            processed = 0
            try:
                while index < len(batch):
                    event = batch[index][2]
                    index += 1
                    processed += 1
                    # Event._fire, manually inlined: this loop is the single
                    # hottest spot in the simulator.
                    cb0 = event._cb0
                    if cb0 is not None:
                        cbs = event._cbs
                        event._cb0 = None
                        event._cbs = None
                        event._processed = True
                        cb0(event)
                        if cbs is not None:
                            for callback in cbs:
                                callback(event)
                    else:
                        event._processed = True
                    if event._ok is False and not event._defused:
                        raise event._value
                    if stop_event._processed:
                        break
            finally:
                self.events_processed += processed
                # Unfired same-time events (stop hit, or a callback raised)
                # go back with their original keys: the queue state is the
                # same as if events had been stepped one at a time.
                for entry in batch[index:]:
                    heapq.heappush(queue, entry)
                del batch[:]
        if stop_event.ok:
            return stop_event.value
        raise typing.cast(BaseException, stop_event.value)

    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def __repr__(self) -> str:
        return f"<Engine t={self._now:.6g} queued={len(self._queue)}>"
