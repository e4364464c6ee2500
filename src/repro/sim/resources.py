"""Contention resources for the simulation kernel.

Two resource families model the hardware domains of an SMP cluster:

* :class:`FifoResource` — a counted-slot resource with FIFO granting.  Used
  for things that serialize whole-operation access (a NIC send DMA engine, a
  lock).
* :class:`SharedBandwidth` — a fluid-flow *processor-sharing* link.  Active
  transfers share the link rate equally (optionally capped per transfer, e.g.
  a single CPU cannot stream faster than its own copy bandwidth even on an
  idle memory bus).  This is the standard fluid approximation for memory-bus
  and switch-port contention and is what makes simultaneous-reader SMP
  broadcast contention (paper §2.2) come out right.

:class:`Gate` is a resettable broadcast condition used for interrupt-mode
modelling ("wait until the target enters a LAPI call").
"""

from __future__ import annotations

import bisect
import math
import operator
import typing

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout

__all__ = ["FifoResource", "SharedBandwidth", "Gate"]


class FifoResource:
    """A resource with ``capacity`` slots granted in request order."""

    def __init__(self, engine: Engine, capacity: int = 1, name: str | None = None) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: list[Event] = []
        self._grant_name = f"grant:{name}"
        monitor = engine.monitor
        self._timeline = monitor.register(name, "fifo") if monitor is not None else None

    def _record(self) -> None:
        timeline = self._timeline
        if timeline is not None:
            timeline.record(
                self.engine.now,
                self._in_use,
                len(self._waiting),
                self._in_use >= self.capacity,
            )

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        grant = Event(self.engine, name=self._grant_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed()
        else:
            self._waiting.append(grant)
        self._record()
        return grant

    def release(self) -> None:
        """Release a previously granted slot, waking the next waiter."""
        if self._in_use == 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiting:
            self._waiting.pop(0).succeed()
        else:
            self._in_use -= 1
        self._record()

    def use(self, duration: float) -> typing.Generator[Event, typing.Any, None]:
        """Hold one slot for ``duration`` simulated seconds (``yield from``)."""
        yield self.request()
        try:
            yield self.engine.timeout(duration)
        finally:
            self.release()


class _Transfer:
    __slots__ = ("seq", "size", "remaining", "cap", "rate", "event")

    def __init__(self, seq: int, nbytes: float, cap: float, event: Event) -> None:
        #: Arrival order on the link; completions fire in this order.
        self.seq = seq
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.cap = cap
        #: Water-filling share, set by each reschedule.
        self.rate = 0.0
        self.event = event


_BY_CAP = operator.attrgetter("cap")
_BY_ARRIVAL = operator.attrgetter("seq")


class SharedBandwidth:
    """Fluid-flow processor-sharing link of ``rate`` bytes/second.

    All active transfers progress simultaneously; each receives a
    water-filling share of the link rate, never exceeding its own per-transfer
    cap.  Membership changes (a transfer joining or completing) re-divide the
    rate instantly: the water-fill runs once per change, in
    :meth:`_reschedule`, and :meth:`_settle` advances progress at those
    rates.  A wake-up superseded by a later change is cancelled by clearing
    its callback; it stays queued and fires through the engine's
    callback-free lane, so the event stream (sequence numbers and
    ``events_processed``) is the same as if it had run and returned.
    """

    #: Residual-byte tolerance when deciding a transfer has completed.
    EPSILON = 1e-6

    def __init__(self, engine: Engine, rate: float, name: str | None = None) -> None:
        if not (rate > 0) or math.isinf(rate):
            raise SimulationError(f"link rate must be finite and positive, got {rate}")
        self.engine = engine
        self.rate = float(rate)
        self.name = name
        #: Active transfers in cap order; equal caps keep arrival order.
        self._active: list[_Transfer] = []
        self._arrivals = 0
        self._last_settled = engine.now
        #: The pending wake-up timer, if any.
        self._wake_timer: Timeout | None = None
        self._xfer_name = f"xfer:{name}"
        #: Total bytes ever completed through this link (for audits/tests).
        self.bytes_transferred = 0.0
        monitor = engine.monitor
        self._timeline = (
            monitor.register(name, "bandwidth") if monitor is not None else None
        )

    @property
    def active_transfers(self) -> int:
        """Number of transfers currently sharing the link."""
        return len(self._active)

    def transfer(self, nbytes: float, max_rate: float | None = None) -> Event:
        """Start moving ``nbytes`` through the link; returns a completion event.

        ``max_rate`` caps this transfer's share (e.g. one CPU's copy speed).
        """
        if not 0 <= nbytes < math.inf:  # also rejects NaN
            raise SimulationError(f"cannot transfer {nbytes} bytes")
        done = Event(self.engine, name=self._xfer_name)
        if nbytes == 0:
            done.succeed()
            return done
        cap = math.inf if max_rate is None else float(max_rate)
        if not cap > 0:  # also rejects NaN
            raise SimulationError(f"max_rate must be positive, got {max_rate}")
        self._settle()
        # Insert after every equal cap: the list stays in the order a stable
        # sort by cap gives over arrival order.
        transfer = _Transfer(self._arrivals, nbytes, cap, done)
        bisect.insort_right(self._active, transfer, key=_BY_CAP)
        self._arrivals += 1
        self._reschedule()
        return done

    # -- fluid-flow internals ---------------------------------------------

    def _settle(self) -> None:
        """Advance every active transfer's progress to the current time."""
        now = self.engine.now
        elapsed = now - self._last_settled
        self._last_settled = now
        if elapsed <= 0:
            return
        for transfer in self._active:
            transfer.remaining -= transfer.rate * elapsed

    def _complete_finished(self) -> None:
        epsilon = self.EPSILON
        finished = [transfer for transfer in self._active if transfer.remaining <= epsilon]
        if not finished:
            return
        self._active = [transfer for transfer in self._active if transfer.remaining > epsilon]
        finished.sort(key=_BY_ARRIVAL)  # complete in arrival order
        for transfer in finished:
            self.bytes_transferred += transfer.size
            transfer.event.succeed()

    def _reschedule(self) -> None:
        """Re-divide the link and (re)arm the wake-up for the next completion."""
        engine = self.engine
        wake = self._wake_timer
        if wake is not None:
            wake._cb0 = None  # superseded: stays queued, fires callback-free
            self._wake_timer = None
        active = self._active
        timeline = self._timeline
        if not active:
            if timeline is not None:
                timeline.record(engine.now, 0, 0, False)
            return
        # Water-filling in increasing cap order: once the tightest caps are
        # paid out, the rest share the remainder equally.
        budget = self.rate
        count = len(active)
        next_completion = math.inf
        for transfer in active:
            share = budget / count
            cap = transfer.cap
            rate = cap if cap < share else share
            transfer.rate = rate
            budget -= rate
            count -= 1
            finish = transfer.remaining / rate
            if finish < next_completion:
                next_completion = finish
        if timeline is not None:
            # Saturated: the water-filling pass spent the whole link rate,
            # so at least one transfer's share is squeezed below its cap.
            saturated = sum([transfer.rate for transfer in active]) >= self.rate * (1.0 - 1e-9)
            timeline.record(engine.now, len(active), 0, saturated)
        self._wake_timer = engine.call_at(engine.now + next_completion, self._wake)

    def _wake(self, _event: Event) -> None:
        self._wake_timer = None
        self._settle()
        self._complete_finished()
        self._reschedule()

    def __repr__(self) -> str:
        return f"<SharedBandwidth {self.name!r} rate={self.rate:.4g} active={len(self._active)}>"


class Gate:
    """A resettable broadcast condition.

    ``wait()`` completes immediately while the gate is open, otherwise when
    it next opens.  Closing the gate only affects future waiters.
    """

    def __init__(self, engine: Engine, open: bool = False, name: str | None = None) -> None:
        self.engine = engine
        self.name = name
        self._open = bool(open)
        self._waiting: list[Event] = []
        self._gate_name = f"gate:{name}"
        monitor = engine.monitor
        self._timeline = monitor.register(name, "gate") if monitor is not None else None

    def _record(self) -> None:
        timeline = self._timeline
        if timeline is not None:
            timeline.record(
                self.engine.now, 1 if self._open else 0, len(self._waiting), False
            )

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        """Event that fires when the gate is (or becomes) open."""
        passed = Event(self.engine, name=self._gate_name)
        if self._open:
            passed.succeed()
        else:
            self._waiting.append(passed)
            self._record()
        return passed

    def open(self) -> None:
        """Open the gate, releasing every current waiter."""
        self._open = True
        waiting, self._waiting = self._waiting, []
        for event in waiting:
            event.succeed()
        self._record()

    def close(self) -> None:
        """Close the gate for future waiters."""
        self._open = False
        self._record()
