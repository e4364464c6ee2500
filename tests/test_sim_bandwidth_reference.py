"""``SharedBandwidth`` against a reference copy of its earlier water-filling.

The link keeps its transfers in cap order, water-fills once per membership
change and cancels a superseded wake-up by clearing its callback.  The
reference below is the plain form it replaced: a dict of transfers, a fresh
``sorted(..., key=cap)`` water-fill in both ``_settle`` and ``_reschedule``,
and version-checked wake-up closures that run and return when superseded.
Both must produce the same completion times bit for bit, the same
``events_processed`` and the same occupancy timeline.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs.monitor import ResourceMonitor
from repro.sim import Engine, RandomScheduler, SharedBandwidth
from repro.sim.events import Event


class _RefTransfer:
    __slots__ = ("size", "remaining", "cap", "event")

    def __init__(self, nbytes, cap, event):
        self.size = float(nbytes)
        self.remaining = float(nbytes)
        self.cap = cap
        self.event = event


class ReferenceSharedBandwidth:
    """Processor-sharing link, water-filled anew at every use."""

    EPSILON = 1e-6

    def __init__(self, engine, rate, name=None):
        if not (rate > 0) or math.isinf(rate):
            raise SimulationError(f"link rate must be finite and positive, got {rate}")
        self.engine = engine
        self.rate = float(rate)
        self.name = name
        self._active = {}
        self._ids = itertools.count()
        self._last_settled = engine.now
        self._wake_version = 0
        self.bytes_transferred = 0.0
        monitor = engine.monitor
        self._timeline = monitor.register(name, "bandwidth") if monitor is not None else None

    def transfer(self, nbytes, max_rate=None):
        if nbytes < 0:
            raise SimulationError(f"cannot transfer {nbytes} bytes")
        done = Event(self.engine, name=f"xfer:{self.name}")
        if nbytes == 0:
            done.succeed()
            return done
        cap = float("inf") if max_rate is None else float(max_rate)
        if cap <= 0:
            raise SimulationError(f"max_rate must be positive, got {max_rate}")
        self._settle()
        self._active[next(self._ids)] = _RefTransfer(nbytes, cap, done)
        self._reschedule()
        return done

    def _allocations(self):
        allocations = {}
        budget = self.rate
        pending = sorted(self._active.items(), key=lambda item: item[1].cap)
        count = len(pending)
        for transfer_id, transfer in pending:
            share = budget / count
            allocation = min(transfer.cap, share)
            allocations[transfer_id] = allocation
            budget -= allocation
            count -= 1
        return allocations

    def _settle(self):
        now = self.engine.now
        elapsed = now - self._last_settled
        self._last_settled = now
        if elapsed <= 0 or not self._active:
            return
        allocations = self._allocations()
        for transfer_id, transfer in self._active.items():
            transfer.remaining -= allocations[transfer_id] * elapsed

    def _complete_finished(self):
        finished = [
            transfer_id
            for transfer_id, transfer in self._active.items()
            if transfer.remaining <= self.EPSILON
        ]
        for transfer_id in finished:
            transfer = self._active.pop(transfer_id)
            self.bytes_transferred += transfer.size
            transfer.event.succeed()

    def _reschedule(self):
        self._wake_version += 1
        timeline = self._timeline
        if not self._active:
            if timeline is not None:
                timeline.record(self.engine.now, 0, 0, False)
            return
        allocations = self._allocations()
        if timeline is not None:
            saturated = sum(allocations.values()) >= self.rate * (1.0 - 1e-9)
            timeline.record(self.engine.now, len(self._active), 0, saturated)
        next_completion = min(
            transfer.remaining / allocations[transfer_id]
            for transfer_id, transfer in self._active.items()
        )
        version = self._wake_version
        self.engine.call_at(self.engine.now + next_completion, lambda _timer: self._wake(version))

    def _wake(self, version):
        if version != self._wake_version:
            return
        self._settle()
        self._complete_finished()
        self._reschedule()


def _run(link_class, rate, transfers, seed):
    engine = Engine(scheduler=None if seed is None else RandomScheduler(seed))
    engine.monitor = ResourceMonitor(engine)
    link = link_class(engine, rate=rate, name="bus")
    finished = {}

    def client(index, arrival, nbytes, cap):
        yield engine.timeout(arrival)
        yield link.transfer(nbytes, cap)
        finished[index] = engine.now

    for index, spec in enumerate(transfers):
        engine.process(client(index, *spec))
    engine.run()
    timeline = engine.monitor.get("bus")
    return {
        "finished": finished,
        "events": engine.events_processed,
        "bytes": link.bytes_transferred,
        "timeline": (timeline.times, timeline.occupancy, timeline.saturated),
    }


#: A few arrival instants, sizes and caps, so transfers often join together,
#: share a cap, have none, or finish at the same instant under different
#: caps (a cap above the link rate never binds but sorts before no cap).
_transfer = st.tuples(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 3.0)),
    st.one_of(st.just(0.0), st.sampled_from([25.0, 50.0, 100.0]), st.floats(1.0, 500.0)),
    st.one_of(st.none(), st.sampled_from([5.0, 10.0, 40.0, 1000.0]), st.floats(1.0, 200.0)),
)


@given(
    transfers=st.lists(_transfer, min_size=1, max_size=16),
    rate=st.sampled_from([100.0, 333.3]),
    seed=st.one_of(st.none(), st.integers(0, 5)),
)
@settings(max_examples=150, deadline=None)
def test_matches_reference_bit_for_bit(transfers, rate, seed):
    got = _run(SharedBandwidth, rate, transfers, seed)
    want = _run(ReferenceSharedBandwidth, rate, transfers, seed)
    assert got["finished"] == want["finished"]
    assert [t.hex() for t in got["finished"].values()] == [
        t.hex() for t in want["finished"].values()
    ]
    assert got["events"] == want["events"]
    assert got["bytes"].hex() == want["bytes"].hex()
    assert got["timeline"] == want["timeline"]


def test_superseded_wake_stays_queued_without_callback():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    link.transfer(100.0)
    first_wake = link._wake_timer
    assert first_wake._cb0 is not None
    link.transfer(100.0)  # membership change: the first wake is superseded
    assert first_wake._cb0 is None and first_wake._cbs is None
    assert not first_wake.processed
    assert any(entry[2] is first_wake for entry in engine._queue)
    assert link._wake_timer is not first_wake
    engine.run()
    # Both wakes fire (the superseded one through the callback-free lane),
    # and so do the two completions.
    assert first_wake.processed
    assert engine.events_processed == 4
    assert engine.now == 2.0


def test_simultaneous_completions_fire_in_arrival_order():
    # The second transfer's cap sorts it first in the water-fill, but both
    # finish at t=1 and complete in the order they arrived.
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    order = []
    for label, cap in (("uncapped", None), ("capped", 1000.0)):
        link.transfer(50.0, cap).add_callback(lambda _event, label=label: order.append(label))
    engine.run()
    assert order == ["uncapped", "capped"]
    assert engine.now == 1.0
