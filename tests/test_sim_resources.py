"""Unit tests for FIFO and fluid-flow bandwidth resources."""

import pytest

from repro.errors import SimulationError
from repro.obs.monitor import ResourceMonitor, ResourceSample
from repro.sim import Engine, FifoResource, Gate, SharedBandwidth


def monitored_engine():
    engine = Engine()
    engine.monitor = ResourceMonitor(engine)
    return engine


# ---------------------------------------------------------------------------
# FifoResource
# ---------------------------------------------------------------------------


def test_fifo_grants_up_to_capacity_immediately():
    engine = Engine()
    resource = FifoResource(engine, capacity=2)
    first, second, third = resource.request(), resource.request(), resource.request()
    assert first.triggered and second.triggered and not third.triggered
    assert resource.in_use == 2
    assert resource.queued == 1


def test_fifo_release_wakes_waiters_in_order():
    engine = Engine()
    resource = FifoResource(engine, capacity=1)
    order = []

    def worker(ident, hold):
        yield resource.request()
        order.append(("in", ident, engine.now))
        yield engine.timeout(hold)
        resource.release()

    for ident in range(3):
        engine.process(worker(ident, 1.0))
    engine.run()
    assert order == [("in", 0, 0.0), ("in", 1, 1.0), ("in", 2, 2.0)]


def test_fifo_release_when_idle_raises():
    engine = Engine()
    with pytest.raises(SimulationError):
        FifoResource(engine).release()


def test_fifo_capacity_validation():
    with pytest.raises(SimulationError):
        FifoResource(Engine(), capacity=0)


def test_fifo_use_helper_holds_for_duration():
    engine = Engine()
    resource = FifoResource(engine, capacity=1)
    spans = []

    def worker(ident):
        start = engine.now
        yield from resource.use(2.0)
        spans.append((ident, start, engine.now))

    engine.process(worker("a"))
    engine.process(worker("b"))
    engine.run()
    # Second worker enters only after the first's 2s hold.
    assert spans[0][2] == 2.0
    assert spans[1][2] == 4.0


# ---------------------------------------------------------------------------
# SharedBandwidth (processor sharing)
# ---------------------------------------------------------------------------


def test_single_transfer_takes_size_over_rate():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    done = link.transfer(250.0)
    engine.run(until=done)
    assert engine.now == pytest.approx(2.5)


def test_zero_byte_transfer_completes_instantly():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    done = link.transfer(0)
    assert done.triggered
    engine.run(until=done)
    assert engine.now == 0.0


def test_two_equal_transfers_share_rate_equally():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    first = link.transfer(100.0)
    second = link.transfer(100.0)
    engine.run(until=engine.all_of([first, second]))
    # Each gets 50 B/s, so both finish at t=2 (not t=1).
    assert engine.now == pytest.approx(2.0)


def test_late_joiner_slows_existing_transfer():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    finish_times = {}

    def start_late():
        yield engine.timeout(0.5)
        done = link.transfer(100.0)
        yield done
        finish_times["late"] = engine.now

    def start_now():
        done = link.transfer(100.0)
        yield done
        finish_times["early"] = engine.now

    engine.process(start_now())
    engine.process(start_late())
    engine.run()
    # Early: 50 bytes alone in 0.5s, then shares; both have 100 resp. 50+? —
    # early has 50 left, late has 100; early finishes at 0.5 + 50/50 = 1.5,
    # then late has 50 left at full rate: 1.5 + 0.5 = 2.0.
    assert finish_times["early"] == pytest.approx(1.5)
    assert finish_times["late"] == pytest.approx(2.0)


def test_per_transfer_cap_limits_rate_on_idle_link():
    engine = Engine()
    link = SharedBandwidth(engine, rate=1000.0)
    done = link.transfer(100.0, max_rate=10.0)
    engine.run(until=done)
    assert engine.now == pytest.approx(10.0)


def test_water_filling_gives_leftover_to_uncapped():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    capped = link.transfer(10.0, max_rate=10.0)  # uses 10 B/s
    free = link.transfer(90.0)  # gets the remaining 90 B/s
    engine.run(until=engine.all_of([capped, free]))
    assert engine.now == pytest.approx(1.0)


def test_bytes_transferred_accounting():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    link.transfer(30.0)
    link.transfer(70.0)
    engine.run()
    assert link.bytes_transferred == pytest.approx(100.0)


def test_many_concurrent_transfers_fair_share():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    events = [link.transfer(10.0) for _ in range(10)]
    engine.run(until=engine.all_of(events))
    # 10 transfers × 10 bytes at 10 B/s each → all complete at t=1.
    assert engine.now == pytest.approx(1.0)


def test_negative_transfer_rejected():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    with pytest.raises(SimulationError):
        link.transfer(-1.0)


def test_invalid_rates_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        SharedBandwidth(engine, rate=0.0)
    with pytest.raises(SimulationError):
        SharedBandwidth(engine, rate=float("inf"))
    link = SharedBandwidth(engine, rate=1.0)
    with pytest.raises(SimulationError):
        link.transfer(1.0, max_rate=0.0)


def test_sequential_transfers_reuse_link_cleanly():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)

    def program():
        yield link.transfer(100.0)
        mid = engine.now
        yield link.transfer(100.0)
        return (mid, engine.now)

    mid, end = engine.run(until=engine.process(program()))
    assert mid == pytest.approx(1.0)
    assert end == pytest.approx(2.0)


def test_water_filling_fairness_under_mixed_caps():
    # Rate 100 split over caps [10, inf, inf]: the capped transfer takes its
    # 10, the two uncapped ones share the remaining 90 equally.
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    link.transfer(1000.0, max_rate=10.0)
    link.transfer(1000.0)
    link.transfer(1000.0)
    assert sorted(transfer.rate for transfer in link._active) == pytest.approx([10.0, 45.0, 45.0])


def test_water_filling_pays_tight_caps_first():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    link.transfer(1000.0, max_rate=10.0)
    link.transfer(1000.0, max_rate=20.0)
    link.transfer(1000.0)
    # Caps below the equal share are paid out in full; the uncapped transfer
    # absorbs everything they leave on the table (not just 100/3).
    assert sorted(transfer.rate for transfer in link._active) == pytest.approx([10.0, 20.0, 70.0])


def test_mixed_cap_transfers_complete_at_fair_share_times():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    done = [
        link.transfer(20.0, max_rate=10.0),  # 20 bytes at 10 B/s -> t=2
        link.transfer(90.0),                 # 90 bytes at 45 B/s -> t=2
        link.transfer(90.0),
    ]
    engine.run(until=engine.all_of(done))
    assert engine.now == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Occupancy timelines (ResourceMonitor hooks)
# ---------------------------------------------------------------------------


def test_fifo_timeline_tracks_queue_depth_through_request_release():
    engine = monitored_engine()
    resource = FifoResource(engine, capacity=1, name="dma")

    def worker(hold):
        yield resource.request()
        yield engine.timeout(hold)
        resource.release()

    for _ in range(3):
        engine.process(worker(1.0))
    engine.run()
    timeline = engine.monitor.get("dma")
    assert timeline.kind == "fifo"
    # Three simultaneous requests at t=0 coalesce into one sample; each
    # release pops exactly one waiter; the final release idles the slot.
    assert timeline.samples == [
        ResourceSample(0.0, 1, 2, True),
        ResourceSample(1.0, 1, 1, True),
        ResourceSample(2.0, 1, 0, True),
        ResourceSample(3.0, 0, 0, False),
    ]
    assert timeline.max_occupancy() == 1
    assert timeline.max_queued() == 2
    assert timeline.queued_seconds(0.0, 3.0) == pytest.approx(2.0)
    # A single-slot resource is never *contended* (needs >= 2 sharers).
    assert timeline.contended_seconds(0.0, 3.0) == 0.0


def test_fifo_use_releases_on_exception():
    engine = monitored_engine()
    resource = FifoResource(engine, capacity=1, name="dma")
    holder = resource.use(5.0)
    grant = next(holder)
    assert grant.triggered and resource.in_use == 1
    holder.send(None)  # advance past the grant, into the timed hold
    # An exception thrown into the holding generator must still release.
    with pytest.raises(RuntimeError):
        holder.throw(RuntimeError("interrupted"))
    assert resource.in_use == 0
    timeline = engine.monitor.get("dma")
    assert timeline.samples[-1] == ResourceSample(0.0, 0, 0, False)
    with pytest.raises(SimulationError):
        resource.release()


def test_bandwidth_timeline_saturation_requires_full_rate():
    engine = monitored_engine()
    link = SharedBandwidth(engine, rate=100.0, name="bus")
    done = [link.transfer(20.0, max_rate=10.0), link.transfer(90.0)]
    engine.run(until=engine.all_of(done))
    timeline = engine.monitor.get("bus")
    assert timeline.kind == "bandwidth"
    # 10 + 90 consumes the whole link: saturated with two sharers until the
    # uncapped transfer drains at t=1, then the capped one runs alone (10 of
    # 100 B/s — not saturated) until t=2.
    assert timeline.samples == [
        ResourceSample(0.0, 2, 0, True),
        ResourceSample(1.0, 1, 0, False),
        ResourceSample(2.0, 0, 0, False),
    ]
    assert timeline.contended_seconds(0.0, 2.0) == pytest.approx(1.0)


def test_bandwidth_timeline_undersubscribed_caps_not_saturated():
    # Two sharers whose caps sum below the link rate: occupancy 2 but the
    # link is NOT saturated — no false bandwidth-contention signal.
    engine = monitored_engine()
    link = SharedBandwidth(engine, rate=100.0, name="bus")
    done = [link.transfer(10.0, max_rate=10.0), link.transfer(10.0, max_rate=10.0)]
    engine.run(until=engine.all_of(done))
    timeline = engine.monitor.get("bus")
    assert timeline.samples[0] == ResourceSample(0.0, 2, 0, False)
    assert timeline.contended_seconds(0.0, 1.0) == 0.0


def test_gate_timeline_records_parked_waiters():
    engine = monitored_engine()
    gate = Gate(engine, name="intr")

    def waiter():
        yield gate.wait()

    def opener():
        yield engine.timeout(3.0)
        gate.open()

    engine.process(waiter())
    engine.process(opener())
    engine.run()
    timeline = engine.monitor.get("intr")
    assert timeline.kind == "gate"
    assert timeline.samples == [
        ResourceSample(0.0, 0, 1, False),
        ResourceSample(3.0, 1, 0, False),
    ]
    assert timeline.queued_seconds(0.0, 3.0) == pytest.approx(3.0)


def test_timeline_same_time_update_back_to_previous_state_coalesces():
    # A@0, B@1, then A@1: the same-time update restores the state before B,
    # so the B sample goes away instead of leaving a redundant A@1.
    timeline = ResourceMonitor(Engine()).register("bus", "bandwidth")
    timeline.record(0.0, 1, 0, False)
    timeline.record(1.0, 2, 0, True)
    timeline.record(1.0, 1, 0, False)
    assert timeline.samples == [ResourceSample(0.0, 1, 0, False)]
    # A later transition still appends normally.
    timeline.record(2.0, 0, 0, False)
    assert timeline.samples == [
        ResourceSample(0.0, 1, 0, False),
        ResourceSample(2.0, 0, 0, False),
    ]
    # A same-time update to a new state replaces the last sample.
    timeline.record(2.0, 3, 1, True)
    assert timeline.samples[-1] == ResourceSample(2.0, 3, 1, True)
    assert len(timeline) == 2


def test_unmonitored_resources_record_nothing():
    engine = Engine()
    resource = FifoResource(engine, capacity=1, name="dma")
    resource.request()
    resource.release()
    assert engine.monitor is None
    assert resource._timeline is None


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------


def test_gate_open_passes_immediately():
    engine = Engine()
    gate = Gate(engine, open=True)
    passed = gate.wait()
    assert passed.triggered


def test_gate_closed_blocks_until_open():
    engine = Engine()
    gate = Gate(engine)
    times = []

    def waiter():
        yield gate.wait()
        times.append(engine.now)

    def opener():
        yield engine.timeout(3.0)
        gate.open()

    engine.process(waiter())
    engine.process(opener())
    engine.run()
    assert times == [3.0]


def test_gate_close_only_affects_future_waiters():
    engine = Engine()
    gate = Gate(engine, open=True)
    assert gate.wait().triggered
    gate.close()
    blocked = gate.wait()
    assert not blocked.triggered
    gate.open()
    assert blocked.triggered


def test_non_finite_transfer_rejected():
    engine = Engine()
    link = SharedBandwidth(engine, rate=100.0)
    for nbytes in (float("nan"), float("inf")):
        with pytest.raises(SimulationError, match=f"{nbytes}"):
            link.transfer(nbytes)
    with pytest.raises(SimulationError, match="nan"):
        link.transfer(1.0, max_rate=float("nan"))
    assert link.active_transfers == 0 and engine.peek() == float("inf")
