"""Unit tests for the discrete-event engine core."""

import gc
import weakref

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_clock_custom_start():
    assert Engine(start_time=5.0).now == 5.0


def test_timeout_advances_clock():
    engine = Engine()
    engine.timeout(2.5)
    engine.run()
    assert engine.now == 2.5


def test_run_until_time_stops_early():
    engine = Engine()
    engine.timeout(1.0)
    engine.timeout(10.0)
    engine.run(until=5.0)
    assert engine.now == 5.0


def test_run_until_past_time_raises():
    engine = Engine()
    engine.run(until=3.0)
    with pytest.raises(SimulationError):
        engine.run(until=1.0)


def test_events_fire_in_time_order():
    engine = Engine()
    seen = []
    for delay in (3.0, 1.0, 2.0):
        engine.timeout(delay, value=delay).add_callback(lambda e: seen.append(e.value))
    engine.run()
    assert seen == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_schedule_order():
    engine = Engine()
    seen = []
    for label in "abcd":
        engine.timeout(1.0, value=label).add_callback(lambda e: seen.append(e.value))
    engine.run()
    assert seen == ["a", "b", "c", "d"]


def test_negative_timeout_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.timeout(-0.1)


def test_run_until_event_returns_value():
    engine = Engine()

    def program():
        yield engine.timeout(1.0)
        return 42

    result = engine.run(until=engine.process(program()))
    assert result == 42
    assert engine.now == 1.0


def test_run_until_event_never_fires_is_deadlock():
    engine = Engine()
    orphan = engine.event()

    def program():
        yield orphan

    process = engine.process(program())
    with pytest.raises(DeadlockError):
        engine.run(until=process)


def test_step_on_empty_queue_raises():
    with pytest.raises(DeadlockError):
        Engine().step()


def test_peek_reports_next_event_time():
    engine = Engine()
    assert engine.peek() == float("inf")
    engine.timeout(4.0)
    assert engine.peek() == 4.0


def test_call_at_runs_callback_at_time():
    engine = Engine()
    stamps = []
    engine.call_at(2.0, lambda _timer: stamps.append(engine.now))
    engine.run()
    assert stamps == [2.0]


def test_call_at_in_past_raises():
    engine = Engine(start_time=10.0)
    with pytest.raises(SimulationError):
        engine.call_at(5.0, lambda _timer: None)


def test_events_processed_counter():
    engine = Engine()
    engine.timeout(1.0)
    engine.timeout(2.0)
    engine.run()
    assert engine.events_processed == 2


def test_run_until_event_mid_batch_leaves_rest_queued():
    # Four same-time events; stopping on the second must leave the other
    # two queued (batched popping pushes unfired entries back untouched).
    engine = Engine()
    seen = []
    timers = [engine.timeout(1.0, value=label) for label in "abcd"]
    for timer in timers:
        timer.add_callback(lambda e: seen.append(e.value))
    engine.run(until=timers[1])
    assert seen == ["a", "b"]
    assert engine.events_processed == 2
    assert engine.peek() == 1.0  # c and d still queued at their time
    engine.run()
    assert seen == ["a", "b", "c", "d"]
    assert engine.events_processed == 4


def test_callback_exception_mid_batch_preserves_queue():
    class Boom(Exception):
        pass

    engine = Engine()
    seen = []
    first = engine.timeout(1.0, value="a")
    first.add_callback(lambda e: seen.append(e.value))
    bad = engine.event()
    bad.fail(Boom(), delay=1.0)
    last = engine.timeout(1.0, value="c")
    last.add_callback(lambda e: seen.append(e.value))
    target = engine.timeout(2.0)
    with pytest.raises(Boom):
        engine.run(until=target)
    assert seen == ["a"]  # the raise stopped the batch after "a" and bad
    engine.run()  # "c" went back to the queue with its original key
    assert seen == ["a", "c"]
    assert engine.now == 2.0


def test_callback_scheduled_same_time_event_lands_in_later_batch():
    engine = Engine()
    seen = []

    def chain(event):
        seen.append(event.value)
        engine.timeout(0.0, value="late").add_callback(lambda e: seen.append(e.value))

    engine.timeout(1.0, value="first").add_callback(chain)
    engine.timeout(1.0, value="second").add_callback(lambda e: seen.append(e.value))
    done = engine.timeout(2.0)
    engine.run(until=done)
    # "late" fires at t=1.0 too, but with a later sequence number — after
    # everything scheduled before it, exactly as one-at-a-time stepping.
    assert seen == ["first", "second", "late"]


def test_deadlock_error_names_blocked_processes():
    engine = Engine()
    orphan = engine.event(name="never-fires")

    def waiter():
        yield orphan

    target = engine.process(waiter(), name="stuck-rank3")
    with pytest.raises(DeadlockError) as excinfo:
        engine.run(until=target)
    message = str(excinfo.value)
    assert "stuck-rank3" in message
    assert "never-fires" in message
    assert "blocked forever" in message
    assert "1 process(es)" in message


def test_deadlock_error_lists_every_waiter_and_its_event():
    engine = Engine()
    gates = {name: engine.event(name=f"gate-{name}") for name in ("a", "b")}

    def waiter(name):
        yield gates[name]

    for name in gates:
        engine.process(waiter(name), name=f"proc-{name}")
    done = engine.timeout(1.0)
    engine.run(until=done)  # both processes park on their gates
    with pytest.raises(DeadlockError) as excinfo:
        engine.step()  # queue is now empty, two processes still blocked
    message = str(excinfo.value)
    assert "2 process(es)" in message
    for name in gates:
        assert f"proc-{name}" in message
        assert f"gate-{name}" in message


def test_deadlock_error_excludes_finished_processes():
    engine = Engine()
    orphan = engine.event(name="orphan")

    def quick():
        yield engine.timeout(0.5)

    def stuck():
        yield orphan

    engine.process(quick(), name="finished-fine")
    target = engine.process(stuck(), name="still-waiting")
    with pytest.raises(DeadlockError) as excinfo:
        engine.run(until=target)
    message = str(excinfo.value)
    assert "still-waiting" in message
    assert "finished-fine" not in message


def test_empty_queue_deadlock_without_processes_is_bare():
    with pytest.raises(DeadlockError) as excinfo:
        Engine().step()
    assert "blocked" not in str(excinfo.value)  # nothing to name


def test_process_registry_prunes_dead_processes():
    engine = Engine()

    def quick():
        yield engine.timeout(0.1)

    for index in range(200):
        engine.process(quick(), name=f"p{index}")
        engine.run()
    # Amortized pruning keeps the weak registry from growing one entry per
    # short-lived process forever (the launch loops create thousands).
    assert len(engine._processes) < 200
    assert engine.blocked_processes() == []


def test_determinism_same_program_same_trace():
    def trace_run():
        engine = Engine()
        trace = []

        def worker(ident, delay):
            yield engine.timeout(delay)
            trace.append((engine.now, ident))
            yield engine.timeout(delay * 2)
            trace.append((engine.now, ident))

        for ident in range(5):
            engine.process(worker(ident, 0.5 + ident * 0.25))
        engine.run()
        return trace

    assert trace_run() == trace_run()


NAN = float("nan")


def test_nan_timeout_rejected():
    engine = Engine()
    with pytest.raises(SimulationError, match="nan"):
        engine.timeout(NAN)
    assert engine.peek() == float("inf")


def test_nan_trigger_delay_rejected():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError, match="nan"):
        event.succeed(delay=NAN)
    with pytest.raises(SimulationError, match="nan"):
        event.fail(RuntimeError("boom"), delay=NAN)
    # Nothing was queued and the event can still be triggered.
    assert not event.triggered and engine.peek() == float("inf")
    event.succeed(delay=1.0)
    engine.run()
    assert engine.now == 1.0


def test_nan_deadlines_rejected():
    engine = Engine()
    engine.timeout(1.0)
    with pytest.raises(SimulationError, match="nan"):
        engine.run(until=NAN)
    with pytest.raises(SimulationError, match="nan"):
        engine.call_at(NAN, lambda _timer: None)
    assert engine.now == 0.0


def test_finished_process_is_freed_by_reference_counting():
    # The resume lane attaches a fresh bound method per step and keeps none
    # on the process, so no reference cycle outlives the run.
    engine = Engine()

    def program():
        yield engine.timeout(1.0)
        yield engine.timeout(1.0)
        return "done"

    process = engine.process(program())
    ref = weakref.ref(process)
    gc.disable()
    try:
        engine.run()
        assert process.value == "done"
        del process
        assert ref() is None
    finally:
        gc.enable()
