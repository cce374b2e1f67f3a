"""Unit tests for the discrete-event engine (clock, queue and loop in one)."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimEngine


def test_starts_at_zero():
    assert SimEngine().now == 0.0


def test_custom_start():
    engine = SimEngine(start=12.5)
    assert engine.now == 12.5
    with pytest.raises(SimulationError):
        engine.schedule(12.0, lambda: None)


def test_negative_start_rejected():
    with pytest.raises(SimulationError):
        SimEngine(start=-1.0)


def test_run_executes_in_time_order():
    engine = SimEngine()
    log = []
    engine.schedule(2.0, lambda: log.append("b"))
    engine.schedule(1.0, lambda: log.append("a"))
    engine.run()
    assert log == ["a", "b"]


def test_fifo_for_equal_times():
    engine = SimEngine()
    log = []
    for i in range(10):
        engine.schedule(5.0, lambda i=i: log.append(i))
    engine.run()
    assert log == list(range(10))


def test_clock_advances_with_events():
    engine = SimEngine()
    times = []
    engine.schedule(1.5, lambda: times.append(engine.now))
    engine.schedule(4.0, lambda: times.append(engine.now))
    engine.run()
    assert times == [1.5, 4.0]
    assert engine.now == 4.0


def test_schedule_in_is_relative():
    engine = SimEngine()
    seen = []
    engine.schedule(10.0, lambda: engine.schedule_in(5.0, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [15.0]


def test_schedule_into_past_rejected():
    engine = SimEngine()
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(4.0, lambda: None)
    engine.schedule(5.0, lambda: None)  # the present is not the past


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        SimEngine().schedule_in(-1.0, lambda: None)


def test_callbacks_can_schedule_more_events():
    engine = SimEngine()
    log = []

    def chain(n):
        log.append(n)
        if n < 3:
            engine.schedule_in(1.0, lambda: chain(n + 1))

    engine.schedule(0.0, lambda: chain(0))
    executed = engine.run()
    assert log == [0, 1, 2, 3]
    assert executed == 4


def test_run_until_stops_before_later_events():
    engine = SimEngine()
    log = []
    engine.schedule(1.0, lambda: log.append(1))
    engine.schedule(5.0, lambda: log.append(5))
    engine.schedule(10.0, lambda: log.append(10))
    assert engine.run(until=5.0) == 2
    assert log == [1, 5]  # t <= until runs, t > until does not
    assert len(engine) == 1  # ... and stays queued
    assert engine.now == 5.0
    assert engine.run(until=7.0) == 0
    assert engine.now == 7.0  # clock advanced to the horizon
    assert engine.run() == 1
    assert log == [1, 5, 10]
    assert engine.now == 10.0


def test_run_until_never_moves_the_clock_back():
    engine = SimEngine()
    engine.schedule(8.0, lambda: None)
    engine.run()
    assert engine.run(until=3.0) == 0
    assert engine.now == 8.0


def test_len_tracks_live_events():
    engine = SimEngine()
    handles = [engine.schedule(float(i), lambda: None) for i in range(4)]
    assert len(engine) == 4
    engine.cancel(handles[0])
    assert len(engine) == 3
    engine.run(until=1.0)
    assert len(engine) == 2
    engine.run()
    assert len(engine) == 0


def test_cancel_prevents_execution():
    engine = SimEngine()
    log = []
    first = engine.schedule(1.0, lambda: log.append("first"))
    engine.schedule(2.0, lambda: log.append("second"))
    engine.cancel(first)
    assert engine.run() == 1
    assert log == ["second"]
    assert engine.events_processed == 1


def test_double_cancel_is_idempotent():
    engine = SimEngine()
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.cancel(handle)
    engine.cancel(handle)
    assert len(engine) == 1


def test_cancel_after_firing_is_a_no_op():
    engine = SimEngine()
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.run(until=1.0)
    engine.cancel(handle)
    assert len(engine) == 1
    assert engine.run() == 1


def test_events_processed_counter():
    engine = SimEngine()
    for i in range(5):
        engine.schedule(float(i), lambda: None)
    engine.run()
    assert engine.events_processed == 5


def test_reentrant_run_rejected():
    engine = SimEngine()
    errors = []

    def nested():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.schedule(1.0, nested)
    engine.run()
    assert len(errors) == 1


def test_run_usable_again_after_a_callback_raises():
    engine = SimEngine()
    log = []

    def boom():
        raise RuntimeError("boom")

    engine.schedule(1.0, boom)
    engine.schedule(2.0, lambda: log.append(2))
    with pytest.raises(RuntimeError):
        engine.run()
    assert engine.run() == 1
    assert log == [2]


# -- entries that carry their action's argument --------------------------------


def test_equal_time_entries_with_and_without_an_argument_fire_in_scheduling_order():
    engine = SimEngine()
    log = []
    engine.schedule(3.0, log.append, "a")
    engine.schedule(3.0, lambda: log.append("b"))
    engine.schedule(3.0, log.append, None)  # None is an argument like any other
    engine.schedule(1.0, log.append, "first")
    engine.schedule(3.0, lambda: log.append("d"))
    engine.schedule(3.0, log.append, "e")
    assert engine.run() == 6
    assert log == ["first", "a", "b", None, "d", "e"]


def test_cancel_an_entry_that_carries_an_argument():
    engine = SimEngine()
    log = []
    handle = engine.schedule(1.0, log.append, "cancelled")
    engine.schedule(1.0, log.append, "kept")
    engine.cancel(handle)
    engine.cancel(handle)  # idempotent
    assert len(engine) == 1
    assert engine.run() == 1
    assert log == ["kept"]
    assert engine.events_processed == 1


def test_len_counts_entries_that_carry_an_argument():
    engine = SimEngine()
    log = []
    engine.schedule(1.0, log.append, 1)
    engine.schedule(2.0, lambda: None)
    engine.schedule(3.0, log.append, 3)
    assert len(engine) == 3
    engine.run(until=2.0)
    assert len(engine) == 1
    engine.run()
    assert len(engine) == 0
    assert log == [1, 3]


def test_engine_usable_after_an_action_with_an_argument_raises():
    engine = SimEngine()
    log = []

    def boom(arg):
        raise RuntimeError(arg)

    engine.schedule(1.0, boom, "boom")
    engine.schedule(2.0, log.append, 2)
    with pytest.raises(RuntimeError, match="boom"):
        engine.run()
    assert engine.now == 1.0
    assert len(engine) == 1
    assert engine.run() == 1
    assert log == [2]
    engine.schedule(3.0, log.append, 3)  # the reentrancy guard was released
    assert engine.run() == 1
    assert log == [2, 3]
