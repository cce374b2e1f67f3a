"""Property-based tests for the engine's event ordering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimEngine

# A small integer grid so generated schedules hold many equal timestamps.
tied_times = st.lists(
    st.integers(min_value=0, max_value=8).map(float), min_size=1, max_size=100
)


@given(times=tied_times)
@settings(max_examples=60)
def test_pop_order_sorted(times):
    """Firing order is (time, scheduling order) — ties fire FIFO."""
    engine = SimEngine()
    fired = []
    for i, t in enumerate(times):
        engine.schedule(t, lambda i=i: fired.append(i))
    assert engine.run() == len(times)
    oracle = sorted(enumerate(times), key=lambda p: (p[1], p[0]))
    assert fired == [i for i, _t in oracle]


@given(
    times=tied_times,
    cancel_idx=st.lists(st.integers(min_value=0, max_value=99)),
)
@settings(max_examples=60)
def test_cancellation_removes_exactly_those(times, cancel_idx):
    engine = SimEngine()
    fired = []
    handles = [
        engine.schedule(t, lambda i=i: fired.append(i)) for i, t in enumerate(times)
    ]
    cancelled = {i for i in cancel_idx if i < len(handles)}
    for i in cancel_idx:  # repeats included: cancel is idempotent
        if i < len(handles):
            engine.cancel(handles[i])
    assert len(engine) == len(times) - len(cancelled)
    assert engine.run() == len(times) - len(cancelled)
    assert sorted(fired) == sorted(set(range(len(times))) - cancelled)


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50
    ),
    until=st.floats(min_value=0.0, max_value=120.0),
)
@settings(max_examples=60)
def test_run_until_splits_at_the_horizon(times, until):
    engine = SimEngine()
    fired = []
    for t in times:
        engine.schedule(t, lambda t=t: fired.append(t))
    due = sorted(t for t in times if t <= until)
    assert engine.run(until=until) == len(due)
    assert fired == due
    assert len(engine) == len(times) - len(due)
    assert engine.now == until
    engine.run()
    assert fired == sorted(times)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50
    )
)
@settings(max_examples=60)
def test_engine_clock_never_regresses(delays):
    engine = SimEngine()
    observed = []
    for d in delays:
        engine.schedule(d, lambda: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)
    assert engine.now == max(delays)
