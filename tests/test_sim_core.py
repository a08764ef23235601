"""Tests for the discrete-event kernel (repro.sim.core)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Store,
)


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_custom_start():
    assert Environment(5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(10)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [10.0]


def test_timeout_value_delivered():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1, value="hello")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_negative_defer_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(ValueError):
        env.defer(-5, lambda: None)
    # nothing was scheduled, so the clock cannot move backwards
    assert env.peek() == float("inf")
    env.run()
    assert env.now == 10.0


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(30, "c"))
    env.process(proc(10, "a"))
    env.process(proc(20, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def _workload(env, delays, log):
    """Sleepers plus AnyOf races whose slow timeout is abandoned."""

    def sleeper(i, delay):
        yield env.timeout(delay)
        log.append((env.now, "sleep", i))

    def racer(i, fast, slow):
        # The slow timeout loses the race and fires later with no
        # consumer: the kernel-level shape of a guard the ack beat.
        yield AnyOf(env, [env.timeout(fast), env.timeout(slow)])
        log.append((env.now, "race", i))

    for i, delay in enumerate(delays):
        env.process(sleeper(i, delay), name=f"s{i}")
        env.process(racer(i, delay, delay + 0.25), name=f"r{i}")


def _run_stepwise(env):
    """Drain ``env`` one ``step()`` at a time, asserting the clock never
    goes backwards."""
    while env.peek() != float("inf"):
        before = env.now
        env.step()
        assert env.now >= before


# Tie-heavy delay pool: repeated values make same-time FIFO ordering
# carry most of the outcome.
@given(st.lists(st.sampled_from([0.0, 1.0, 1.0, 7.5, 31.9, 32.0, 33.0,
                                 64.0, 64.0, 97.1]),
                min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_same_time_events_fifo(delays):
    runs = []
    for drain in (Environment.run, _run_stepwise):
        env = Environment()
        log = []
        _workload(env, delays, log)
        drain(env)
        runs.append((log, env.events_processed, env.now))
    (log, events, end), replay = runs
    assert replay == runs[0]
    assert [when for when, *_ in log] == sorted(when for when, *_ in log)
    # Sleepers (and racers) sharing a delay log in creation order.
    for kind in ("sleep", "race"):
        for delay in set(delays):
            same = [i for _, k, i in log if k == kind and delays[i] == delay]
            assert same == sorted(same)
    # Each sleeper is 3 events (start, timeout, exit) and each racer 5
    # (start, two timeouts, AnyOf, exit): the abandoned slow timeouts
    # are processed too, and they set the final clock.
    assert events == 8 * len(delays)
    assert end == max(delays) + 0.25


def test_manual_event_succeed():
    env = Environment()
    event = env.event()
    got = []

    def waiter():
        value = yield event
        got.append((env.now, value))

    def trigger():
        yield env.timeout(7)
        event.succeed(42)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [(7.0, 42)]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()
    caught = []

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        event.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_before_trigger_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(3)
        return "result"

    def parent(got):
        value = yield env.process(child())
        got.append(value)

    got = []
    env.process(parent(got))
    env.run()
    assert got == ["result"]


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise ValueError("child failed")

    def parent(got):
        try:
            yield env.process(child())
        except ValueError as exc:
            got.append(str(exc))

    got = []
    env.process(parent(got))
    env.run()
    assert got == ["child failed"]


def test_unhandled_process_failure_aborts_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(bad())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_yield_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_run_until_time():
    env = Environment()
    log = []

    def proc():
        while True:
            yield env.timeout(10)
            log.append(env.now)

    env.process(proc())
    env.run(until=35)
    assert log == [10.0, 20.0, 30.0]
    assert env.now == 35.0


def test_run_until_past_rejected():
    env = Environment()
    env.process((env.timeout(1) for _ in range(1)))
    env.run(until=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event():
    env = Environment()

    def child():
        yield env.timeout(12)
        return "done"

    assert env.run(until=env.process(child())) == "done"
    assert env.now == 12.0


def _stop_with_same_time_event_queued(env):
    # The stop event fires while a same-time event is still queued:
    # run() returns at once and leaves that event pending.
    log = []
    stop = env.timeout(5, value="stop")
    env.timeout(5).callbacks.append(lambda _ev: log.append(env.now))
    assert env.run(until=stop) == "stop"
    assert env.now == 5.0
    assert env.peek() == env.now
    assert log == []
    env.run()
    assert log == [5.0]


def _stop_on_put_admitted_without_heap_trip(env):
    # A put on a full store is admitted synchronously by the get that
    # frees a slot (no heap entry of its own): run() returns after the
    # dispatch that admitted it, at the admitting time.
    store = Store(env, capacity=1)
    store.put_nowait("a")
    put = store.put("b")

    def consumer():
        yield env.timeout(7)
        assert (yield store.get()) == "a"
        yield env.timeout(1)

    env.process(consumer())
    assert env.run(until=put) is None
    assert put.processed
    assert env.now == 7.0
    assert list(store.items) == ["b"]
    assert env.peek() == 8.0


def _stop_event_fails(env):
    # A failing stop event raises its exception at its fire time.
    stop = env.event()

    def failer():
        yield env.timeout(3)
        stop.fail(RuntimeError("boom"))

    env.process(failer())
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=stop)
    assert env.now == 3.0


@pytest.mark.parametrize("case", [
    _stop_with_same_time_event_queued,
    _stop_on_put_admitted_without_heap_trip,
    _stop_event_fails,
], ids=["same_time_event_queued", "put_admitted_synchronously",
        "stop_event_fails"])
def test_run_until_event_stop_point(case):
    case(Environment())


def test_run_until_event_never_fires():
    env = Environment()
    with pytest.raises(SimulationError):
        env.run(until=env.event())


def test_interrupt_waiting_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(proc):
        yield env.timeout(5)
        proc.interrupt("wake up")

    proc = env.process(sleeper())
    env.process(interrupter(proc))
    env.run()
    assert log == [(5.0, "wake up")]


def test_interrupt_terminated_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(10)
        log.append(env.now)

    def interrupter(proc):
        yield env.timeout(5)
        proc.interrupt()

    proc = env.process(sleeper())
    env.process(interrupter(proc))
    env.run()
    assert log == [15.0]


def test_any_of_fires_on_first():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(10, value="fast")
        t2 = env.timeout(20, value="slow")
        result = yield AnyOf(env, [t1, t2])
        log.append((env.now, t1 in result, t2 in result))

    env.process(proc())
    env.run()
    assert log == [(10.0, True, False)]


def test_all_of_waits_for_all():
    env = Environment()
    log = []

    def proc():
        result = yield AllOf(env, [env.timeout(10), env.timeout(25)])
        log.append((env.now, len(result)))

    env.process(proc())
    env.run()
    assert log == [(25.0, 2)]


def test_empty_condition_fires_immediately():
    env = Environment()
    log = []

    def proc():
        yield AllOf(env, [])
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [0.0]


def test_defer_runs_callback():
    env = Environment()
    log = []
    env.defer(5, lambda: log.append(env.now))
    env.defer(2, lambda: log.append(env.now))
    env.run()
    assert log == [2.0, 5.0]


def test_completed_event_resumes_synchronously():
    env = Environment()
    log = []

    def proc():
        value = yield env.completed_event("instant")
        log.append((env.now, value))
        yield env.timeout(1)
        log.append((env.now, "after"))

    env.process(proc())
    env.run()
    assert log == [(0.0, "instant"), (1.0, "after")]


def test_peek_and_step():
    env = Environment()
    env.process((env.timeout(5) for _ in range(1)))
    # process initialization event is immediate
    assert env.peek() == 0.0
    env.step()
    assert env.peek() == 5.0


def test_step_without_events_is_error():
    with pytest.raises(SimulationError):
        Environment().step()


def test_determinism_same_seed_same_trace():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(i):
            for step in range(3):
                yield env.timeout(1 + (i * 7 + step) % 5)
                trace.append((env.now, i, step))

        for i in range(5):
            env.process(worker(i))
        env.run()
        return trace

    assert build_and_run() == build_and_run()
