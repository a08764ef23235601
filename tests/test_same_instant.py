"""Same-instant ordering of the kernel's ready queue.

The kernel keeps the heap for future events only: pushes for the
current instant go to two FIFOs (URGENT process starts/interrupts, then
NORMAL).  These tests hold it to the order of the single
``(time, priority, seq)`` heap it replaced:

* a property test runs random mixes of ``succeed``, zero and colliding
  ``timeout``/``defer`` delays, delays that round to ``now`` and
  process spawns from inside callbacks, and compares the dispatch
  sequence with a heap-only reference scheduler kept here;
* unit tests pin ``peek()``, ``step()``, ``run(until=t)`` and an
  exception raised mid-instant.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, SimulationError, Timeout
from repro.sim.core import PRIORITY_NORMAL, PRIORITY_URGENT


class RefScheduler:
    """Heap-only reference: one ``(time, priority, seq)`` heap."""

    def __init__(self, now: float):
        self.now = now
        self.heap = []
        self.seq = 0
        self.dispatched = 0

    def push(self, delay: float, priority: int, fn) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, priority, self.seq, fn))

    def run(self) -> None:
        while self.heap:
            self.now, _priority, _seq, fn = heapq.heappop(self.heap)
            self.dispatched += 1
            fn()

    # the operations, as the kernel schedules them
    def succeed(self, fn) -> None:
        self.push(0.0, PRIORITY_NORMAL, fn)

    def timeout(self, delay: float, fn) -> None:
        self.push(delay, PRIORITY_NORMAL, fn)

    defer = timeout

    def spawn(self, delay: float, start, resume, exit_) -> None:
        # Initialize (URGENT) -> body -> yield timeout(delay) -> resume
        # -> the process-exit event (NORMAL, at the resume instant)
        def on_timeout():
            resume()
            self.push(0.0, PRIORITY_NORMAL, exit_)

        def on_start():
            start()
            self.push(delay, PRIORITY_NORMAL, on_timeout)

        self.push(0.0, PRIORITY_URGENT, on_start)


class KernelOps:
    """The same operations on a real :class:`Environment`."""

    def __init__(self, now: float):
        self.env = Environment(initial_time=now)

    @property
    def now(self) -> float:
        return self.env.now

    def succeed(self, fn) -> None:
        event = self.env.event()
        event.callbacks.append(lambda _ev: fn())
        event.succeed()

    def timeout(self, delay: float, fn) -> None:
        self.env.timeout(delay).callbacks.append(lambda _ev: fn())

    def defer(self, delay: float, fn) -> None:
        self.env.defer(delay, fn)

    def spawn(self, delay: float, start, resume, exit_) -> None:
        env = self.env

        def body():
            start()
            yield env.timeout(delay)
            resume()

        env.process(body()).callbacks.append(lambda _ev: exit_())

    def run(self) -> None:
        self.env.run()

    @property
    def dispatched(self) -> int:
        return self.env.events_processed


def replay(ops, program) -> list:
    """Run ``program`` on ``ops``; return the ``(now, path, phase)`` log."""
    log = []

    def perform(node, path):
        kind, delay, children = node

        def phase(name):
            def fire():
                log.append((ops.now, path, name))
                if name == "fire":
                    for i, child in enumerate(children):
                        perform(child, f"{path}.{i}")
            return fire

        if kind == "spawn":
            ops.spawn(delay, phase("fire"), phase("resume"), phase("exit"))
        elif kind == "succeed":
            ops.succeed(phase("fire"))
        else:
            getattr(ops, kind)(delay, phase("fire"))

    for i, node in enumerate(program):
        perform(node, str(i))
    ops.run()
    return log


#: at now = 1e17 the float spacing is 16: delays 1-3 round to ``now``,
#: 16 and 32 are the next instants; at now = 0 every delay is distinct
DELAYS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 16.0, 32.0])
KINDS = st.sampled_from(["succeed", "timeout", "defer", "spawn"])
NODES = st.recursive(
    st.tuples(KINDS, DELAYS, st.just(())),
    lambda children: st.tuples(KINDS, DELAYS,
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=30,
)


@given(start=st.sampled_from([0.0, 1e17]),
       program=st.lists(NODES, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_dispatch_order_matches_heap_only_reference(start, program):
    ref, kernel = RefScheduler(start), KernelOps(start)
    expected = replay(ref, program)
    assert replay(kernel, program) == expected
    assert kernel.dispatched == ref.dispatched
    assert kernel.now == ref.now


def test_delay_that_rounds_to_now_runs_in_this_instant():
    env = Environment(initial_time=1e17)
    log = []
    env.timeout(16.0).callbacks.append(lambda _ev: log.append("next"))
    env.timeout(1.0).callbacks.append(lambda _ev: log.append("rounded"))
    env.defer(2.0, lambda: log.append("deferred"))
    assert env.peek() == 1e17
    env.run()
    assert log == ["rounded", "deferred", "next"]


def test_peek_returns_now_while_same_instant_work_is_pending():
    env = Environment()
    env.timeout(5.0)
    assert env.peek() == 5.0
    event = env.event()
    event.succeed()
    assert env.peek() == 0.0
    env.step()
    assert env.peek() == 5.0
    env.step()
    assert env.peek() == float("inf")


def test_step_crosses_an_instant_in_heap_then_fifo_order():
    env = Environment()
    log = []

    def note(tag):
        def callback(_ev):
            log.append((env.now, tag))
            if tag == "a":
                # pushed at t=1 after b was queued: fires after b
                env.event().succeed().callbacks.append(
                    lambda _ev: log.append((env.now, "a-child")))
        return callback

    env.timeout(1.0).callbacks.append(note("a"))
    env.timeout(1.0).callbacks.append(note("b"))
    env.timeout(2.0).callbacks.append(note("c"))
    steps = []
    while env.peek() != float("inf"):
        env.step()
        steps.append(env.now)
    assert steps == [1.0, 1.0, 1.0, 2.0]
    assert log == [(1.0, "a"), (1.0, "b"), (1.0, "a-child"), (2.0, "c")]
    assert env.events_processed == 4


def test_run_until_drains_the_instant_and_stops_with_fifos_empty():
    env = Environment()
    log = []

    def worker():
        yield env.timeout(5.0)
        log.append(("worker", env.now))
        env.event().succeed().callbacks.append(
            lambda _ev: log.append(("same-instant", env.now)))

    env.process(worker())
    env.timeout(6.0).callbacks.append(lambda _ev: log.append(("late", env.now)))
    env.run(until=5.0)
    assert log == [("worker", 5.0), ("same-instant", 5.0)]
    assert env.now == 5.0
    assert env.peek() == 6.0
    env.run()
    assert log[-1] == ("late", 6.0)


def test_exception_mid_instant_leaves_the_rest_for_the_next_run():
    env = Environment()
    log = []

    def boom(_ev):
        log.append("boom")
        raise RuntimeError("mid-instant")

    env.timeout(1.0).callbacks.append(lambda _ev: log.append("first"))
    env.timeout(1.0).callbacks.append(boom)
    env.timeout(1.0).callbacks.append(lambda _ev: log.append("third"))
    env.timeout(2.0).callbacks.append(lambda _ev: log.append("later"))
    with pytest.raises(RuntimeError, match="mid-instant"):
        env.run()
    assert log == ["first", "boom"]
    assert env.now == 1.0
    assert env.peek() == 1.0
    env.run()
    assert log == ["first", "boom", "third", "later"]
    assert env.events_processed == 4


def test_urgent_push_with_a_delay_is_refused():
    env = Environment()
    with pytest.raises(SimulationError):
        env._schedule(env.event(), PRIORITY_URGENT, 1.0)


def test_timeout_long_form_matches_factory():
    env = Environment()
    log = []
    Timeout(env, 2.0, value="long").callbacks.append(
        lambda ev: log.append((env.now, ev.value)))
    env.timeout(2.0, value="short").callbacks.append(
        lambda ev: log.append((env.now, ev.value)))
    Timeout(env, 0.0).callbacks.append(lambda _ev: log.append((env.now, 0)))
    env.run()
    assert log == [(0.0, 0), (2.0, "long"), (2.0, "short")]
    with pytest.raises(ValueError):
        Timeout(env, -1.0)
    with pytest.raises(ValueError):
        env.timeout(-1.0)
    with pytest.raises(ValueError):
        env.defer(-1.0, lambda: None)
