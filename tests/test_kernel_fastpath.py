"""Fast-path kernel tests: event values and retained memory.

Every kernel event is allocated when it is created and freed by
reference counting once nothing holds it.  These tests pin down two
consequences: each event keeps its own value, whether or not user
code holds on to it, and steady-state churn (timeouts,
immediately-completed events, ``defer`` callbacks, store ping-pong)
retains no memory in the sim modules after a collection.
"""

import gc
import tracemalloc
import weakref

from repro.sim import Environment, Store
from repro.sim import core as sim_core
from repro.sim import resources as sim_resources

SIM_FILES = (sim_core.__file__, sim_resources.__file__)


def _sim_growth(snap_before, snap_after) -> int:
    """Net bytes allocated in the sim modules between two snapshots."""
    stats = snap_after.compare_to(snap_before, "filename")
    return sum(s.size_diff for s in stats
               if s.traceback[0].filename in SIM_FILES)


def _steady_state_workload(env: Environment, rounds: int):
    """One process exercising every fast-path event shape."""
    store = Store(env, name="ss")

    def proc():
        for i in range(rounds):
            yield env.timeout(1.0)
            yield env.completed_event(i)
            env.defer(0.5, lambda: None)
            store.put_nowait(i)
            yield store.get()

    return env.process(proc(), name="steady")


class TestObjectReuse:
    def test_recycled_timeout_values_are_reset(self):
        env = Environment()
        values = []

        def proc():
            values.append((yield env.timeout(1.0, value="first")))
            # A later timeout must not see the previous one's value.
            values.append((yield env.timeout(1.0)))

        env.process(proc(), name="v")
        env.run()
        assert values == ["first", None]

    def test_held_event_is_not_recycled(self):
        env = Environment()
        held = []

        def proc():
            t = env.timeout(1.0, value="keep")
            held.append(t)  # an external reference pins the object
            yield t
            yield env.timeout(1.0)

        env.process(proc(), name="h")
        env.run()
        # The held timeout keeps its value after it fired and after
        # later timeouts were created and fired.
        assert held[0].value == "keep"


class TestProcessLifetime:
    def test_terminated_process_is_freed_without_the_collector(self):
        # A process caches its resume callback (a bound method: a
        # reference cycle) while it runs; termination must break the
        # cycle so reference counting alone frees the process.
        class Result:
            pass

        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return Result()

        process = env.process(proc(), name="p")
        gc.disable()
        try:
            env.run()
            result = weakref.ref(process.value)
            del process
            assert result() is None
        finally:
            gc.enable()


class TestSteadyStateAllocation:
    def test_steady_state_loop_does_not_grow_sim_allocations(self):
        env = Environment()
        # Warm any lazy caches first.
        _steady_state_workload(env, 2_000)
        env.run()

        gc.collect()
        tracemalloc.start()
        snap1 = tracemalloc.take_snapshot()
        _steady_state_workload(env, 20_000)
        env.run()
        gc.collect()
        snap2 = tracemalloc.take_snapshot()
        tracemalloc.stop()

        growth = _sim_growth(snap1, snap2)
        # 20k rounds x (Timeout + completed event + defer + store get)
        # allocate ~80k event objects (> 5 MB) if any of them were
        # retained.  Steady state must stay flat; allow a page of noise
        # for caches.
        assert growth < 16_384, f"sim modules grew {growth} bytes"

