"""Discrete-event simulation kernel.

This module is the substrate for the entire Palladium reproduction: a
compact, deterministic, generator-based discrete-event engine in the
style of SimPy.  Simulated time is a ``float`` whose unit is
*microseconds* throughout the repository (the natural scale for RDMA
and DPU data-plane events; see :mod:`repro.config`).

The programming model:

* An :class:`Environment` owns the simulation clock and the event heap.
* A *process* is a Python generator that ``yield``\\ s :class:`Event`
  objects; the process is resumed when the yielded event fires.
* :meth:`Environment.timeout` creates an event that fires after a fixed
  delay; :meth:`Environment.event` creates a manually-triggered event.
* Processes are themselves events (they fire when the generator
  returns), so processes can wait on each other.
* A process can be interrupted with :meth:`Process.interrupt`, which
  raises :class:`Interrupt` inside the generator.

Determinism: events scheduled for the same instant fire in FIFO order
of scheduling (urgent process starts and interrupts first), so
repeated runs with the same seed produce identical traces.

Ready queue (see docs/PERFORMANCE.md, "Kernel design"): the heap holds
only the future.  A push for the current instant (``succeed``/``fail``,
a process exit, a zero-delay ``timeout``/``defer``, any delay that
rounds to ``now``) appends the bare event to a same-instant FIFO: the
URGENT deque for process starts and interrupts, the NORMAL deque for
everything else.  Only a push for a later time takes a sequence number
(``eid``) and enters the :mod:`heapq` heap as a ``(time, eid, event)``
tuple.  The run loop takes URGENT first, then NORMAL, then the heap;
when the clock advances to T it moves every heap entry at exactly T,
in heap order, onto the NORMAL deque.  That is the order of a single
``(time, priority, eid)`` heap: entries at T were pushed before the
clock reached T, so they precede every push made at T, and URGENT
pushes are only ever made for the current instant.

:meth:`Environment.run` drains the queues in one inlined loop that runs
callbacks directly rather than paying a ``step()`` +
``_run_callbacks()`` call per event.  A time bound stops the loop
before the first later heap entry (both FIFOs are then empty); an
event bound is checked after each dispatch.  Every event has one
lifecycle: it is allocated when created or scheduled, fires once
(``callbacks`` becomes ``None``: the event is *processed*), and is
freed by reference counting like any other Python object.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "AnyOf",
    "AllOf",
]

#: Normal event priority.  Lower values fire earlier at the same time.
PRIORITY_NORMAL = 1
#: Urgent priority, used internally so a process start or interrupt
#: happens before same-time normal events.  Only ever scheduled for the
#: current instant.
PRIORITY_URGENT = 0

_new = object.__new__


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait for.

    An event can *succeed* (carrying a value) or *fail* (carrying an
    exception).  Callbacks registered on the event run when it fires.
    Waiting on a failed event re-raises its exception inside the
    waiting process unless the event is ``defused``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: callbacks to run when the event fires; None once processed
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        #: if True, an un-waited-for failure does not abort the run
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with."""
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.env._push_now(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env._push_now(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror the outcome of another (already fired) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- internal ------------------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        if not self._ok and not self.defused:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    :meth:`Environment.timeout` builds one in a single frame; this
    constructor is the equivalent long form.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self.defused = False
        env._schedule(self, PRIORITY_NORMAL, delay)


class _Deferred(Event):
    """Internal: a fire-and-forget callback (``Environment.defer``).

    Never escapes the kernel (``defer()`` returns ``None``), so only
    two slots are ever set: ``callbacks = None`` marks it for the run
    loop, which calls the callback held in ``fn`` (no closure, no
    callbacks list).
    """

    __slots__ = ("fn",)

    def _run_callbacks(self) -> None:
        self.fn()


class Initialize(Event):
    """Internal: kicks off a newly created process (URGENT)."""

    __slots__ = ()


class Process(Event):
    """A running process; fires (as an event) when its generator returns.

    The value of the process-event is the generator's return value.  If
    the generator raises, the process-event fails with that exception.
    """

    __slots__ = ("_generator", "_target", "_resume_cb", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self.defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: event this process is currently waiting on
        self._target: Optional[Event] = None
        #: the bound resume callback, built once; cleared on termination
        #: so the process does not outlive itself in a reference cycle
        self._resume_cb = self._resume
        init = Initialize(env)
        init.callbacks.append(self._resume_cb)
        init._triggered = True
        env._push_urgent(init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time."""
        if self._triggered:
            raise SimulationError(f"cannot interrupt terminated process {self.name}")
        if self._target is None:
            raise SimulationError(f"cannot interrupt uninitialized process {self.name}")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._triggered = True
        event.defused = True
        # Detach from the current target so its eventual firing is ignored,
        # and resume immediately with the interrupt.
        target = self._target
        resume = self._resume_cb
        if target.callbacks is not None and resume in target.callbacks:
            target.callbacks.remove(resume)
        self._target = None
        event.callbacks = [resume]
        self.env._schedule(event, PRIORITY_URGENT, 0.0)

    # -- internal ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The exception is being delivered; mark it handled.
                    event.defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._target = self._resume_cb = None
                env._active_process = None
                self._ok = True
                self._value = exc.value
                self._triggered = True
                env._push_now(self)
                return
            except BaseException as exc:
                self._target = self._resume_cb = None
                env._active_process = None
                self._ok = False
                self._value = exc
                self._triggered = True
                env._push_now(self)
                return

            try:
                if next_event.env is not env:
                    raise SimulationError(
                        "cannot wait on an event from another environment")
                callbacks = next_event.callbacks
            except AttributeError:
                # Not an event: deliver the error into the generator.
                event = Event(env)
                event._ok = False
                event._value = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                event._triggered = True
                continue

            if callbacks is not None:
                # Not yet processed: register and suspend.
                callbacks.append(self._resume_cb)
                self._target = next_event
                break
            # Already processed: loop and deliver its outcome synchronously.
            event = next_event

        env._active_process = None


class ConditionValue:
    """Ordered mapping of events to values produced by condition events."""

    __slots__ = ("events", "_event_ids")

    def __init__(self, events: List[Event]):
        self.events = events
        # Identity set for O(1) membership (events are compared by
        # identity, never by value), built lazily on first lookup so
        # conditions that only read ``values()`` never pay for it.
        self._event_ids = None

    def _ids(self) -> set:
        ids = self._event_ids
        if ids is None:
            ids = self._event_ids = {id(event) for event in self.events}
        return ids

    def __getitem__(self, event: Event) -> Any:
        if id(event) not in self._ids():
            raise KeyError(event)
        return event._value

    def __contains__(self, event: Event) -> bool:
        return id(event) in self._ids()

    def __len__(self) -> int:
        return len(self.events)

    def values(self) -> List[Any]:
        return [event._value for event in self.events]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.values()!r}>"


class Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf` composite events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("all events must share one environment")
        if not self._events:
            self.succeed(ConditionValue([]))
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._satisfied():
            self.succeed(ConditionValue(
                [e for e in self._events if e.callbacks is None and e._ok]
            ))


class AnyOf(Condition):
    """Fires as soon as any of the given events fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self._events)


class Environment:
    """The simulation environment: clock, ready queue, and run loop.

    The ready queue is two same-instant FIFOs (URGENT, NORMAL) of bare
    events plus a heap of ``(time, eid, event)`` tuples for later
    times; see the module docstring.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: events for later instants, as ``(time, eid, event)``
        self._heap: List[Any] = []
        self._eid = 0
        #: same-instant FIFOs: process starts/interrupts, then the rest
        self._urgent: deque = deque()
        self._instant: deque = deque()
        #: bound appends for trigger sites (one attribute read per push)
        self._push_urgent = self._urgent.append
        self._push_now = self._instant.append
        self._active_process: Optional[Process] = None
        #: events popped and dispatched so far (native counter; the
        #: perf bench reads this instead of wrapping ``step()``)
        self.events_processed = 0
        #: observability hook (``repro.telemetry.Telemetry`` or None).
        #: Instrumentation sites across the stack check this attribute;
        #: None (the default) means every site is a single attribute
        #: read — telemetry is strictly opt-in and purely passive.
        self.telemetry: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulated time (microseconds by repo convention)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def completed_event(self, value: Any = None, cls: type = Event) -> Event:
        """An already-processed successful event (fast path).

        Yielding it resumes the process synchronously without a trip
        through the event heap; never yielding it costs nothing.  Used
        by resources/stores for immediately-satisfiable operations.
        """
        event = cls.__new__(cls)
        event.env = self
        event.callbacks = None
        event._value = value
        event._ok = True
        event._triggered = True
        event.defused = False
        return event

    def defer(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` without spawning a process.

        A lightweight alternative to ``process()`` for fire-and-forget
        delayed actions (message deliveries, notifications): the
        callback rides in a dedicated slot of a kernel event, with no
        closure and no generator.
        """
        event = _new(_Deferred)
        event.callbacks = None
        event.fn = fn
        now = self._now
        when = now + delay
        if when > now:
            self._eid += 1
            heappush(self._heap, (when, self._eid, event))
        elif delay >= 0:
            self._push_now(event)
        else:
            raise ValueError(f"negative defer delay: {delay}")

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        # Inlined Timeout(self, delay, value): one frame per timeout.
        event = _new(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._triggered = True
        event.defused = False
        now = self._now
        when = now + delay
        if when > now:
            self._eid += 1
            heappush(self._heap, (when, self._eid, event))
        elif delay >= 0:
            self._push_now(event)
        else:
            raise ValueError(f"negative timeout delay: {delay}")
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling / run loop ----------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        """Queue ``event`` to fire ``delay`` after now (the long form of
        the inlined pushes in ``timeout``/``defer``/``succeed``)."""
        if priority == PRIORITY_URGENT:
            if delay:
                raise SimulationError("urgent events fire at the current instant")
            self._push_urgent(event)
            return
        now = self._now
        when = now + delay
        if when > now:
            self._eid += 1
            heappush(self._heap, (when, self._eid, event))
        elif delay >= 0:
            self._push_now(event)
        else:
            raise ValueError(f"negative timeout delay: {delay}")

    def _advance(self) -> Event:
        """Move the clock to the earliest heap entry; return that event
        and move the rest of that instant's entries onto the NORMAL
        FIFO, in heap order."""
        heap = self._heap
        when, _eid, event = heappop(heap)
        self._now = when
        while heap and heap[0][0] == when:
            self._push_now(heappop(heap)[2])
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent or self._instant:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if self._urgent:
            event = self._urgent.popleft()
        elif self._instant:
            event = self._instant.popleft()
        elif self._heap:
            event = self._advance()
        else:
            raise SimulationError("no more events")
        self.events_processed += 1
        event._run_callbacks()

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run up
        to that simulated time), or an :class:`Event` (run until it
        fires, returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(f"until ({stop_time}) is in the past (now={self._now})")

        self._run_heap(stop_time, stop_event)

        if stop_event is not None:
            if stop_event.callbacks is not None:
                raise SimulationError(
                    "run() ran out of events before `until` event fired")
            if stop_event._ok:
                return stop_event._value
            stop_event.defused = True
            raise stop_event._value
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def _run_heap(self, stop_time: float, stop_event: Optional[Event]) -> None:
        # Tight inlined loop: one FIFO pop (or, between instants, one
        # heap pop) + direct callback dispatch per event (the ``step()``
        # API remains for single-stepping).  Almost every fired event
        # has exactly one callback (a process resume), so that case
        # skips the loop machinery entirely.
        urgent = self._urgent
        instant = self._instant
        heap = self._heap
        pop_urgent = urgent.popleft
        pop_instant = instant.popleft
        push_now = instant.append
        pop = heappop
        processed = 0
        try:
            while True:
                if urgent:
                    event = pop_urgent()
                elif instant:
                    event = pop_instant()
                elif heap and heap[0][0] <= stop_time:
                    # inlined _advance()
                    when, _eid, event = pop(heap)
                    self._now = when
                    while heap and heap[0][0] == when:
                        push_now(pop(heap)[2])
                else:
                    break
                processed += 1
                cbs = event.callbacks
                if cbs is not None:
                    event.callbacks = None
                    if len(cbs) == 1:
                        cbs[0](event)
                    else:
                        for callback in cbs:
                            callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
                else:
                    # Only _Deferred events are scheduled without a
                    # callbacks list.
                    event.fn()
                if stop_event is not None and stop_event.callbacks is None:
                    return
        finally:
            self.events_processed += processed
