"""Shared-resource primitives for the simulation kernel.

Provides SimPy-style resources used throughout the reproduction:

* :class:`Resource` — a server with fixed capacity and a FIFO (or
  priority) wait queue.  CPU cores, DMA engines and NIC processing
  pipelines are built on this.
* :class:`Store` — an unbounded/bounded FIFO of items with blocking
  ``get``.  Message queues, completion queues and rings are built on
  this.
* :class:`FilterStore` — a store whose ``get`` can wait for an item
  matching a predicate (used e.g. to wait for a specific completion).

Hot-path notes (docs/PERFORMANCE.md): stores keep their items and
waiter lists in :class:`collections.deque` so the FIFO pop is O(1);
immediately-satisfiable ``get``\\ s return an already-processed
``_GetEvent`` from :meth:`Environment.completed_event`, so the getter
resumes synchronously without a heap trip; ``Resource.request`` builds
the grant without an ``__init__`` chain and only sorts its wait queue
when a priority actually arrives out of order.

Batched draining: :meth:`Store.poll_batch` (blocking, fires with a
non-empty list) lets one consumer wakeup take every ready item — a
polling loop built on it costs one generator round-trip per *burst*
instead of one per item.  Batch getters always take items in FIFO
arrival order; on :class:`FilterStore` they bypass predicates (a CQ
drain wants every completion, not a matching one).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .core import Environment, Event, SimulationError

__all__ = ["Resource", "Request", "Store", "FilterStore"]


class _PutEvent(Event):
    """Internal: a pending Store.put carrying its item."""

    __slots__ = ("item",)


class _GetEvent(Event):
    """Internal: a pending Store.get, optionally with a predicate."""

    __slots__ = ("predicate",)

    #: batch getters are dispatched with a list of items, not one item
    _batch = False


class _BatchGetEvent(_GetEvent):
    """Internal: a pending Store.poll_batch; fires with a list of items."""

    __slots__ = ("limit",)

    _batch = True


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "key")

    def __init__(self, resource: "Resource", priority: int):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        resource._seq += 1
        self.key = (priority, resource._seq)


class Resource:
    """A server with ``capacity`` identical slots and a wait queue.

    Requests are granted in ``(priority, FIFO)`` order; lower priority
    values are served first.  The holder must call :meth:`release` with
    the granted request.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self.queue: List[Request] = []
        self._seq = 0
        # busy-time accounting for utilization reports
        self._busy_area = 0.0
        self._last_change = env.now

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def _account(self) -> None:
        now = self.env._now
        self._busy_area += len(self.users) * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Aggregate slot-busy time (slot-microseconds) so far."""
        self._account()
        return self._busy_area

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity in use since time ``since``."""
        elapsed = self.env.now - since
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / (elapsed * self.capacity)

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event fires when granted."""
        env = self.env
        users = self.users
        # inlined _account()
        now = env._now
        self._busy_area += len(users) * (now - self._last_change)
        self._last_change = now
        # Build the grant without the Event/Request __init__ chain.
        req = Request.__new__(Request)
        req.env = env
        req._value = None
        req.defused = False
        req.resource = self
        req.priority = priority
        if len(users) < self.capacity and not self.queue:
            users.append(req)
            # Fast path: granted immediately, no trip through the heap;
            # the FIFO key is never compared for immediate grants.
            req.key = None
            req._ok = True
            req._triggered = True
            req.callbacks = None
        else:
            self._seq += 1
            req.key = (priority, self._seq)
            req._ok = True
            req._triggered = False
            req.callbacks = []
            queue = self.queue
            queue.append(req)
            # FIFO arrivals are already in key order; only an actual
            # priority inversion pays for the (stable) sort.
            if len(queue) > 1 and queue[-2].key > req.key:
                queue.sort(key=lambda r: r.key)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        users = self.users
        # inlined _account()
        now = self.env._now
        self._busy_area += len(users) * (now - self._last_change)
        self._last_change = now
        try:
            users.remove(request)
        except ValueError:
            raise SimulationError(f"release of non-held request on {self.name!r}")
        queue = self.queue
        while queue and len(users) < self.capacity:
            nxt = queue.pop(0)
            users.append(nxt)
            nxt.succeed()

    def cancel(self, request: Request) -> None:
        """Withdraw a queued (not yet granted) request."""
        if request in self.queue:
            self.queue.remove(request)
        elif request in self.users:
            self.release(request)

    def use(self, duration: float, priority: int = 0):
        """Generator helper: hold one slot for ``duration`` time units.

        Uncontended holds take a token fast path: the slot is marked
        busy with a plain sentinel instead of a full :class:`Request`,
        skipping the request event round-trip.  Busy-time accounting
        and release-time queue grants are identical on both paths.
        """
        users = self.users
        if len(users) < self.capacity and not self.queue:
            # inlined _account() (request() would do the same)
            now = self.env._now
            self._busy_area += len(users) * (now - self._last_change)
            self._last_change = now
            token = object()
            users.append(token)
            try:
                yield self.env.timeout(duration)
            finally:
                self.release(token)
            return
        req = self.request(priority)
        yield req
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(req)


class Store:
    """FIFO item store with blocking ``get`` and optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()  # (event carries the item as .item)
        self.put_count = 0
        self.get_count = 0

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; fires immediately unless the store is full."""
        event = _PutEvent(self.env)
        event.item = item
        if len(self.items) < self.capacity:
            self._commit_put(event)
        else:
            self._putters.append(event)
        return event

    def _commit_put(self, event: "_PutEvent") -> None:
        self.items.append(event.item)
        self.put_count += 1
        if event.callbacks is not None and not event._triggered:
            if event.callbacks:
                event.succeed()
            else:
                # Fast path: nobody is watching this put event.
                event._ok = True
                event._triggered = True
                event.callbacks = None
        if self._getters:
            self._dispatch()

    def put_nowait(self, item: Any) -> None:
        """Insert without creating an event (hot path for unbounded stores)."""
        if len(self.items) >= self.capacity:
            raise SimulationError(f"put_nowait on full store {self.name!r}")
        self.items.append(item)
        self.put_count += 1
        if self._getters:
            self._dispatch()

    def get(self) -> Event:
        """Remove and return the oldest item; blocks while empty."""
        items = self.items
        if items and not self._getters:
            # Fast path: satisfy synchronously without the heap.
            self.get_count += 1
            event = self.env.completed_event(items.popleft(), _GetEvent)
            event.predicate = None
            if self._putters:
                self._admit_putters()
            return event
        event = _GetEvent(self.env)
        event.predicate = None
        self._getters.append(event)
        if items:
            self._dispatch()
        return event

    def poll_batch(self, limit: Optional[int] = None) -> Event:
        """Blocking batch get: fires with the list of all ready items.

        If items are ready now, fires synchronously (completed-event
        fast path, no heap trip) with every queued item — up to
        ``limit`` — in FIFO order.  Otherwise the returned event joins
        the getter queue and fires as a non-empty list the moment items
        arrive.  One kernel wakeup per burst instead of one per item.
        """
        items = self.items
        if items and not self._getters:
            n = len(items) if limit is None else min(limit, len(items))
            popleft = items.popleft
            batch = [popleft() for _ in range(n)]
            self.get_count += n
            event = self.env.completed_event(batch, _BatchGetEvent)
            event.predicate = None
            event.limit = limit
            if self._putters:
                self._admit_putters()
            return event
        event = _BatchGetEvent(self.env)
        event.predicate = None
        event.limit = limit
        self._getters.append(event)
        if items:
            self._dispatch()
        return event

    def _admit_putters(self) -> None:
        putters = self._putters
        while putters and len(self.items) < self.capacity:
            self._commit_put(putters.popleft())

    def _dispatch(self) -> None:
        getters = self._getters
        items = self.items
        while getters and items:
            getter = getters.popleft()
            if getter._batch:
                limit = getter.limit
                n = len(items) if limit is None else min(limit, len(items))
                popleft = items.popleft
                batch = [popleft() for _ in range(n)]
                self.get_count += n
                getter.succeed(batch)
            else:
                item = items.popleft()
                self.get_count += 1
                getter.succeed(item)
            if self._putters:
                self._admit_putters()

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop the oldest item or return ``None``."""
        if self.items and not self._getters:
            self.get_count += 1
            return self.items.popleft()
        return None

    def fail_getters(self, exc: BaseException) -> int:
        """Abort every pending ``get`` with ``exc``; returns the count.

        Used by fault injection to model a producer dying while
        consumers are blocked (e.g. senders stalled on a crashed node's
        receive queue).  Items already in the store are untouched.
        """
        getters, self._getters = self._getters, deque()
        for event in getters:
            event.fail(exc)
        return len(getters)


class FilterStore(Store):
    """A :class:`Store` whose ``get`` may wait for a matching item."""

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        predicate = predicate or (lambda item: True)
        items = self.items
        if items and not self._getters:
            match = next((i for i, item in enumerate(items) if predicate(item)), None)
            if match is not None:
                item = items[match]
                del items[match]
                self.get_count += 1
                event = self.env.completed_event(item, _GetEvent)
                event.predicate = predicate
                if self._putters:
                    self._admit_putters()
                return event
        event = _GetEvent(self.env)
        event.predicate = predicate
        self._getters.append(event)
        if items:
            self._dispatch()
        return event

    def _dispatch(self) -> None:
        items = self.items
        progressed = True
        while progressed:
            progressed = False
            for getter in list(self._getters):
                if getter._batch:
                    # Batch getters bypass predicates: they take every
                    # queued item in FIFO order (a CQ drain).
                    if items:
                        limit = getter.limit
                        n = (len(items) if limit is None
                             else min(limit, len(items)))
                        popleft = items.popleft
                        batch = [popleft() for _ in range(n)]
                        self.get_count += n
                        self._getters.remove(getter)
                        getter.succeed(batch)
                        progressed = True
                    continue
                match = next(
                    (i for i, item in enumerate(items)
                     if getter.predicate(item)),
                    None,
                )
                if match is not None:
                    self._getters.remove(getter)
                    item = items[match]
                    del items[match]
                    self.get_count += 1
                    getter.succeed(item)
                    progressed = True
            if self._putters:
                self._admit_putters()
