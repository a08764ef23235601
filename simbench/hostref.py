"""Host-speed reference for timing on a shared, noisy host.

Other tenants of a shared machine slow this process down by tens of
percent for minutes at a time, and a slower median is then
indistinguishable from a slower simulator.  The benchmark therefore
interleaves short chunks of a fixed pure-Python event loop (a heap of
generator "processes", like the simulator's kernel but sharing none of
its code) with the work it times: at least every ``EVERY_S`` seconds
and around every pass.  A host running at half speed runs both at
half speed, so dividing the work's time by the chunks' slowdown
against ``NOMINAL_CHUNK_S`` cancels the drift.  Time spent in chunks
is excluded from the work's time.
"""

from __future__ import annotations

import gc
import heapq
import time

#: reference events per chunk, and the seconds one chunk takes on the
#: quiet reference host (2-CPU x86-64 Linux container, CPython 3.11)
CHUNK_EVENTS = 2_000
NOMINAL_CHUNK_S = 0.0025
#: host seconds of work between two chunks
EVERY_S = 0.1


class _Job:
    __slots__ = ("i", "x", "done", "log")

    def __init__(self, i: int):
        self.i, self.x, self.done, self.log = i, i, 0, []


def _process(job: _Job, table: dict):
    while True:
        job.x = (job.x * 1103515245 + 12345) & 0x7FFFFFFF
        job.done += 1
        table[job.x & 0xFFF] = job
        if len(job.log) < 64:
            job.log.append((job.x, job.done))
        else:
            job.log[job.done & 63] = (job.x, job.done)
        yield (job.x % 97) + 1.0


def chunk(events: int = CHUNK_EVENTS) -> float:
    """Seconds the fixed reference loop takes for ``events`` events.

    A first, untimed run warms the caches the simulator just evicted,
    so the sample tracks the host's speed, not the simulator's
    footprint.  The collector is off meanwhile: a collection would
    traverse the simulator's heap and time that instead of the host.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _loop(events)
        start = time.perf_counter()
        _loop(events)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _loop(events: int) -> None:
    table: dict = {}
    jobs = [_Job(i) for i in range(64)]
    procs = [_process(job, table) for job in jobs]
    heap = [(next(p), i) for i, p in enumerate(procs)]
    heapq.heapify(heap)
    for _ in range(events):
        t, i = heapq.heappop(heap)
        heapq.heappush(heap, (t + procs[i].send(None), i))


class HostMeter:
    """A work clock that excludes reference chunks, and the host's
    slowdown measured by them."""

    def __init__(self):
        self.excluded_s = 0.0
        self.sampled_s = 0.0
        self.samples = 0
        self._due = 0.0

    def now(self) -> float:
        """Host seconds so far, reference chunks excluded."""
        return time.perf_counter() - self.excluded_s

    def tick(self, force: bool = False) -> None:
        """Run a reference chunk if one is due (or ``force``)."""
        start = time.perf_counter()
        if not force and start < self._due:
            return
        self.sampled_s += chunk()
        self.samples += 1
        end = time.perf_counter()
        self.excluded_s += end - start
        self._due = end + EVERY_S

    @property
    def slowdown(self) -> float:
        """Mean chunk time over the nominal one (2.0 = half speed)."""
        return self.sampled_s / self.samples / NOMINAL_CHUNK_S
