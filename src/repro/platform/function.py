"""Serverless function runtime.

A deployed function is a user handler wrapped in Palladium's runtime:

* a unified **inbox** fed by both intra-node SK_MSG deliveries and
  inter-node Comch deliveries (the function just blocks in ``recv``);
* a dispatcher that separates *requests* (queued to handler workers)
  from *responses* (matched to pending invocations by request id);
* an invocation context (:class:`FunctionContext`) giving handlers the
  paper's I/O-library API — ``invoke`` a downstream function and wait,
  or ``respond`` to the caller — without ever choosing a transport
  (§3.5: "sparing developers from selecting the correct transport").

Handlers are generators: ``def handler(ctx, msg): ... yield from
ctx.compute(25) ... reply = yield from ctx.invoke("cart", req, 256)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..dataplane import KIND_REQUEST, KIND_RESPONSE
from ..dataplane import Message as Header
from ..memory import BufferDescriptor
from ..sim import AnyOf, Environment, Event, LatencyStats, Store

from .iolib import InvokeTimeout, SendError

__all__ = ["FunctionSpec", "FunctionInstance", "FunctionContext", "Message"]

_rids = itertools.count(1)


@dataclass
class FunctionSpec:
    """Static description of a serverless function."""

    name: str
    tenant: str
    #: generator handler(ctx, msg); None = echo back the request payload
    handler: Optional[Callable] = None
    #: host-core microseconds of application logic per invocation
    work_us: float = 50.0
    #: maximum concurrent handler executions in this instance
    concurrency: int = 64
    #: typical response body bytes (used by the default echo handler)
    response_bytes: int = 512


@dataclass
class Message:
    """What a handler sees: payload + descriptor + the typed header."""

    payload: Any
    size: int
    header: Header
    descriptor: BufferDescriptor = None

    @property
    def src(self) -> str:
        return self.header.src or "?"


class FunctionContext:
    """Per-invocation API handed to user handlers."""

    def __init__(self, instance: "FunctionInstance", request: Message):
        self.instance = instance
        self.request = request
        self.env = instance.env
        #: the execution span of this invocation (telemetry only)
        self.span = None

    def compute(self, host_us: Optional[float] = None):
        """Generator: burn application-logic CPU time on the host."""
        work = self.instance.spec.work_us if host_us is None else host_us
        self.instance.app_time_us += work
        tel = self.env.telemetry
        if tel is not None:
            tel.cycles.charge("app", work, where=self.instance.spec.name)
        yield from self.instance.cpu.execute(work)

    def invoke(self, dst_fn: str, payload: Any, size: int):
        """Generator: request/response invocation of another function."""
        reply = yield from self.instance.invoke(dst_fn, payload, size,
                                                parent_span=self.span)
        return reply

    def respond(self, payload: Any, size: int):
        """Generator: send the response back to this request's caller."""
        yield from self.instance.respond(self.request, payload, size,
                                         parent_span=self.span)


class FunctionInstance:
    """One running function: inbox, dispatcher, handler workers."""

    def __init__(self, env: Environment, spec: FunctionSpec, iolib):
        self.env = env
        self.spec = spec
        self.iolib = iolib
        self.cpu = iolib.cpu
        self.agent = f"fn:{spec.name}"
        #: the cycle ledger's drill-down site for receive wake-ups
        self.recv_site = f"recv:{spec.name}"
        self.inbox: Store = Store(env, name=f"inbox:{spec.name}")
        self._requests: Store = Store(env, name=f"reqs:{spec.name}")
        self._pending: Dict[int, Event] = {}
        self.handled = 0
        #: host-core us of application logic executed (for Fig. 16's
        #: data-plane-vs-app CPU accounting)
        self.app_time_us = 0.0
        self.latency = LatencyStats(spec.name)
        self._started = False
        #: fault state: a crashed instance drops deliveries on the
        #: floor (recycling the buffers) until :meth:`recover`.
        self.crashed = False
        self.dropped = 0
        #: handler executions that failed on a downstream error
        self.failed = 0
        self.invoke_timeouts = 0
        #: live-migration state (repro.migration): while frozen, new
        #: requests are parked for the checkpoint drain; ``_busy``
        #: counts in-flight dispatch/handler work for the quiesce wait.
        self._frozen = False
        self._busy = 0
        self._frozen_backlog: list = []
        self._quiesce_waiters: list = []
        #: completed live migrations of this instance
        self.migrations = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.env.process(self._dispatch_loop(), name=f"{self.spec.name}-dispatch")
        for i in range(self.spec.concurrency):
            self.env.process(self._handler_worker(), name=f"{self.spec.name}-w{i}")

    def crash(self) -> None:
        """Fault injection: the instance's process dies.

        Outstanding invocations are abandoned (their callers' timeouts
        surface the loss) and arriving messages are dropped until
        :meth:`recover`.
        """
        self.crashed = True
        self._pending.clear()

    def recover(self) -> None:
        self.crashed = False

    # -- live migration support (repro.migration) ----------------------------
    def freeze(self) -> None:
        """Stop dispatching new requests (they are parked for the
        checkpoint drain); responses keep flowing so handlers blocked
        in ``invoke`` can finish and the instance can quiesce."""
        self._frozen = True

    def thaw(self, requeue: bool = False) -> None:
        """Resume normal dispatch.

        ``requeue`` is the abort path: parked requests go back to the
        worker queue instead of travelling in a checkpoint image.
        Quiesce waiters are released either way so an aborted
        migration's wait unblocks.
        """
        self._frozen = False
        if requeue:
            backlog, self._frozen_backlog = self._frozen_backlog, []
            for descriptor in backlog:
                self._requests.put_nowait(descriptor)
        waiters, self._quiesce_waiters = self._quiesce_waiters, []
        for event in waiters:
            event.succeed()

    def wait_quiesced(self):
        """Generator: block until no dispatch/handler work is in flight.

        Returns True when the instance quiesced under freeze, False
        when the freeze was lifted underneath (aborted migration).
        """
        while self._frozen and self._busy > 0:
            event = self.env.event()
            self._quiesce_waiters.append(event)
            yield event
        return self._frozen

    def drain_queued(self) -> list:
        """Pull every queued descriptor out of the instance.

        Order: requests already dispatched to workers, then requests
        parked by the freeze, then raw inbox arrivals.  The caller (the
        migrator) takes over ownership of each message and buffer.
        """
        items = []
        while True:
            descriptor = self._requests.try_get()
            if descriptor is None:
                break
            items.append(descriptor)
        items.extend(self._frozen_backlog)
        self._frozen_backlog.clear()
        while True:
            descriptor = self.inbox.try_get()
            if descriptor is None:
                break
            items.append(descriptor)
        return items

    def rebind(self, iolib) -> None:
        """Point the instance at a new node's I/O library (restore).

        The inbox object, pending invocations, and worker processes
        carry over untouched — that is the "warm" in warm migration;
        only the transport bindings change.
        """
        self.iolib = iolib
        self.cpu = iolib.cpu
        self.migrations += 1

    def _work_done(self) -> None:
        self._busy -= 1
        if self._busy == 0 and self._frozen and self._quiesce_waiters:
            waiters, self._quiesce_waiters = self._quiesce_waiters, []
            for event in waiters:
                event.succeed()

    # -- receive path ---------------------------------------------------------
    def _dispatch_loop(self):
        while True:
            descriptor = yield self.inbox.get()
            if self.crashed:
                self.dropped += 1
                descriptor.message.retire(self.agent)
                self.iolib.recycle(descriptor.buffer, self.agent)
                continue
            if self._frozen and not descriptor.message.is_response:
                # Migration freeze: park requests for the checkpoint
                # drain; responses keep flowing (quiesce needs them).
                self._frozen_backlog.append(descriptor)
                continue
            self._busy += 1
            try:
                # Wake-up cost depends on how the descriptor arrived.
                recv_us = self.iolib.recv_cost_us(descriptor)
                tel = self.env.telemetry
                if tel is not None:
                    # Descriptor-channel wakeups are descriptor handling;
                    # the TCP fallback wakes through the kernel stack.
                    via = descriptor.message.via
                    category = "protocol" if via == "tcp" else "descriptor"
                    tel.cycles.charge(category, recv_us,
                                      where=self.recv_site)
                yield from self.cpu.execute(recv_us)
                header = descriptor.message
                if header.is_response:
                    event = self._pending.pop(header.rid, None)
                    if event is not None:
                        event.succeed(descriptor)
                    else:
                        # Response nobody awaits (caller timed out): recycle.
                        header.retire(self.agent)
                        self.iolib.recycle(descriptor.buffer, self.agent)
                else:
                    self._requests.put(descriptor)
            finally:
                self._work_done()

    def _handler_worker(self):
        while True:
            descriptor = yield self._requests.get()
            if self.crashed:
                self.dropped += 1
                descriptor.message.retire(self.agent)
                self.iolib.recycle(descriptor.buffer, self.agent)
                continue
            if self._frozen:
                # Claimed from the queue at the freeze instant: park it
                # for the checkpoint drain instead of executing.
                self._frozen_backlog.append(descriptor)
                continue
            self._busy += 1
            try:
                started = self.env.now
                message = Message(
                    payload=descriptor.buffer.read(self.agent),
                    size=descriptor.length,
                    header=descriptor.message,
                    descriptor=descriptor,
                )
                ctx = FunctionContext(self, message)
                tel = self.env.telemetry
                if tel is not None:
                    ctx.span = tel.tracer.start_span(
                        f"fn.exec:{self.spec.name}",
                        parent=message.header.trace, category="function",
                        node=self.iolib.runtime.node.name, actor=self.spec.name,
                        tenant=self.spec.tenant)
                handler = self.spec.handler or _echo_handler
                try:
                    yield from handler(ctx, message)
                except (SendError, InvokeTimeout):
                    # Downstream failure: abandon this request; the
                    # caller's own timeout surfaces the loss.  Keep the
                    # worker alive and reclaim the request buffer if the
                    # handler still holds it.
                    self.failed += 1
                    message.header.retire(self.agent)
                    buffer = descriptor.buffer
                    if buffer is not None and buffer.owner == self.agent:
                        self.iolib.recycle(buffer, self.agent)
                    if tel is not None:
                        tel.tracer.end_span(ctx.span, status="error")
                        tel.metrics.counter(
                            "fn_failed_total", "Handler executions abandoned "
                            "on a downstream error.", labels=("fn",)).labels(
                                self.spec.name).inc()
                    continue
                # The request header has completed its journey: the handler
                # either responded (reusing the buffer under a new header)
                # or consumed the request outright.
                message.header.retire(self.agent)
                self.handled += 1
                self.latency.record(self.env.now - started)
                if tel is not None:
                    tel.tracer.end_span(ctx.span)
                    tel.metrics.counter(
                        "fn_handled_total", "Handler executions completed.",
                        labels=("fn", "tenant")).labels(
                            self.spec.name, self.spec.tenant).inc()
                    tel.metrics.histogram(
                        "fn_exec_latency_us", "Handler wall time, request "
                        "dequeue to completion.", labels=("fn",)).labels(
                            self.spec.name).observe(
                                self.env.now - started,
                                trace_id=ctx.span.trace_id)
            finally:
                self._work_done()

    # -- invocation API ------------------------------------------------------------
    def invoke(self, dst_fn: str, payload: Any, size: int, parent_span=None):
        """Generator: RPC to ``dst_fn``; returns the reply :class:`Message`."""
        rid = next(_rids)
        event = self.env.event()
        self._pending[rid] = event
        header = Header(
            kind=KIND_REQUEST,
            rid=rid,
            src=self.spec.name,
            dst=dst_fn,
            reply_to=self.spec.name,
            tenant=self.spec.tenant,
            owner=self.agent,
        )
        tel = self.env.telemetry
        span = None
        if tel is not None:
            # NB: no rid tag — rids come from a process-global counter,
            # and tagging them would break byte-identical exports across
            # repeated runs in one process (the rid still rides the header).
            span = tel.tracer.start_span(
                f"fn.invoke:{dst_fn}", parent=parent_span,
                category="function", node=self.iolib.runtime.node.name,
                actor=self.spec.name, tenant=self.spec.tenant)
            header.trace = span.context
        try:
            yield from self.iolib.send(self.agent, dst_fn, payload, size,
                                       header)
        except SendError:
            if tel is not None:
                tel.tracer.end_span(span, status="error")
            raise
        deadline_us = getattr(self.iolib.runtime, "invoke_timeout_us", None)
        if deadline_us is None:
            reply_desc = yield event
        else:
            # Invoke guard timer: an exact timer racing the reply.
            deadline = self.env.timeout(deadline_us)
            yield AnyOf(self.env, [event, deadline])
            if not event.triggered:
                # Give up: a late response finds no pending entry and
                # is recycled by the dispatcher.
                self._pending.pop(rid, None)
                self.invoke_timeouts += 1
                if tel is not None:
                    tel.tracer.end_span(span, status="timeout")
                raise InvokeTimeout(
                    f"{self.spec.name}: invoke of {dst_fn!r} (rid {rid}) "
                    f"timed out after {deadline_us:.0f}us"
                )
            reply_desc = event.value
        reply = Message(
            payload=reply_desc.buffer.read(self.agent),
            size=reply_desc.length,
            header=reply_desc.message,
            descriptor=reply_desc,
        )
        # The runtime owns the reply; recycle the buffer after the read
        # and retire the reply header — its journey ends here.
        reply_desc.message.retire(self.agent)
        self.iolib.recycle(reply_desc.buffer, self.agent)
        if tel is not None:
            tel.tracer.end_span(span)
        return reply

    def respond(self, request: Message, payload: Any, size: int,
                parent_span=None):
        """Generator: answer ``request``, reusing its buffer (zero-copy)."""
        header = Header(
            kind=KIND_RESPONSE,
            rid=request.header.rid,
            src=self.spec.name,
            dst=request.header.reply_to,
            tenant=self.spec.tenant,
            owner=self.agent,
        )
        tel = self.env.telemetry
        if tel is not None:
            # Thread the response into the caller's trace: under the
            # execution span when we have it, else wherever the request
            # context pointed.
            if parent_span is not None:
                header.trace = parent_span.context
            elif request.header.trace is not None:
                header.trace = request.header.trace
        yield from self.iolib.send_buffer(
            self.agent, request.header.reply_to, request.descriptor.buffer,
            payload, size, header,
        )


def _echo_handler(ctx: FunctionContext, msg: Message):
    """Default handler: compute, then echo the payload back."""
    yield from ctx.compute()
    yield from ctx.respond(msg.payload, msg.size)
