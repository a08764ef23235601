"""Request spans and Chrome trace-event export.

A :class:`Span` is one timed operation on one (node, actor) pair; a
trace is the tree of spans sharing a ``trace_id``, rooted at the
ingress request (or at a driver-issued invoke).  Context propagates
through the stack as a plain ``(trace_id, span_id)`` tuple carried in
the ``trace`` field of the travelling
:class:`~repro.dataplane.Message` (the same header the reliability
``ack`` rides), so no plumbing is required beyond each layer
re-stamping the field with its own span before forwarding.

Export is Chrome trace-event JSON (the ``{"traceEvents": [...]}``
object form): complete (``"X"``) events for spans, metadata (``"M"``)
events naming processes/threads after simulated nodes/actors, and
global instant (``"i"``) events for fault incidents.  Load the file at
https://ui.perfetto.dev or chrome://tracing.

The tracer is strictly passive: it never touches the event loop and
allocates ids from its own monotonic counters, so enabling it cannot
change simulation behaviour.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["Span", "SpanTracer", "validate_chrome_trace"]

Context = Tuple[int, int]


class Span:
    """One timed operation; part of a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "category",
                 "node", "actor", "start_us", "end_us", "status", "tags",
                 "events")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, category: str, node: str, actor: str,
                 start_us: float, tags: Dict[str, Any]):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.node = node
        self.actor = actor
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.status = "open"
        self.tags = tags
        #: annotations; a shared empty tuple until the first ``event()``
        #: so an unannotated span allocates one tracked object, not two
        self.events: Sequence[Dict[str, Any]] = ()

    @property
    def context(self) -> Context:
        """The ``(trace_id, span_id)`` tuple to stamp into a message."""
        return (self.trace_id, self.span_id)

    @property
    def finished(self) -> bool:
        return self.end_us is not None

    @property
    def duration_us(self) -> float:
        return (self.end_us - self.start_us) if self.finished else 0.0

    def event(self, name: str, ts_us: float, **attrs) -> None:
        """Attach a point-in-time annotation (e.g. a fault incident)."""
        record = {"name": name, "ts": ts_us}
        if attrs:
            record.update(attrs)
        if isinstance(self.events, list):
            self.events.append(record)
        else:
            self.events = [record]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r} trace={self.trace_id} id={self.span_id} "
                f"parent={self.parent_id} [{self.start_us}..{self.end_us}] "
                f"{self.status})")


class SpanTracer:
    """Creates, finishes, stores, and exports spans.

    ``max_spans`` bounds memory: once full, *new* spans are counted in
    ``dropped`` and represented by inert placeholder spans that are not
    stored (children of a dropped span attach to its parent's trace but
    keep a valid parent pointer, so trees stay well-formed).
    """

    def __init__(self, env, max_spans: int = 250_000):
        self.env = env
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        #: fault incidents: global instant events, also mirrored onto
        #: every open root span
        self.incidents: List[Dict[str, Any]] = []
        #: annotation marks: global instant events from observers (the
        #: SLO monitor's alert firing/resolve instants land here); each
        #: entry is ``{"name", "ts", "category", **args}``
        self.marks: List[Dict[str, Any]] = []
        self._open_roots: Dict[int, Span] = {}
        self._next_trace = 1
        self._next_span = 1

    # -- span lifecycle ------------------------------------------------------
    def start_span(self, name: str,
                   parent: Union[Span, Context, None] = None,
                   category: str = "", node: str = "", actor: str = "",
                   **tags) -> Span:
        """Open a span; ``parent`` is a Span, a meta context, or None."""
        if parent is None:
            trace_id, parent_id = self._next_trace, None
            self._next_trace = trace_id + 1
        elif isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = parent
        span_id = self._next_span
        self._next_span = span_id + 1
        span = Span(trace_id, span_id, parent_id, name, category,
                    node, actor, self.env.now, tags)
        spans = self.spans
        if len(spans) < self.max_spans:
            spans.append(span)
            if parent_id is None:
                self._open_roots[span_id] = span
        else:
            self.dropped += 1
        return span

    def end_span(self, span: Span, status: str = "ok") -> None:
        """Close a span (idempotent; keeps the first end time)."""
        if span.end_us is not None:
            return
        span.end_us = self.env.now
        span.status = status
        if span.parent_id is None:
            self._open_roots.pop(span.span_id, None)

    def incident(self, kind: str, target: str, detail: Any = None) -> None:
        """Record a fault incident: global instant + events on all
        in-flight requests (open root spans)."""
        record: Dict[str, Any] = {"kind": kind, "target": target,
                                  "ts": self.env.now}
        if detail is not None:
            record["detail"] = repr(detail)
        self.incidents.append(record)
        for span in self._open_roots.values():
            span.event(f"fault:{kind}", self.env.now, target=target)

    def mark(self, name: str, category: str = "mark", **args) -> None:
        """Record a global annotation instant (e.g. an alert firing).

        Purely additive: marks only affect exports, never the
        simulation — the no-perturb guarantee extends to them.
        """
        record: Dict[str, Any] = {"name": name, "ts": self.env.now,
                                  "category": category}
        record.update(args)
        self.marks.append(record)

    # -- queries (used by tests and experiments) -----------------------------
    def trace_ids(self) -> List[int]:
        return sorted({s.trace_id for s in self.spans})

    def trace(self, trace_id: int) -> List[Span]:
        """All spans of one trace, in start order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans
                if s.trace_id == span.trace_id
                and s.parent_id == span.span_id]

    def find(self, name_prefix: str = "",
             trace_id: Optional[int] = None) -> List[Span]:
        return [s for s in self.spans
                if s.name.startswith(name_prefix)
                and (trace_id is None or s.trace_id == trace_id)]

    def check_integrity(self, trace_id: Optional[int] = None) -> List[str]:
        """Structural violations in stored spans (empty = well-formed).

        Checks: every non-root parent exists in the same trace, exactly
        one root per trace, children start no earlier than their
        parent, and finished children of finished parents end no later.
        Only meaningful when nothing was dropped.
        """
        spans = (self.spans if trace_id is None else self.trace(trace_id))
        errors: List[str] = []
        by_id = {s.span_id: s for s in spans}
        roots_per_trace: Dict[int, int] = {}
        for s in spans:
            if s.parent_id is None:
                roots_per_trace[s.trace_id] = \
                    roots_per_trace.get(s.trace_id, 0) + 1
                continue
            parent = by_id.get(s.parent_id)
            if parent is None:
                errors.append(f"span {s.span_id} ({s.name}): parent "
                              f"{s.parent_id} not found")
                continue
            if parent.trace_id != s.trace_id:
                errors.append(f"span {s.span_id}: trace mismatch with parent")
            if s.start_us < parent.start_us:
                errors.append(f"span {s.span_id} ({s.name}): starts before "
                              f"parent {parent.name}")
            if (s.finished and parent.finished
                    and s.end_us > parent.end_us
                    and s.category not in ("function", "engine", "rdma")):
                # async hand-offs (engine/rdma/function work) may outlive
                # the span that posted them; strictly-scoped categories
                # must nest.
                errors.append(f"span {s.span_id} ({s.name}): ends after "
                              f"parent {parent.name}")
        for tid, count in roots_per_trace.items():
            if count != 1:
                errors.append(f"trace {tid}: {count} roots")
        return errors

    # -- Chrome trace-event export -------------------------------------------
    def to_chrome(self, include_open: bool = False) -> Dict[str, Any]:
        """Export as a Chrome trace-event JSON object (Perfetto-ready)."""
        nodes = sorted({s.node or "sim" for s in self.spans})
        pids = {node: i + 1 for i, node in enumerate(nodes)}
        lanes = sorted({(s.node or "sim", s.actor or "main")
                        for s in self.spans})
        tids: Dict[Tuple[str, str], int] = {}
        per_node_count: Dict[str, int] = {}
        for node, actor in lanes:
            per_node_count[node] = per_node_count.get(node, 0) + 1
            tids[(node, actor)] = per_node_count[node]

        events: List[Dict[str, Any]] = []
        for node in nodes:
            events.append({"name": "process_name", "ph": "M", "ts": 0.0,
                           "pid": pids[node], "tid": 0,
                           "args": {"name": node}})
        for (node, actor), tid in sorted(tids.items()):
            events.append({"name": "thread_name", "ph": "M", "ts": 0.0,
                           "pid": pids[node], "tid": tid,
                           "args": {"name": actor}})
        for s in sorted(self.spans, key=lambda s: (s.start_us, s.span_id)):
            if not s.finished and not include_open:
                continue
            end = s.end_us if s.finished else s.start_us
            args: Dict[str, Any] = {"trace_id": s.trace_id,
                                    "span_id": s.span_id,
                                    "status": s.status}
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
            for k, v in s.tags.items():
                args[str(k)] = v if isinstance(v, (int, float, bool)) else str(v)
            node = s.node or "sim"
            events.append({
                "name": s.name, "cat": s.category or "span", "ph": "X",
                "ts": s.start_us, "dur": max(0.0, end - s.start_us),
                "pid": pids[node], "tid": tids[(node, s.actor or "main")],
                "args": args,
            })
            for ev in s.events:
                events.append({
                    "name": ev["name"], "cat": "event", "ph": "i",
                    "ts": ev["ts"], "s": "t",
                    "pid": pids[node],
                    "tid": tids[(node, s.actor or "main")],
                    "args": {k: str(v) for k, v in ev.items()
                             if k not in ("name", "ts")},
                })
        for inc in self.incidents:
            events.append({
                "name": f"fault:{inc['kind']}", "cat": "fault", "ph": "i",
                "ts": inc["ts"], "s": "g", "pid": 0, "tid": 0,
                "args": {"target": inc["target"]},
            })
        for mark in self.marks:
            events.append({
                "name": mark["name"], "cat": mark.get("category", "mark"),
                "ph": "i", "ts": mark["ts"], "s": "g", "pid": 0, "tid": 0,
                "args": {k: (v if isinstance(v, (int, float, bool))
                             else str(v))
                         for k, v in mark.items()
                         if k not in ("name", "ts", "category")},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "spans": len(self.spans),
                "dropped": self.dropped,
                "clock": "simulated-us",
            },
        }

    def to_chrome_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_chrome(), indent=indent, sort_keys=False)


#: phases we emit (and therefore validate): complete, instant, metadata
_VALID_PHASES = {"X", "i", "M"}
_VALID_SCOPES = {"g", "p", "t"}


def validate_chrome_trace(data: Any) -> List[str]:
    """Validate an exported trace against the trace-event schema subset
    this module emits.  Returns a list of violations (empty = valid).

    Hand-rolled on purpose — the repo takes no jsonschema dependency.
    """
    errors: List[str] = []
    if not isinstance(data, dict):
        return ["top level must be an object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing/empty name")
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            errors.append(f"{where}: bad ph {ph!r}")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            errors.append(f"{where}: pid/tid must be integers")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: args must be an object")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event needs dur >= 0")
        elif ph == "i":
            if ev.get("s") not in _VALID_SCOPES:
                errors.append(f"{where}: instant event needs scope in "
                              f"{sorted(_VALID_SCOPES)}")
        elif ph == "M":
            args = ev.get("args")
            if not isinstance(args, dict) or "name" not in args:
                errors.append(f"{where}: metadata event needs args.name")
    return errors
