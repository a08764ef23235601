"""Critical-path analysis over :class:`SpanTracer` forests.

Answers "where did my p99 go": for every finished request trace,
attribute **every instant** of the root's wall-clock window to exactly
one stage — the *deepest span active at that instant*, mapped to a
small stable stage vocabulary (``queueing``, ``engine.tx``,
``rdma.send``, ``engine.rx``, ``fn.exec``, ``iolib`` ...).  The spans
form causality chains rather than nested intervals (an ``engine.rx``
child outlives the ``rdma.send`` that caused it), so attribution is an
event sweep over the whole trace, not a tree walk: at each instant the
span furthest from the root wins, and instants where only the root is
active are *queueing* — the request sat in an ingress/dispatch queue
with nobody working on it.  Per-request attributions aggregate into a
p50/p99 stage-attribution table, and two reports diff into a "dominant
stage shift" between sweep points (the tail moved from the wire to the
queue, say, when a baseline saturates).

Pure post-processing: reads stored spans only, never the simulation.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .spans import Span, SpanTracer

__all__ = ["CriticalPathReport", "analyze", "dominant_shift", "stage_of"]

#: canonical display order for known stages (extras append after, sorted)
STAGE_ORDER = [
    "queueing", "ingress", "engine.tx", "rdma.send", "engine.rx",
    "fn.exec", "fn.invoke", "iolib", "migration",
]

_PREFIX_STAGES = [
    ("engine.tx", "engine.tx"),
    ("engine.rx", "engine.rx"),
    ("rdma.", "rdma.send"),
    ("fn.exec", "fn.exec"),
    ("fn.invoke", "fn.invoke"),
    ("iolib.", "iolib"),
    ("gw.", "ingress"),
    ("ingress", "ingress"),
    ("migrate", "migration"),
    ("drain", "migration"),
]


def stage_of(span: Span) -> str:
    """Map a span to its stage name (``other:*`` when unrecognized)."""
    name = span.name
    if name.startswith("request:") or name.startswith("invoke:"):
        # A root's *self* time is queueing: nobody worked the request.
        return "queueing"
    for prefix, stage in _PREFIX_STAGES:
        if name.startswith(prefix):
            return stage
    if span.category == "rdma":
        return "rdma.send"
    if span.category == "function":
        return "fn.exec"
    return f"other:{span.category or name.split(':')[0]}"


class CriticalPathReport:
    """Aggregated critical paths for one run (one tracer)."""

    def __init__(self, requests: List[Dict[str, Any]], label: str = ""):
        #: per-request rows: {trace_id, total_us, stages: {stage: us}}
        self.requests = sorted(requests,
                               key=lambda r: (r["total_us"], r["trace_id"]))
        self.label = label

    def __len__(self) -> int:
        return len(self.requests)

    # -- per-quantile --------------------------------------------------------
    def quantile_request(self, q: float) -> Optional[Dict[str, Any]]:
        """The request whose total latency sits at quantile ``q``."""
        if not self.requests:
            return None
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        idx = min(int(q * len(self.requests)), len(self.requests) - 1)
        return self.requests[idx]

    def stage_shares(self, q: float) -> Dict[str, float]:
        """Stage -> share of the quantile-``q`` request's latency."""
        req = self.quantile_request(q)
        if req is None or req["total_us"] <= 0:
            return {}
        return {stage: us / req["total_us"]
                for stage, us in req["stages"].items()}

    def dominant_stage(self, q: float = 0.99) -> Tuple[str, float]:
        """(stage, share) with the largest share at quantile ``q``."""
        shares = self.stage_shares(q)
        if not shares:
            return ("", 0.0)
        stage = max(sorted(shares), key=lambda s: shares[s])
        return (stage, shares[stage])

    def named_coverage(self, q: float = 0.99) -> float:
        """Fraction of the quantile-``q`` latency attributed to *named*
        stages (everything except ``other:*``)."""
        req = self.quantile_request(q)
        if req is None or req["total_us"] <= 0:
            return 0.0
        named = sum(us for stage, us in req["stages"].items()
                    if not stage.startswith("other:"))
        return named / req["total_us"]

    # -- table ---------------------------------------------------------------
    def _stage_list(self) -> List[str]:
        seen = set()
        for req in self.requests:
            seen.update(req["stages"])
        ordered = [s for s in STAGE_ORDER if s in seen]
        ordered += sorted(s for s in seen if s not in STAGE_ORDER)
        return ordered

    def table(self) -> List[Dict[str, Any]]:
        """p50/p99 stage-attribution rows (µs and share per stage)."""
        p50 = self.quantile_request(0.50)
        p99 = self.quantile_request(0.99)
        rows: List[Dict[str, Any]] = []
        if p50 is None or p99 is None:
            return rows
        # mean share across every request, weighted by nothing (each
        # request votes once) — robust to a few huge outliers
        mean_shares: Dict[str, float] = {}
        counted = 0
        for req in self.requests:
            if req["total_us"] <= 0:
                continue
            counted += 1
            for stage, us in req["stages"].items():
                mean_shares[stage] = (mean_shares.get(stage, 0.0)
                                      + us / req["total_us"])
        for stage in self._stage_list():
            rows.append({
                "stage": stage,
                "p50_us": round(p50["stages"].get(stage, 0.0), 3),
                "p50_share": round(p50["stages"].get(stage, 0.0)
                                   / p50["total_us"], 4)
                if p50["total_us"] else 0.0,
                "p99_us": round(p99["stages"].get(stage, 0.0), 3),
                "p99_share": round(p99["stages"].get(stage, 0.0)
                                   / p99["total_us"], 4)
                if p99["total_us"] else 0.0,
                "mean_share": round(mean_shares.get(stage, 0.0)
                                    / counted, 4) if counted else 0.0,
            })
        return rows

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (dashboard + ExperimentResult payload)."""
        p50 = self.quantile_request(0.50)
        p99 = self.quantile_request(0.99)
        dom_stage, dom_share = self.dominant_stage(0.99)
        return {
            "label": self.label,
            "requests": len(self.requests),
            "p50_total_us": round(p50["total_us"], 3) if p50 else 0.0,
            "p99_total_us": round(p99["total_us"], 3) if p99 else 0.0,
            "dominant_stage_p99": dom_stage,
            "dominant_share_p99": round(dom_share, 4),
            "named_coverage_p99": round(self.named_coverage(0.99), 4),
            "table": self.table(),
        }


#: sort key of a heap entry below: its negated start
_NEG_START = itemgetter(1)


def _attribute(root: Span, first_child: Dict[int, Span],
               next_sibling: Dict[int, Span],
               stages: Dict[Tuple[str, str], str],
               out: Dict[str, float]) -> None:
    """Attribute [root.start, root.end) to stages by an event sweep.

    Walks the root's subtree of finished spans level by level and clips
    each span to the root's window in the same pass.  Spans are
    causality chains, not nested intervals — a child routinely outlives
    its parent — so each elementary interval between span boundaries is
    charged to the *deepest* span covering it (ties to the later-started
    one, then to the later span id).  Intervals covered only by the
    root charge the root's own stage (queueing).  ``stages`` memoizes
    :func:`stage_of` per ``(name, category)``.
    """
    lo, hi = root.start_us, root.end_us
    if hi <= lo:
        return
    # Heap entries (-depth, -start, -span_id, end, stage): the top,
    # after popping expired entries, is the deepest span covering the
    # current elementary interval.  The key is unique per span, so the
    # top does not depend on the order entries were pushed in.
    clipped: List[Tuple[int, float, int, float, str]] = []
    bounds = {lo, hi}
    level = [root]
    neg_depth = 0
    while level:
        below: List[Span] = []
        for span in level:
            start, end = span.start_us, span.end_us
            cs = lo if lo > start else start
            ce = hi if hi < end else end
            if cs < ce:
                key = (span.name, span.category)
                stage = stages.get(key)
                if stage is None:
                    stage = stages[key] = stage_of(span)
                clipped.append((neg_depth, -cs, -span.span_id, ce, stage))
                bounds.add(cs)
                bounds.add(ce)
            child = first_child.get(span.span_id)
            while child is not None:
                below.append(child)
                child = next_sibling.get(child.span_id)
        level = below
        neg_depth -= 1
    clipped.sort(key=_NEG_START, reverse=True)
    edges = sorted(bounds)
    # The root's own entry spans the whole window, so it enters at the
    # first edge and never expires: the heap is never empty below.
    heap: List[Tuple[int, float, int, float, str]] = []
    nxt, n = 0, len(clipped)
    t0 = edges[0]
    for t1 in edges[1:]:
        while nxt < n and -clipped[nxt][1] <= t0:
            heapq.heappush(heap, clipped[nxt])
            nxt += 1
        while heap[0][3] <= t0:
            heapq.heappop(heap)
        stage = heap[0][4]
        out[stage] = out.get(stage, 0.0) + (t1 - t0)
        t0 = t1


def analyze(tracer: SpanTracer,
            root_prefixes: Sequence[str] = ("request:", "invoke:"),
            label: str = "") -> CriticalPathReport:
    """Build a critical-path report from one tracer's finished roots.

    Spans whose parent was dropped by the tracer's cap are unreachable
    from any stored root and are simply not attributed; run reports on
    un-truncated tracers for exact accounting.
    """
    # One pass finds the roots and links each finished span under its
    # parent.  An unfinished span is never linked, so it and everything
    # below it go unattributed.  The links are dict entries, not a list
    # per parent, so the pass allocates no container per span.
    roots: List[Span] = []
    first_child: Dict[int, Span] = {}
    next_sibling: Dict[int, Span] = {}
    for span in tracer.spans:
        parent_id = span.parent_id
        if parent_id is None:
            roots.append(span)
        elif span.end_us is not None:
            sibling = first_child.get(parent_id)
            if sibling is not None:
                next_sibling[span.span_id] = sibling
            first_child[parent_id] = span

    prefixes = tuple(root_prefixes)
    stages: Dict[Tuple[str, str], str] = {}
    requests: List[Dict[str, Any]] = []
    for root in roots:
        if root.end_us is None:
            continue
        if prefixes and not root.name.startswith(prefixes):
            continue
        attributed: Dict[str, float] = {}
        _attribute(root, first_child, next_sibling, stages, attributed)
        requests.append({
            "trace_id": root.trace_id,
            "name": root.name,
            "total_us": root.duration_us,
            "stages": attributed,
        })
    return CriticalPathReport(requests, label=label)


def dominant_shift(reports: "Dict[Any, CriticalPathReport]",
                   q: float = 0.99) -> List[Dict[str, Any]]:
    """Diff dominant stages across sweep points.

    ``reports`` maps sweep-point label -> report (insertion order is
    sweep order).  Each row carries the point's dominant stage at
    quantile ``q`` and whether it *shifted* from the previous point —
    the "the tail moved from the wire into the queue" signal.
    """
    rows: List[Dict[str, Any]] = []
    prev_stage: Optional[str] = None
    for point, report in reports.items():
        stage, share = report.dominant_stage(q)
        rows.append({
            "point": point,
            "dominant_stage": stage,
            "share": round(share, 4),
            "p99_total_us": round(
                (report.quantile_request(q) or {}).get("total_us", 0.0), 3),
            "shifted": prev_stage is not None and stage != prev_stage,
        })
        prev_stage = stage
    return rows
