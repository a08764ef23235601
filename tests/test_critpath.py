"""Critical-path attribution: stage mapping, the deepest-active-span
sweep, report quantiles, and the dominant-stage shift.

The synthetic tests build tiny span forests on a fake clock and check
the attribution arithmetic exactly; the acceptance test runs a real
instrumented boutique point and requires >= 90% of the p99 latency to
land in *named* stages.  A differential property checks the single-walk
analysis against the straightforward per-root reference it replaced.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import run_boutique_point
from repro.telemetry import CriticalPathReport, SpanTracer, analyze, dominant_shift
from repro.telemetry.critpath import stage_of


class FakeClock:
    def __init__(self):
        self.now = 0.0


def span_at(tracer, clock, name, start, end, parent=None, category=""):
    clock.now = start
    s = tracer.start_span(name, parent=parent, category=category)
    clock.now = end
    tracer.end_span(s)
    return s


@pytest.fixture
def clock_tracer():
    clock = FakeClock()
    return clock, SpanTracer(clock)


class TestStageOf:
    def test_known_prefixes(self, clock_tracer):
        clock, tracer = clock_tracer
        cases = [
            ("request:/home", "", "queueing"),
            ("invoke:cart", "", "queueing"),
            ("engine.tx", "", "engine.tx"),
            ("engine.rx", "", "engine.rx"),
            ("rdma.write", "", "rdma.send"),
            ("fn.exec:frontend", "", "fn.exec"),
            ("fn.invoke:cart", "", "fn.invoke"),
            ("iolib.send", "", "iolib"),
            ("gw.accept", "", "ingress"),
            ("migrate.state", "", "migration"),
        ]
        for name, category, stage in cases:
            s = span_at(tracer, clock, name, 0, 1, category=category)
            assert stage_of(s) == stage, name

    def test_category_fallbacks_and_other(self, clock_tracer):
        clock, tracer = clock_tracer
        assert stage_of(span_at(tracer, clock, "weird", 0, 1,
                                category="rdma")) == "rdma.send"
        assert stage_of(span_at(tracer, clock, "weird", 0, 1,
                                category="function")) == "fn.exec"
        assert stage_of(span_at(tracer, clock, "weird.thing", 0, 1,
                                category="custom")) == "other:custom"


class TestAttribution:
    def test_childless_root_is_pure_queueing(self, clock_tracer):
        clock, tracer = clock_tracer
        span_at(tracer, clock, "request:/x", 0.0, 50.0)
        report = analyze(tracer)
        assert len(report) == 1
        assert report.requests[0]["stages"] == {"queueing": 50.0}

    def test_gaps_around_a_child_are_queueing(self, clock_tracer):
        clock, tracer = clock_tracer
        clock.now = 0.0
        root = tracer.start_span("request:/x")
        span_at(tracer, clock, "fn.exec:f", 10.0, 30.0, parent=root)
        clock.now = 40.0
        tracer.end_span(root)
        stages = analyze(tracer).requests[0]["stages"]
        assert stages == {"queueing": 20.0, "fn.exec": 20.0}

    def test_child_outliving_its_parent_still_attributes(self, clock_tracer):
        # The causality-chain shape: rdma.send hands off to engine.rx
        # which outlives it, then fn.exec outlives that — each instant
        # must charge the deepest span active at that instant.
        clock, tracer = clock_tracer
        clock.now = 0.0
        root = tracer.start_span("request:/x")
        clock.now = 0.0
        rdma = tracer.start_span("rdma.send", parent=root)
        clock.now = 5.0
        rx = tracer.start_span("engine.rx", parent=rdma)
        clock.now = 6.0
        tracer.end_span(rdma)
        clock.now = 10.0
        fn = tracer.start_span("fn.exec:f", parent=rx)
        clock.now = 12.0
        tracer.end_span(rx)
        clock.now = 90.0
        tracer.end_span(fn)
        clock.now = 100.0
        tracer.end_span(root)
        stages = analyze(tracer).requests[0]["stages"]
        # 0-5 rdma (depth 1), 5-10 engine.rx (deeper than rdma in
        # 5-6), 10-90 fn.exec (deepest), 90-100 root self = queueing
        assert stages["rdma.send"] == pytest.approx(5.0)
        assert stages["engine.rx"] == pytest.approx(5.0)
        assert stages["fn.exec"] == pytest.approx(80.0)
        assert stages["queueing"] == pytest.approx(10.0)
        assert sum(stages.values()) == pytest.approx(100.0)

    def test_unfinished_children_are_ignored(self, clock_tracer):
        clock, tracer = clock_tracer
        clock.now = 0.0
        root = tracer.start_span("request:/x")
        clock.now = 2.0
        tracer.start_span("fn.exec:f", parent=root)  # never ended
        clock.now = 10.0
        tracer.end_span(root)
        stages = analyze(tracer).requests[0]["stages"]
        assert stages == {"queueing": 10.0}

    def test_unfinished_roots_and_foreign_roots_excluded(self, clock_tracer):
        clock, tracer = clock_tracer
        clock.now = 0.0
        tracer.start_span("request:/open")  # never finished
        span_at(tracer, clock, "gc.sweep", 0.0, 5.0)  # not a request
        span_at(tracer, clock, "request:/done", 0.0, 5.0)
        report = analyze(tracer)
        assert len(report) == 1
        assert report.requests[0]["name"] == "request:/done"

    def test_stage_totals_cover_every_request_exactly(self, clock_tracer):
        clock, tracer = clock_tracer
        for i in range(5):
            t0 = i * 100.0
            clock.now = t0
            root = tracer.start_span("request:/x")
            span_at(tracer, clock, "fn.exec:f", t0 + 1.0, t0 + 7.0,
                    parent=root)
            clock.now = t0 + 10.0
            tracer.end_span(root)
        for req in analyze(tracer).requests:
            assert sum(req["stages"].values()) == pytest.approx(
                req["total_us"])


class TestReport:
    def _report(self, totals):
        return CriticalPathReport([
            {"trace_id": i, "name": "request:/x", "total_us": t,
             "stages": {"fn.exec": t * 0.7, "queueing": t * 0.3}}
            for i, t in enumerate(totals)
        ])

    def test_quantile_request_picks_sorted_index(self):
        report = self._report([30.0, 10.0, 20.0, 40.0])
        assert report.quantile_request(0.0)["total_us"] == 10.0
        assert report.quantile_request(0.5)["total_us"] == 30.0
        assert report.quantile_request(1.0)["total_us"] == 40.0

    def test_empty_report_is_graceful(self):
        report = CriticalPathReport([])
        assert report.quantile_request(0.5) is None
        assert report.stage_shares(0.99) == {}
        assert report.dominant_stage() == ("", 0.0)
        assert report.named_coverage() == 0.0
        assert report.table() == []

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            self._report([1.0]).quantile_request(1.5)

    def test_named_coverage_excludes_other(self):
        report = CriticalPathReport([{
            "trace_id": 1, "name": "request:/x", "total_us": 10.0,
            "stages": {"fn.exec": 6.0, "other:gc": 4.0},
        }])
        assert report.named_coverage(0.99) == pytest.approx(0.6)

    def test_table_lists_stages_in_canonical_order(self):
        rows = self._report([10.0, 20.0]).table()
        assert [r["stage"] for r in rows] == ["queueing", "fn.exec"]
        assert rows[1]["p99_share"] == pytest.approx(0.7)
        assert rows[1]["mean_share"] == pytest.approx(0.7)

    def test_dominant_shift_flags_transitions(self):
        low = self._report([10.0])
        high = CriticalPathReport([{
            "trace_id": 1, "name": "request:/x", "total_us": 100.0,
            "stages": {"queueing": 80.0, "fn.exec": 20.0},
        }])
        rows = dominant_shift({"1x": low, "2x": low, "4x": high})
        assert [r["shifted"] for r in rows] == [False, False, True]
        assert rows[2]["dominant_stage"] == "queueing"


class TestBoutiqueAcceptance:
    @pytest.fixture(scope="class")
    def tracer(self):
        metrics = run_boutique_point(
            "palladium-dne", "Home Query", clients=4,
            duration_us=40_000.0, with_telemetry=True)
        return metrics["telemetry"].tracer

    @pytest.fixture(scope="class")
    def report(self, tracer):
        return analyze(tracer)

    def test_named_stages_cover_90pct_of_p99(self, report):
        assert len(report) > 50
        assert report.named_coverage(0.99) >= 0.90

    def test_attribution_is_exhaustive(self, report):
        for req in report.requests:
            assert sum(req["stages"].values()) == pytest.approx(
                req["total_us"], rel=1e-9)

    def test_matches_the_reference_analysis(self, tracer, report):
        want = _ref_analyze(tracer)
        assert [r["stages"] for r in report.requests] == \
            [r["stages"] for r in want.requests]
        assert report.to_dict() == want.to_dict()

    def test_to_dict_is_json_safe_and_complete(self, report):
        import json
        d = json.loads(json.dumps(report.to_dict()))
        assert d["requests"] == len(report)
        assert d["p99_total_us"] >= d["p50_total_us"] > 0
        assert d["table"]
        stages = {row["stage"] for row in d["table"]}
        assert "fn.exec" in stages


# -- differential reference: the two-pass analysis (subtree collection,
# then clipping and the sweep) that the single-walk version replaced;
# every stage float must match it bit for bit
def _ref_attribute(root, members, out):
    lo, hi = root.start_us, root.end_us
    if hi <= lo:
        return
    clipped = []
    bounds = {lo, hi}
    for span, depth in members:
        cs, ce = max(span.start_us, lo), min(span.end_us, hi)
        if ce <= cs:
            continue
        clipped.append((cs, ce, depth, span))
        bounds.add(cs)
        bounds.add(ce)
    clipped.sort(key=lambda item: item[0])
    edges = sorted(bounds)
    heap = []
    nxt = 0
    for t0, t1 in zip(edges, edges[1:]):
        while nxt < len(clipped) and clipped[nxt][0] <= t0:
            cs, ce, depth, span = clipped[nxt]
            nxt += 1
            heapq.heappush(heap,
                           (-depth, -cs, -span.span_id, ce, stage_of(span)))
        while heap and heap[0][3] <= t0:
            heapq.heappop(heap)
        stage = heap[0][4] if heap else stage_of(root)
        out[stage] = out.get(stage, 0.0) + (t1 - t0)


def _ref_subtree(root, children_of):
    members = []
    stack = [(root, 0)]
    while stack:
        span, depth = stack.pop()
        members.append((span, depth))
        for child in children_of.get(span.span_id, ()):
            if child.finished:
                stack.append((child, depth + 1))
    return members


def _ref_analyze(tracer, root_prefixes=("request:", "invoke:"), label=""):
    children_of = {}
    for span in tracer.spans:
        if span.parent_id is not None:
            children_of.setdefault(span.parent_id, []).append(span)
    for siblings in children_of.values():
        siblings.sort(key=lambda s: (s.start_us, s.span_id))
    requests = []
    for root in tracer.roots():
        if not root.finished:
            continue
        if root_prefixes and not any(root.name.startswith(p)
                                     for p in root_prefixes):
            continue
        stages = {}
        _ref_attribute(root, _ref_subtree(root, children_of), stages)
        requests.append({
            "trace_id": root.trace_id,
            "name": root.name,
            "total_us": root.duration_us,
            "stages": stages,
        })
    return CriticalPathReport(requests, label=label)


#: root names that match the default prefixes, a custom one, or none
_NAMES = ["request:/a", "invoke:cart", "migrate", "gc.sweep", "engine.tx",
          "engine.rx", "rdma.send", "fn.exec:f", "iolib.send", "weird"]
_CATEGORIES = ["", "rdma", "function", "engine", "custom"]
#: small grids so equal start times and zero-length spans are common;
#: the negative offset starts a child before its parent, so clipping
#: bites at both ends of the root's window
_OFFSETS = [0.0, 0.0, 0.5, 1.0, 2.5, 7.0, -1.0]
#: None leaves the span unfinished
_DURATIONS = [0.0, 0.5, 1.0, 3.0, 12.0, 40.0, None]


@st.composite
def span_forests(draw):
    """A list of span specs: (parent index or None, name, category,
    start offset from the parent, duration or None when unfinished)."""
    n = draw(st.integers(1, 24))
    specs = []
    for i in range(n):
        # -1 (a new root) is one choice among i + 1: forests stay deep
        parent = draw(st.integers(-1, i - 1))
        specs.append((
            parent if parent >= 0 else None,
            draw(st.sampled_from(_NAMES)),
            draw(st.sampled_from(_CATEGORIES)),
            draw(st.sampled_from(_OFFSETS)),
            draw(st.sampled_from(_DURATIONS)),
        ))
    max_spans = draw(st.one_of(st.just(250_000), st.integers(1, n)))
    return specs, max_spans


def _build(specs, max_spans):
    """Replay specs on a fake clock: every span starts in spec order
    and each finished one ends afterwards in end-time order."""
    clock = FakeClock()
    tracer = SpanTracer(clock, max_spans=max_spans)
    opened = []
    starts = []
    for parent, name, category, offset, _ in specs:
        start = (starts[parent] if parent is not None else 0.0) + offset
        clock.now = start
        starts.append(start)
        opened.append(tracer.start_span(
            name, parent=opened[parent] if parent is not None else None,
            category=category))
    ends = sorted((starts[i] + spec[4], i) for i, spec in enumerate(specs)
                  if spec[4] is not None)
    for end, i in ends:
        clock.now = end
        tracer.end_span(opened[i])
    return tracer


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(forest=span_forests(),
           prefixes=st.sampled_from([("request:", "invoke:"), ("migrate",),
                                     ()]))
    def test_matches_the_reference_analysis(self, forest, prefixes):
        tracer = _build(*forest)
        got = analyze(tracer, root_prefixes=prefixes)
        want = _ref_analyze(tracer, root_prefixes=prefixes)
        assert len(got.requests) == len(want.requests)
        for mine, ref in zip(got.requests, want.requests):
            assert mine["trace_id"] == ref["trace_id"]
            assert mine["stages"] == ref["stages"]
        assert got.to_dict() == want.to_dict()
