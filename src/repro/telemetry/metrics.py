"""Labeled metrics: counters, gauges, bounded log-linear histograms.

The registry follows the Prometheus data model: a *family* has a name,
help text, and a fixed tuple of label names; each distinct label-value
combination is a *child* carrying the actual state.  Families are
created on first use and are idempotent — asking the registry for an
existing name returns the existing family (type mismatches raise).

Naming conventions (see docs/OBSERVABILITY.md):

* ``snake_case`` metric names, ``_total`` suffix on counters,
  ``_us`` suffix for microsecond quantities;
* label names are drawn from the small shared vocabulary
  ``tenant``, ``node``, ``engine``, ``fn``, ``via``, ``kind``,
  ``opcode``, ``config`` so metrics join across subsystems.

Histograms are log-linear (HdrHistogram-style): each power-of-two
octave is divided into a fixed number of linear sub-buckets, giving
bounded memory and bounded relative error regardless of sample count —
this is what replaces unbounded per-sample lists on hot paths.

Exporters are deterministic: children and labels are emitted in sorted
order, so two identical runs produce byte-identical text/JSON.

Two safety valves guard the registry itself:

* a **label-cardinality cap** (:class:`MetricsRegistry`'s
  ``max_series_per_family``): once a family holds that many distinct
  label-value tuples, further tuples are routed to a detached overflow
  child and counted in the ``telemetry_dropped_series_total{family}``
  self-metric instead of growing the registry without bound;
* **exemplars** (:meth:`Histogram.observe` with a ``trace_id``): each
  bucket keeps a tiny deterministic reservoir of ``(value, trace_id)``
  pairs so a slow bucket links back to a concrete trace — no RNG, the
  reservoir rotates by observation count.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: per-bucket exemplar reservoir size (deterministic rotation, no RNG)
EXEMPLAR_RESERVOIR = 2


def _format_value(value: float) -> str:
    """Prometheus-style number formatting (ints without trailing .0)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Exposition-format label-value escaping: backslash, quote, LF."""
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and line feed (quotes stay)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A value that can go up and down (queue depths, free buffers)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self):
        return self.value


class Histogram:
    """Bounded log-linear histogram with Prometheus ``le`` semantics.

    Bucket upper bounds start at ``low`` and within each octave
    ``[b, 2b)`` there are ``sub_buckets`` linearly spaced bounds, up to
    ``high``; one final ``+Inf`` bucket catches the rest.  ``observe``
    is O(log buckets); memory is fixed at construction.
    """

    kind = "histogram"

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max",
                 "_exemplars", "_exemplar_seen")

    def __init__(self, low: float = 1.0, high: float = 10_000_000.0,
                 sub_buckets: int = 4):
        if low <= 0 or high <= low or sub_buckets < 1:
            raise ValueError("need 0 < low < high and sub_buckets >= 1")
        bounds: List[float] = [low]
        octave = low
        while bounds[-1] < high:
            for i in range(1, sub_buckets + 1):
                bound = octave * (1.0 + i / sub_buckets)
                if bound > bounds[-1]:
                    bounds.append(bound)
                if bounds[-1] >= high:
                    break
            octave *= 2.0
        self.bounds: Tuple[float, ...] = tuple(bounds)
        #: counts[i] pairs with bounds[i] (value <= bound); the final
        #: slot is the +Inf bucket
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: bucket index -> list of (value, trace_id); lazily populated
        self._exemplars: Dict[int, List[Tuple[float, int]]] = {}
        #: bucket index -> exemplar observations ever (drives rotation)
        self._exemplar_seen: Dict[int, int] = {}

    def observe(self, value: float, trace_id: Optional[int] = None) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = bisect_left(self.bounds, value)
        self.counts[idx] += 1
        if trace_id is not None:
            seen = self._exemplar_seen.get(idx, 0)
            self._exemplar_seen[idx] = seen + 1
            slot = self._exemplars.setdefault(idx, [])
            if len(slot) < EXEMPLAR_RESERVOIR:
                slot.append((value, trace_id))
            else:
                # Deterministic reservoir: rotate by observation count,
                # so two identical runs keep identical exemplars.
                slot[seen % EXEMPLAR_RESERVOIR] = (value, trace_id)

    def bucket_index(self, value: float) -> int:
        """Index of the bucket ``observe(value)`` lands in."""
        return bisect_left(self.bounds, value)

    def quantile(self, q: float) -> float:
        """Approximate quantile ``q`` in [0, 1] from bucket bounds.

        Edge behaviour: an empty histogram returns 0.0; ``q == 0``
        returns the observed minimum, ``q == 1`` the observed maximum;
        every answer is clamped into ``[min, max]`` so a sparse bucket
        layout can never report a value outside what was observed.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        if self.count == 0:
            return 0.0
        if q == 0:
            return self.min
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                if i == len(self.bounds):  # +Inf bucket
                    return self.max
                return min(max(self.bounds[i], self.min), self.max)
        return self.max

    def exemplars(self) -> List[Tuple[float, float, int]]:
        """All exemplars as ``(bucket_bound, value, trace_id)`` rows,
        sorted by bucket (the +Inf bucket reports ``inf``)."""
        rows: List[Tuple[float, float, int]] = []
        for idx in sorted(self._exemplars):
            bound = (self.bounds[idx] if idx < len(self.bounds)
                     else float("inf"))
            for value, trace_id in self._exemplars[idx]:
                rows.append((bound, value, trace_id))
        return rows

    def snapshot(self):
        snap = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": [
                [bound, c]
                for bound, c in zip(self.bounds, self.counts)
                if c
            ],
            "overflow": self.counts[-1],
        }
        if self._exemplars:
            snap["exemplars"] = [
                [bound if bound != float("inf") else "+Inf", value, trace_id]
                for bound, value, trace_id in self.exemplars()
            ]
        return snap


class MetricFamily:
    """All children of one metric name (one per label-value tuple).

    ``max_series`` caps the distinct label-value tuples this family may
    hold; past the cap, new tuples share one *detached* overflow child
    (kept out of every exporter) and the registry's
    ``telemetry_dropped_series_total{family}`` self-metric counts the
    lost observations' series so the overflow is visible.
    """

    def __init__(self, name: str, help: str, labelnames: Sequence[str],
                 factory, registry=None, max_series: int = 0,
                 **factory_kwargs):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.kind: str = factory.kind
        self._factory = factory
        self._factory_kwargs = factory_kwargs
        self._children: Dict[Tuple[str, ...], object] = {}
        self._registry = registry
        self._max_series = max_series
        self._overflow = None

    def labels(self, *values) -> object:
        """The child for one label-value tuple (created on first use).

        Children are keyed by the ``str()`` of each value.  The raw
        tuple is tried first: a hit means the values already are those
        strings (``1 == "1"`` is False, so an int or bool never aliases
        a str key), and a wrong label count can never hit.
        """
        try:
            child = self._children.get(values)
        except TypeError:  # an unhashable value: the str() path keys it
            child = None
        if child is not None:
            return child
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"value(s) {self.labelnames}, got {len(values)}")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if self._max_series and len(self._children) >= self._max_series:
                return self._dropped_series()
            child = self._children[key] = self._factory(**self._factory_kwargs)
        return child

    def _dropped_series(self):
        """The shared sink for over-cap label tuples (never exported)."""
        if self._registry is not None:
            self._registry._count_dropped_series(self.name)
        if self._overflow is None:
            self._overflow = self._factory(**self._factory_kwargs)
        return self._overflow

    # -- unlabeled convenience: family acts as its own single child ----------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def children(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """Children in deterministic (sorted label values) order."""
        return iter(sorted(self._children.items()))

    def value(self, *values) -> float:
        """Scalar value of one child (counters/gauges)."""
        return self.labels(*values).value


class MetricsRegistry:
    """The process-wide (per-``Telemetry``) collection of families.

    ``max_series_per_family`` is the label-cardinality guard (see
    :class:`MetricFamily`); the default is generous — real label
    vocabularies here are tenants/nodes/engines, tens at most.

    ``observer`` is the piggyback hook for the SLO monitor
    (:mod:`repro.telemetry.monitor`): when set, it is invoked (with no
    arguments) on every family lookup — i.e. on every instrumentation
    site that fires — which is what lets the monitor evaluate rules in
    *simulated* time without ever creating a simulation event.
    """

    #: the self-metric family counting series lost to the cap
    DROPPED_SERIES = "telemetry_dropped_series_total"

    def __init__(self, max_series_per_family: int = 1024):
        self._families: Dict[str, MetricFamily] = {}
        self.max_series_per_family = max_series_per_family
        self.observer = None
        self._counting_drops = False

    def _count_dropped_series(self, family_name: str) -> None:
        if self._counting_drops:  # self-metric overflow: never recurse
            return
        self._counting_drops = True
        try:
            self._family(
                self.DROPPED_SERIES,
                "Observations lost to the per-family label-cardinality "
                "cap.", ("family",), Counter).labels(family_name).inc()
        finally:
            self._counting_drops = False

    def _family(self, name: str, help: str, labels: Sequence[str],
                factory, **kwargs) -> MetricFamily:
        observer = self.observer
        if observer is not None:
            observer()
        family = self._families.get(name)
        if family is not None:
            if family.kind != factory.kind:
                raise TypeError(
                    f"metric {name!r} already registered as {family.kind}")
            return family
        family = MetricFamily(name, help, labels, factory, registry=self,
                              max_series=self.max_series_per_family,
                              **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help, labels, Counter)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help, labels, Gauge)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (), low: float = 1.0,
                  high: float = 10_000_000.0,
                  sub_buckets: int = 4) -> MetricFamily:
        return self._family(name, help, labels, Histogram,
                            low=low, high=high, sub_buckets=sub_buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> Iterator[MetricFamily]:
        for name in sorted(self._families):
            yield self._families[name]

    # -- exporters -----------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """JSON-safe snapshot of every family (deterministic order)."""
        out: Dict[str, dict] = {}
        for family in self.families():
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.labelnames),
                "values": [
                    {
                        "labels": dict(zip(family.labelnames, key)),
                        "value": child.snapshot(),
                    }
                    for key, child in family.children()
                ],
            }
        return out

    def prometheus_text(self) -> str:
        """Prometheus exposition-format dump (sorted, deterministic)."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                label_str = ",".join(
                    f'{n}="{_escape_label_value(v)}"'
                    for n, v in zip(family.labelnames, key))
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(child.bounds, child.counts):
                        cumulative += count
                        le = ([label_str] if label_str else []) + \
                            [f'le="{_format_value(bound)}"']
                        lines.append(
                            f"{family.name}_bucket{{{','.join(le)}}} "
                            f"{cumulative}")
                    cumulative += child.counts[-1]
                    le = ([label_str] if label_str else []) + ['le="+Inf"']
                    lines.append(
                        f"{family.name}_bucket{{{','.join(le)}}} {cumulative}")
                    suffix = f"{{{label_str}}}" if label_str else ""
                    lines.append(f"{family.name}_sum{suffix} "
                                 f"{_format_value(child.sum)}")
                    lines.append(f"{family.name}_count{suffix} {child.count}")
                else:
                    suffix = f"{{{label_str}}}" if label_str else ""
                    lines.append(f"{family.name}{suffix} "
                                 f"{_format_value(child.snapshot())}")
        return "\n".join(lines) + ("\n" if lines else "")
