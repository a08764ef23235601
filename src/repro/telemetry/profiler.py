"""Cycle accounting: where do the data plane's CPU cycles go?

The paper's Fig. 4/5 argument is a *breakdown*: SPRIGHT-style gateways
burn most of their cycles on data copies and kernel TCP protocol
processing, while Palladium's DNE spends them on descriptor handling
and useful work.  :class:`CycleLedger` reproduces that attribution for
the simulated cores in ``hw/cpu.py``: every instrumented charge site
reports the core-microseconds it consumed under one of five
categories:

``app``
    handler compute (``FunctionContext.compute``) — useful work.
``copy``
    data copies (cross-domain rule, kernel socket copies).
``descriptor``
    descriptor-passing machinery: DNE tx/rx processing, Comch channel
    CPU, sk_msg redirects, mempool ops.
``protocol``
    transport/protocol stacks: kernel TCP + IRQs, F-Stack, HTTP
    parse/serialize, sidecar interception, interrupt handling.
``scheduling``
    DWRR/tenant scheduling decisions.

Charges are core-local microseconds (already scaled by the core's
speed factor, i.e. matching ``busy_us`` accounting); ``cycles()``
converts to cycles with the host clock.  The ledger is passive
arithmetic — charging never touches the event loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["CYCLE_CATEGORIES", "CycleLedger"]

CYCLE_CATEGORIES: Tuple[str, ...] = (
    "app", "copy", "descriptor", "protocol", "scheduling",
)

#: categories that are pure overhead (everything except useful app work
#: and the descriptor passing that replaces it in a shared-memory DPU
#: design — the paper counts descriptor work as the "useful" cost of
#: doing business, copies/protocol as waste)
OVERHEAD_CATEGORIES: Tuple[str, ...] = ("copy", "protocol", "scheduling")


class CycleLedger:
    """Accumulates core-microseconds per category (and per site)."""

    def __init__(self, host_ghz: float = 3.7):
        self.host_ghz = host_ghz
        self._by_category: Dict[str, float] = {c: 0.0 for c in CYCLE_CATEGORIES}
        #: category -> where -> us, for drill-down
        self._by_site: Dict[str, Dict[str, float]] = {
            c: {} for c in CYCLE_CATEGORIES}

    def charge(self, category: str, core_us: float, where: str = "") -> None:
        """Attribute ``core_us`` core-microseconds to ``category``."""
        try:
            sites = self._by_site[category]
        except KeyError:
            raise ValueError(f"unknown cycle category {category!r}; "
                             f"expected one of {CYCLE_CATEGORIES}") from None
        if core_us <= 0.0:
            return
        self._by_category[category] += core_us
        if where:
            sites[where] = sites.get(where, 0.0) + core_us

    # -- queries -------------------------------------------------------------
    def us(self, category: str) -> float:
        return self._by_category[category]

    def cycles(self, category: str) -> float:
        """Core-us converted to cycles at the host clock."""
        return self._by_category[category] * self.host_ghz * 1e3

    def total_us(self, categories: Optional[Iterable[str]] = None) -> float:
        cats = CYCLE_CATEGORIES if categories is None else tuple(categories)
        return sum(self._by_category[c] for c in cats)

    def fractions(self) -> Dict[str, float]:
        """Per-category share of all attributed cycles (sums to 1)."""
        total = self.total_us()
        if total <= 0:
            return {c: 0.0 for c in CYCLE_CATEGORIES}
        return {c: self._by_category[c] / total for c in CYCLE_CATEGORIES}

    def overhead_fraction(self) -> float:
        """Copy+protocol+scheduling share — the Fig. 4/5 headline."""
        total = self.total_us()
        if total <= 0:
            return 0.0
        return self.total_us(OVERHEAD_CATEGORIES) / total

    def sites(self, category: str) -> List[Tuple[str, float]]:
        """Charge sites of one category, heaviest first."""
        return sorted(self._by_site.get(category, {}).items(),
                      key=lambda r: (-r[1], r[0]))

    def snapshot(self) -> Dict[str, object]:
        return {
            "host_ghz": self.host_ghz,
            "us": {c: self._by_category[c] for c in CYCLE_CATEGORIES},
            "fractions": self.fractions(),
            "overhead_fraction": self.overhead_fraction(),
        }

    def reset(self) -> None:
        """Zero all counters (e.g. after warmup)."""
        for c in CYCLE_CATEGORIES:
            self._by_category[c] = 0.0
            self._by_site[c].clear()
