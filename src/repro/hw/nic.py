"""Ethernet NIC helpers: Receive Side Scaling (RSS).

Palladium's ingress uses RSS to spread external client connections over
worker processes pinned to distinct cores (§3.6), achieving the effect
of aRFS without special NIC support.  We model the RSS hash as a stable
hash of the flow identifier mapped onto the active queue set.
"""

from __future__ import annotations

import hashlib

__all__ = ["flow_hash", "rss_queue"]


def flow_hash(flow_id: object) -> int:
    """The 32-bit RSS hash of a flow identifier.

    Deterministic (Toeplitz-like stable hashing) and uniform across
    flows; a connection computes it once and reduces it modulo the
    live queue count at each pick.
    """
    digest = hashlib.sha256(repr(flow_id).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def rss_queue(flow_id: object, queues: int) -> int:
    """Map a flow identifier to one of ``queues`` RX queues.

    Stable, so a connection always lands on the same worker while the
    queue count holds.
    """
    if queues < 1:
        raise ValueError("queues must be >= 1")
    return flow_hash(flow_id) % queues
