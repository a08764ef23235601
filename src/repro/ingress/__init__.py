"""Cluster ingress gateways: Palladium's RDMA-converting gateway and baselines."""

from .._lazy import lazy_exports
from .adapter import TcpWorkerAdapter
from .gateway import Autoscaler, ClientConnection, GatewayStats, GatewayWorker
from .palladium import PalladiumIngress
from .proxy import FIngress, KIngress, ProxyIngress

#: the multi-gateway tier and the RSS load balancer load on first use
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "IngressLoadBalancer": ".balancer",
    "ConsistentHashRing": ".tier",
    "FlowTable": ".tier",
    "GatewayShard": ".tier",
    "GatewayTier": ".tier",
    "TieredIngress": ".tier",
})

__all__ = [
    "Autoscaler",
    "ClientConnection",
    "ConsistentHashRing",
    "FIngress",
    "FlowTable",
    "GatewayShard",
    "GatewayStats",
    "GatewayTier",
    "GatewayWorker",
    "IngressLoadBalancer",
    "KIngress",
    "PalladiumIngress",
    "ProxyIngress",
    "TcpWorkerAdapter",
    "TieredIngress",
]
