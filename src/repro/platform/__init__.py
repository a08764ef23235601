"""Serverless platform: functions, tenants, I/O library, coordinator, assembly."""

from .._lazy import lazy_exports
from .cluster import ServerlessPlatform, build_palladium_dne
from .coordinator import Coordinator
from .function import FunctionContext, FunctionInstance, FunctionSpec, Message
from .iolib import (
    InvokeTimeout,
    IoLibrary,
    KernelTcpFallback,
    NodeRuntime,
    SendError,
)
from .tenant import ChainSpec, Tenant

#: the autoscaler and the elastic platform load on first use
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "FunctionAutoscaler": ".autoscaling",
    "ElasticPlatform": ".elasticity",
    "ServiceGroup": ".elasticity",
})

__all__ = [
    "ChainSpec",
    "Coordinator",
    "ElasticPlatform",
    "FunctionAutoscaler",
    "FunctionContext",
    "FunctionInstance",
    "FunctionSpec",
    "InvokeTimeout",
    "IoLibrary",
    "KernelTcpFallback",
    "Message",
    "NodeRuntime",
    "SendError",
    "ServerlessPlatform",
    "ServiceGroup",
    "Tenant",
    "build_palladium_dne",
]
