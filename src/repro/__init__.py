"""Palladium reproduction: a DPU-enabled multi-tenant serverless data plane
over a simulated zero-copy multi-node RDMA fabric.

Reproduces Qi et al., *Palladium* (SIGCOMM 2025) as a discrete-event
simulation calibrated against the paper's microbenchmarks.  See
DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and table.

Quick start::

    from repro import Environment, ServerlessPlatform, Tenant, FunctionSpec

    env = Environment()
    plat = ServerlessPlatform(env)           # Palladium DNE data plane
    plat.add_tenant(Tenant("demo"))
    plat.deploy(FunctionSpec("server", "demo"), "worker1")
    plat.deploy(FunctionSpec("client", "demo"), "worker0")
    plat.start()

Importing ``repro`` itself loads only :mod:`repro.config` and the
lazy-export helper, so ``import repro.sim`` loads the kernel and
nothing else of the data plane.  The other exports load on first
use: ``Environment`` loads :mod:`repro.sim`; ``ChainSpec``,
``FunctionContext``, ``FunctionInstance``, ``FunctionSpec``,
``Message``, ``ServerlessPlatform`` and ``Tenant`` load the data plane
through :mod:`repro.platform`.
"""

from ._lazy import lazy_exports
from .config import (
    DEFAULT_COST_MODEL,
    MSEC,
    SEC,
    USEC,
    ClusterSpec,
    CostModel,
    NodeSpec,
    cost_model_overrides,
)

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "Environment": ".sim",
    "ChainSpec": ".platform",
    "FunctionContext": ".platform",
    "FunctionInstance": ".platform",
    "FunctionSpec": ".platform",
    "Message": ".platform",
    "ServerlessPlatform": ".platform",
    "Tenant": ".platform",
})

__version__ = "1.0.0"

__all__ = [
    "ChainSpec",
    "ClusterSpec",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Environment",
    "FunctionContext",
    "FunctionInstance",
    "FunctionSpec",
    "MSEC",
    "Message",
    "NodeSpec",
    "SEC",
    "ServerlessPlatform",
    "Tenant",
    "USEC",
    "cost_model_overrides",
    "__version__",
]
