"""Workloads: load generators, echo pairs, Online Boutique, tenant traces."""

from .._lazy import lazy_exports
from .boutique import (
    BOUTIQUE_CHAINS,
    BOUTIQUE_FUNCTIONS,
    BOUTIQUE_PLACEMENT,
    BOUTIQUE_TENANT,
    CHAIN_PATHS,
    boutique_resolver,
    boutique_specs,
    deploy_boutique,
    path_payload,
)
from .echo import ECHO_TENANT, deploy_echo_pair, deploy_http_echo
from .generator import ClientFleet, ClosedLoopClient, DirectDriver, OpenLoopSource

#: the fluid aggregate model, diurnal schedules and tenant traces load
#: on first use
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "ClientClass": ".aggregate",
    "FlowAggregateModel": ".aggregate",
    "FlowBucket": ".aggregate",
    "build_buckets": ".aggregate",
    "weighted_percentile": ".aggregate",
    "RateSchedule": ".diurnal",
    "ScheduledSource": ".diurnal",
    "diurnal_schedule": ".diurnal",
    "TenantTrace": ".traces",
    "fig15_traces": ".traces",
})

__all__ = [
    "BOUTIQUE_CHAINS",
    "BOUTIQUE_FUNCTIONS",
    "BOUTIQUE_PLACEMENT",
    "BOUTIQUE_TENANT",
    "CHAIN_PATHS",
    "ClientClass",
    "ClientFleet",
    "ClosedLoopClient",
    "DirectDriver",
    "FlowAggregateModel",
    "FlowBucket",
    "build_buckets",
    "weighted_percentile",
    "ECHO_TENANT",
    "TenantTrace",
    "boutique_resolver",
    "boutique_specs",
    "deploy_boutique",
    "deploy_echo_pair",
    "deploy_http_echo",
    "OpenLoopSource",
    "RateSchedule",
    "ScheduledSource",
    "diurnal_schedule",
    "fig15_traces",
    "path_payload",
]
