"""The benchmark's scenes, seeded inputs, modelled outputs and checks.

Each workload is a list of simulation *points*.  A point builds one
Palladium (or baseline) cluster through the simulator's public API,
runs it, and reduces it to two things:

* ``model`` -- the canonical modelled outputs (client-visible results
  plus the model's own counters).  Its sha256 is the point's digest;
  a change that only speeds the simulator up must leave it identical.
* ``counts`` -- exact per-layer counters read from public attributes
  after the run (the benchmark's per-layer count metrics).

Inputs come only from the seed: the closed loop draws which client
runs which boutique chain and when it starts; the open loop draws its
Poisson arrivals from per-tenant ``random.Random`` streams.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines import build_dne, build_fuyao, build_spright
from repro.config import SEC, CostModel
from repro.experiments.ext_overload import (
    CAPACITY_RPS,
    DEADLINE_US,
    OVERLOAD_THROTTLE,
    QUEUE_CAPACITY,
    RATE_CAP_SLACK,
    TENANTS,
)
from repro.experiments.fig16_boutique import EVAL_CHAINS
from repro.ingress import FIngress, PalladiumIngress, TcpWorkerAdapter
from repro.platform import FunctionSpec, ServerlessPlatform, Tenant
from repro.qos import DROP_CODEL, DROP_TAIL, QueueBounds, qos_for_platform
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.telemetry.critpath import analyze
from repro.workloads import (
    BOUTIQUE_TENANT,
    CHAIN_PATHS,
    ClientFleet,
    OpenLoopSource,
    boutique_resolver,
    deploy_boutique,
    path_payload,
)

#: closed loop: idle warm-up (connections come up), then the measured
#: span; clients start within the first ``SPAWN_JITTER_US`` of it
BOUTIQUE_WARMUP_US = 80_000.0
BOUTIQUE_DURATION_US = 20_000.0
SPAWN_JITTER_US = 1_000.0
#: one client count below the saturation knee and one past it
BOUTIQUE_CLIENTS = (20, 80)

OVERLOAD_WARMUP_US = 160_000.0
OVERLOAD_DURATION_US = 100_000.0
#: open-loop goodput is measured from this far into the overload, once
#: DNE's shedding stack (CoDel, credits) has settled; ext_overload
#: measures from the same offset (25% of its 200 ms)
OVERLOAD_SETTLE_US = 50_000.0
OVERLOAD_CONFIGS = ("palladium-dne", "spright", "fuyao")
OVERLOAD_MULTIPLIERS = (0.5, 2.0)

#: simulated time per Environment.run call when the host meter samples
#: between calls; run(until=...) stops between events, so slicing
#: changes neither the event order nor the event count
SLICE_US = 250.0

#: ext_overload shape anchors at 2x, against fixed references: DNE
#: keeps >= 90% of the goodput its admission caps let through
#: (RATE_CAP_SLACK x capacity, its steady peak in ext_overload); a
#: tail-drop baseline below half of its calibrated capacity has collapsed
DNE_HOLD_SHARE = 0.9
COLLAPSE_SHARE = 0.5
ANCHOR_LOAD = 2.0


@dataclasses.dataclass(frozen=True)
class Point:
    """One simulation point of a workload."""

    kind: str          # "closed" (boutique clients) or "open" (overload)
    config: str
    load: float        # closed: client count; open: capacity multiplier
    observed: bool = False

    @property
    def key(self) -> str:
        """Names the point's inputs; ``observed`` shares them with the
        matching closed point so the two can be compared."""
        return f"{self.kind}:{self.config}:{self.load:g}"

    @property
    def name(self) -> str:
        return self.key + (":observed" if self.observed else "")

    def rng(self, seed: int, stream: str = "") -> random.Random:
        # str seeds are hashed with sha512, so the stream does not
        # depend on PYTHONHASHSEED
        return random.Random(f"{seed}:{self.key}:{stream}")


def points_for(workload: str) -> List[Point]:
    if workload == "boutique_closed":
        return [Point("closed", "palladium-dne", n) for n in BOUTIQUE_CLIENTS]
    if workload == "overload_open":
        return [Point("open", config, m)
                for config in OVERLOAD_CONFIGS
                for m in OVERLOAD_MULTIPLIERS]
    if workload == "boutique_observed":
        return [Point("closed", "palladium-dne", BOUTIQUE_CLIENTS[-1],
                      observed=True)]
    raise ValueError(f"unknown workload {workload!r}")


# -- seeded inputs -----------------------------------------------------------

def client_plan(point: Point, seed: int) -> List[Tuple[float, str]]:
    """(start offset us, chain) per closed-loop client, in start order.

    The chain counts are fixed (round-robin over the three evaluated
    chains); the seed draws which client gets which chain and when it
    starts, so the mix is the same for every seed.
    """
    rng = point.rng(seed, "clients")
    chains = [EVAL_CHAINS[i % len(EVAL_CHAINS)] for i in range(int(point.load))]
    rng.shuffle(chains)
    return sorted((rng.uniform(0.0, SPAWN_JITTER_US), chain)
                  for chain in chains)


def offered_rps(point: Point) -> Dict[str, float]:
    """Nominal open-loop rate per tenant (its share of capacity)."""
    capacity = CAPACITY_RPS[point.config]
    return {name: share * capacity * point.load
            for name, _, _, share in TENANTS}


def arrival_rngs(point: Point, seed: int) -> Dict[str, random.Random]:
    """One Poisson inter-arrival stream per tenant."""
    return {name: point.rng(seed, f"arrivals:{name}")
            for name, _, _, _ in TENANTS}


# -- scenes ------------------------------------------------------------------

def _boutique_scene(env: Environment, point: Point, seed: int):
    """The Fig. 16 palladium-dne scene with the seeded client plan."""
    cost = CostModel()
    plat = ServerlessPlatform(env, cost=cost, engine_builder=build_dne)
    plat.add_tenant(Tenant(BOUTIQUE_TENANT, pool_buffers=4096))
    deploy_boutique(plat)
    ingress = PalladiumIngress(env, plat.cluster, plat.fabric, cost,
                               boutique_resolver, min_workers=2,
                               recv_buffers=256)
    ingress.add_tenant(BOUTIQUE_TENANT, buffers=2048)
    plat.coordinator.subscribe(ingress.routes)
    plat.register_external(ingress.AGENT, "ingress")
    ingress.start()
    plat.start()
    fleets = {}
    for chain in EVAL_CHAINS:
        path = CHAIN_PATHS[chain]
        fleets[chain] = ClientFleet(env, plat.cluster, ingress, path=path,
                                    body_bytes=256,
                                    payload=path_payload(path),
                                    timeout_us=5 * SEC)
    plan = client_plan(point, seed)

    def kickoff():
        yield env.timeout(BOUTIQUE_WARMUP_US)
        started = 0.0
        for offset, chain in plan:
            if offset > started:
                yield env.timeout(offset - started)
                started = offset
            fleets[chain].spawn(1)

    env.process(kickoff(), name="kickoff")
    return plat, ingress, fleets


def _throttled(cost: CostModel) -> CostModel:
    """ext_overload's uniform engine-cost inflation."""
    t = OVERLOAD_THROTTLE
    fields = ("dne_tx_proc_us", "dne_rx_proc_us", "comch_e_cpu_us",
              "kernel_tcp_us", "kernel_irq_us", "sk_msg_us",
              "sk_msg_interrupt_us", "fuyao_tx_us", "fuyao_rx_us")
    return dataclasses.replace(
        cost, **{f: getattr(cost, f) * t for f in fields})


def _relay(dst_fn: str):
    def handler(ctx, msg):
        reply = yield from ctx.invoke(dst_fn, msg.payload, msg.size)
        yield from ctx.respond(reply.payload, reply.size)
    return handler


def _echo(ctx, msg):
    yield from ctx.respond(msg.payload, msg.size)


def _tenant_resolver(path: str) -> Tuple[str, str]:
    tenant = path.strip("/")
    return tenant, f"relay-{tenant}"


def _overload_scene(env: Environment, point: Point, seed: int):
    """The ext_overload scene: three tenants on relay->echo chains,
    DNE with the full QoS stack or a tail-drop baseline."""
    cost = _throttled(CostModel())
    builder = {"palladium-dne": build_dne, "spright": build_spright,
               "fuyao": build_fuyao}[point.config]
    plat = ServerlessPlatform(env, cost=cost, engine_builder=builder)
    qos_on = point.config == "palladium-dne"
    capacity = CAPACITY_RPS[point.config]
    for name, weight, qos_class, share in TENANTS:
        tenant = Tenant(name, weight=weight, pool_buffers=1024)
        if qos_on:
            tenant.qos_class = qos_class
            tenant.deadline_us = DEADLINE_US
            tenant.rate_rps = RATE_CAP_SLACK * share * capacity
            tenant.burst = 64
        plat.add_tenant(tenant)
        relay = plat.deploy(FunctionSpec(f"relay-{name}", name,
                                         _relay(f"echo-{name}"),
                                         work_us=2.0, concurrency=64),
                            "worker0")
        relay.iolib.invoke_timeout_us = DEADLINE_US
        plat.deploy(FunctionSpec(f"echo-{name}", name, _echo,
                                 work_us=2.0, concurrency=64), "worker1")
    adapter = None
    if qos_on:
        plat.enable_qos(
            bounds=QueueBounds(QUEUE_CAPACITY, policy=DROP_CODEL,
                               codel_target_us=500.0,
                               codel_interval_us=5_000.0),
            credits=True, credit_base=48, credit_min=4,
            credit_low_water=8, credit_high_water=56,
            credit_sources=(PalladiumIngress.AGENT,),
        )
        qos = qos_for_platform(
            plat, service_us_estimate=(cost.dne_tx_proc_us
                                       + cost.comch_e_cpu_us) * 1.6)
        ingress = PalladiumIngress(env, plat.cluster, plat.fabric, cost,
                                   _tenant_resolver, min_workers=4,
                                   recv_buffers=128, qos=qos)
        for name, _, _, _ in TENANTS:
            ingress.add_tenant(name, buffers=1024)
        plat.coordinator.subscribe(ingress.routes)
        plat.register_external(ingress.AGENT, "ingress")
    else:
        plat.enable_qos(bounds=QueueBounds(QUEUE_CAPACITY, policy=DROP_TAIL))
        adapter = TcpWorkerAdapter(env, plat.runtimes["worker0"], cost,
                                   stack_kind=TcpWorkerAdapter.FSTACK)
        ingress = FIngress(env, plat.cluster, cost, _tenant_resolver,
                           {"worker0": adapter}, lambda fn: "worker0",
                           cores=2)
    ingress.start()
    plat.start()

    end_us = OVERLOAD_WARMUP_US + OVERLOAD_DURATION_US
    rngs = arrival_rngs(point, seed)
    sources = {
        name: OpenLoopSource(env, plat.cluster, ingress, rate_rps=rate,
                             path=f"/{name}", body_bytes=256,
                             rng=rngs[name], name=f"src-{name}",
                             deadline_us=DEADLINE_US)
        for name, rate in offered_rps(point).items()
    }

    def kickoff():
        yield env.timeout(OVERLOAD_WARMUP_US)
        for source in sources.values():
            env.process(source.run(until_us=end_us),
                        name=f"{source.name}-run")

    env.process(kickoff(), name="kickoff")
    return plat, ingress, sources, adapter


# -- a run -------------------------------------------------------------------

@dataclasses.dataclass
class PointRun:
    """A built point, ready to run (``build`` is the scene set-up)."""

    point: Point
    env: Environment
    plat: ServerlessPlatform
    ingress: object
    drivers: dict            # chain -> ClientFleet, or tenant -> source
    adapter: Optional[TcpWorkerAdapter] = None
    telemetry: Optional[Telemetry] = None

    @property
    def end_us(self) -> float:
        if self.point.kind == "closed":
            return BOUTIQUE_WARMUP_US + BOUTIQUE_DURATION_US
        return OVERLOAD_WARMUP_US + OVERLOAD_DURATION_US

    @property
    def measure_from(self) -> float:
        if self.point.kind == "closed":
            return BOUTIQUE_WARMUP_US + 0.3 * BOUTIQUE_DURATION_US
        return OVERLOAD_WARMUP_US + OVERLOAD_SETTLE_US

    def run(self, tick: Optional[Callable[[], None]] = None) -> None:
        """Run to the end; with ``tick``, in slices of ``SLICE_US``
        with ``tick()`` called between them."""
        if tick is None:
            self.env.run(until=self.end_us)
            return
        t = self.env.now
        while t < self.end_us:
            t = min(t + SLICE_US, self.end_us)
            self.env.run(until=t)
            tick()


def build(point: Point, seed: int) -> PointRun:
    env = Environment()
    telemetry = Telemetry.install(env) if point.observed else None
    if point.kind == "closed":
        plat, ingress, fleets = _boutique_scene(env, point, seed)
        return PointRun(point, env, plat, ingress, fleets,
                        telemetry=telemetry)
    plat, ingress, sources, adapter = _overload_scene(env, point, seed)
    return PointRun(point, env, plat, ingress, sources, adapter, telemetry)


@dataclasses.dataclass
class PointResult:
    point: Point
    model: dict
    counts: Dict[str, float]
    telemetry: dict
    problems: List[str]
    sim_s: float = 0.0
    analyze_s: float = 0.0

    @property
    def model_digest(self) -> str:
        return _sha(self.model)

    @property
    def digest(self) -> str:
        """Digest of every modelled output, telemetry included."""
        return _sha({"model": self.model, "telemetry": self.telemetry})


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_point(point: Point, seed: int, meter=None) -> PointResult:
    """Build, run, reduce and check one point, timing the run and the
    analysis after it.

    With a :class:`hostref.HostMeter`, the run is sliced so the meter
    can sample the host's speed, and the phases are timed on its clock.
    """
    clock = meter.now if meter is not None else time.perf_counter
    tick = meter.tick if meter is not None else None
    pr = build(point, seed)
    t1 = clock()
    pr.run(tick)
    t2 = clock()
    tel = {}
    if pr.telemetry is not None:
        pr.plat.export_metrics(pr.telemetry)
        report = analyze(pr.telemetry.tracer)
        tel = {"spans": len(pr.telemetry.tracer.spans),
               "spans_dropped": pr.telemetry.tracer.dropped,
               "critpath": report.to_dict()}
    t3 = clock()
    counts = layer_counts(pr)
    # kernel event counts and telemetry describe the simulator, not
    # the model, so they stay out of the digest
    counters = {k: v for k, v in counts.items()
                if not k.startswith(("sim.", "telemetry."))}
    model = (_closed_outputs(pr, counters) if point.kind == "closed"
             else _open_outputs(pr, counters))
    problems = conservation(pr) + anchor_problems(point, model)
    return PointResult(point, model, counts, tel, problems,
                       sim_s=t2 - t1, analyze_s=t3 - t2)


def _closed_outputs(pr: PointRun, counters: dict) -> dict:
    start = pr.measure_from
    chains = {}
    for chain, fleet in pr.drivers.items():
        samples = [s for c in fleet.clients for s in c.latency.samples]
        chains[chain] = {
            "clients": len(fleet.clients),
            "completed": fleet.total_completed(),
            "errors": fleet.total_errors(),
            "rejected": fleet.total_rejected(),
            "disconnected": fleet.disconnected_count(),
            "rps": fleet.rps(start, pr.env.now),
            "latency_sum_us": sum(samples),
            "latency_max_us": max(samples, default=0.0),
        }
    return {"now_us": pr.env.now, "chains": chains,
            "counters": counters}


def _open_outputs(pr: PointRun, counters: dict) -> dict:
    start = pr.measure_from
    tenants = {}
    for name, src in pr.drivers.items():
        tenants[name] = {
            "offered": src.offered,
            "good": src.good,
            "late": src.late,
            "rejected": src.rejected,
            "lost": src.lost(),
            "goodput_rps": src.goodput_rps(start, pr.env.now),
            "latency_sum_us": sum(src.latency.samples),
        }
    return {"now_us": pr.env.now, "tenants": tenants,
            "goodput_rps": sum(t["goodput_rps"] for t in tenants.values()),
            "counters": counters}


def layer_counts(pr: PointRun) -> Dict[str, float]:
    """Exact per-layer counters, read from public attributes."""
    plat, ingress = pr.plat, pr.ingress
    engines = list(plat.engines.values())
    rnics = [plat.fabric.rnic(node) for node in plat.fabric.nodes]
    instances = list(plat.functions.values())
    pools = [pool for runtime in plat.runtimes.values()
             for pool in runtime.pools.values()]
    pools += list(getattr(ingress, "pools", {}).values())
    qos = getattr(ingress, "qos", None)
    gate = qos.gate if qos is not None else None
    if pr.point.kind == "closed":
        offered = ingress.stats.accepted
        completed = sum(f.total_completed() for f in pr.drivers.values())
    else:
        offered = sum(s.offered for s in pr.drivers.values())
        completed = sum(s.completed for s in pr.drivers.values())
    tracer = pr.telemetry.tracer if pr.telemetry is not None else None
    return {
        "sim.events": pr.env.events_processed,
        "dne.tx_messages": sum(e.stats.tx_messages for e in engines),
        "dne.rx_messages": sum(e.stats.rx_messages for e in engines),
        "dne.dropped": sum(e.stats.dropped for e in engines),
        "dne.sched_dropped": sum(e.scheduler.dropped for e in engines),
        "rdma.ops_completed": sum(r.ops_completed for r in rnics),
        "rdma.rnr_stalls": sum(q.rnr_stalls for r in rnics
                               for q in r.srqs.values()),
        "memory.pool_gets": sum(p.gets for p in pools),
        "platform.inter_sends": sum(i.iolib.inter_sends for i in instances),
        "platform.retransmissions": sum(i.iolib.retransmissions
                                        for i in instances),
        "ingress.accepted": ingress.stats.accepted,
        "ingress.dropped": ingress.stats.dropped,
        "qos.admitted": gate.admitted if gate else 0,
        "qos.rejected": gate.rejected if gate else 0,
        "net.tx_messages": (pr.adapter.stack.stats.tx_messages
                            if pr.adapter is not None else 0),
        "telemetry.spans": len(tracer.spans) if tracer else 0,
        "telemetry.spans_dropped": tracer.dropped if tracer else 0,
        "workloads.offered": offered,
        "workloads.completed": completed,
    }


# -- checks ------------------------------------------------------------------

def conservation(pr: PointRun) -> List[str]:
    """Request-conservation invariants; returns the violations."""
    problems = []
    if pr.point.kind == "closed":
        # Each submitted request is answered (200 or 503), errored by
        # its timeout, or still in flight -- at most one per live client.
        clients = [c for f in pr.drivers.values() for c in f.clients]
        answered = sum(c.completed + c.errors + c.rejected for c in clients)
        live = sum(1 for c in clients if not c.disconnected)
        in_flight = pr.ingress.stats.accepted - answered
        if not 0 <= in_flight <= live:
            problems.append(f"closed loop: {pr.ingress.stats.accepted} "
                            f"submitted vs {answered} answered with "
                            f"{live} live clients")
        if len(clients) != int(pr.point.load):
            problems.append(f"{len(clients)} clients started, "
                            f"expected {int(pr.point.load)}")
    else:
        for name, src in pr.drivers.items():
            accounted = src.good + src.late + src.rejected + src.lost()
            if src.offered != accounted:
                problems.append(f"{name}: offered {src.offered} != good+"
                                f"late+rejected+lost {accounted}")
    return problems


def anchor_problems(point: Point, model: dict) -> List[str]:
    """The ext_overload shape anchors, checked on the 2x points."""
    if point.kind != "open" or point.load != ANCHOR_LOAD:
        return []
    goodput = model["goodput_rps"]
    capacity = CAPACITY_RPS[point.config]
    if point.config == "palladium-dne":
        floor = DNE_HOLD_SHARE * RATE_CAP_SLACK * capacity
        if goodput < floor:
            return [f"DNE goodput {goodput:.0f} rps at {point.load:g}x is "
                    f"below {floor:.0f} rps ({DNE_HOLD_SHARE:.0%} of its "
                    f"admission caps)"]
    elif goodput >= COLLAPSE_SHARE * capacity:
        return [f"{point.config} keeps {goodput / capacity:.0%} of its "
                f"capacity at {point.load:g}x: tail-drop did not collapse"]
    return []
