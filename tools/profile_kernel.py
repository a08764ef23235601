#!/usr/bin/env python3
"""cProfile harness for the simulator's hot paths.

Profiles one of the reference workloads (or a custom ``-m module:fn``)
and prints two views:

* the classic pstats top-N table (by ``tottime``), and
* a per-subsystem rollup — cumulative self-time bucketed by the
  package that owns each frame (``sim`` kernel, ``rdma`` device
  models, ``platform`` runtime, ``ingress`` tier, ``hw`` substrate,
  ``experiments`` drivers, stdlib/builtins) — which answers the
  question the flat table can't: *where does the per-event budget go?*

The optimization loop this supports (see docs/PERFORMANCE.md): profile
a mix, attack the top subsystem, re-run the byte-identity gates, then
re-profile.  Profiling inflates wall-clock roughly 3-4x, so compare
profiled runs only with profiled runs.

``--events MIX`` counts instead of timing: it runs the mix once and
prints the kernel events dispatched per owner -- the module and
qualname of the process generator an event resumes, or of the
``defer``-red callback it runs -- rolled up by layer, plus the share
of events that were scheduled for the instant they fired in (the
same-instant FIFOs; the rest went through the heap).  The counts are
deterministic, so two runs of a commit agree exactly and a change in
them is a change in the event schedule.

``--imports MODULE`` prices start-up instead: it runs ``python -X
importtime -c "import MODULE"`` in a fresh process and rolls each
module's import self-time up by layer, with the buckets of
``simbench/layers.py`` (docs/PERFORMANCE.md, "Start-up cost").  Run it
with ``PYTHONDONTWRITEBYTECODE=1`` to include compiling the sources.

Usage::

    PYTHONPATH=src python tools/profile_kernel.py fig12
    PYTHONPATH=src python tools/profile_kernel.py fig16 --top 40
    PYTHONPATH=src python tools/profile_kernel.py fig16-tel
    PYTHONPATH=src python tools/profile_kernel.py ovl --sort cumtime
    PYTHONPATH=src python tools/profile_kernel.py --events fig16
    PYTHONPATH=src python tools/profile_kernel.py \
        -m repro.experiments:run_fig12
    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python tools/profile_kernel.py \
        --imports repro.experiments.fig16_boutique
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import os
import pstats
import subprocess
import sys
from collections import defaultdict

#: the reference mixes (mirrors benchmarks/test_bench_host_perf.py);
#: ``fig16-tel`` is the fig16 point with Telemetry installed, so the
#: rollup's ``telemetry`` row and the growth of the other rows against
#: ``fig16`` price the instrumentation's on-cost
WORKLOADS = {
    "fig16": ("repro.experiments", "run_boutique_point",
              ("palladium-dne", "Home Query"),
              {"clients": 8, "duration_us": 120_000.0}),
    "fig16-tel": ("repro.experiments", "run_boutique_point",
                  ("palladium-dne", "Home Query"),
                  {"clients": 8, "duration_us": 120_000.0,
                   "with_telemetry": True}),
    "fig12": ("repro.experiments", "run_fig12", (),
              {"sizes": (256, 4096), "concurrency": 4,
               "duration_us": 20_000.0}),
    "ovl": ("repro.experiments", "run_overload_point",
            ("palladium-dne", 2.0), {"duration_us": 60_000.0}),
}

SIMBENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "simbench")


def _subsystem(filename: str) -> str:
    """Bucket a frame's filename into an owning subsystem."""
    if "/repro/" in filename:
        tail = filename.split("/repro/", 1)[1]
        head = tail.split("/", 1)[0]
        if head.endswith(".py"):
            return "repro (top-level)"
        return head
    if filename.startswith("<") or filename.startswith("~"):
        return "builtins"
    return "stdlib/other"


def rollup(stats: pstats.Stats) -> dict:
    """Sum self-time (tottime) per subsystem; returns name -> seconds."""
    buckets: dict = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        buckets[_subsystem(filename)] += tottime
    return dict(buckets)


def import_rollup(module: str) -> int:
    """Print the per-layer import self-time of ``import module``."""
    sys.path.insert(0, SIMBENCH_DIR)
    import layers

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        capture_output=True, text=True)
    prefix = "import time:"
    lines = proc.stderr.splitlines()
    if proc.returncode != 0:
        for line in lines:
            if not line.startswith(prefix):
                print(line, file=sys.stderr)
        return proc.returncode
    self_us = {bucket: 0 for bucket in layers.BUCKETS}
    count = {bucket: 0 for bucket in layers.BUCKETS}
    for line in lines:
        if not line.startswith(prefix):
            continue
        self_col, _cumulative, name = line[len(prefix):].split("|")
        if not self_col.strip().isdigit():
            continue  # the header row
        name = name.strip()
        if name in sys.builtin_module_names:
            bucket = "builtins"
        elif name == "repro" or name.startswith("repro."):
            # a stand-in filename for the module's frames
            head = name.split(".")[1] if "." in name else "__init__"
            path = layers.REPRO_DIR + head
            bucket = layers.layer_of(
                path + (os.sep if os.path.isdir(path) else ".py"))
        else:
            bucket = "other"
        self_us[bucket] += int(self_col)
        count[bucket] += 1
    total = sum(self_us.values())
    print(f"== import {module}: self-time by layer "
          f"(PYTHONDONTWRITEBYTECODE="
          f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')}) ==")
    print(f"  {'layer':<11}  {'modules':>7}  {'self':>9}  share")
    for bucket in sorted(self_us, key=lambda b: -self_us[b]):
        if count[bucket]:
            print(f"  {bucket:<11}  {count[bucket]:7d}  "
                  f"{self_us[bucket] / 1e3:7.1f}ms  "
                  f"{100.0 * self_us[bucket] / total:5.1f}%")
    repro_modules = sum(count[b] for b in layers.LAYERS)
    print(f"  {'total':<11}  {sum(count.values()):7d}  "
          f"{total / 1e3:7.1f}ms  100.0%  ({repro_modules} repro modules)")
    return 0


def event_counts(fn, fn_args, fn_kwargs) -> dict:
    """Run ``fn`` once, counting kernel dispatches by owner.

    Wraps ``Process._resume`` (one call per event that resumes a
    process) and the callbacks handed to ``Environment.defer``; every
    other dispatch (condition checks, plain callbacks, exits nobody
    waits on) counts as ``(kernel, other)``.
    """
    from repro.sim import core

    counts: dict = defaultdict(int)
    owners: dict = {}
    envs: list = []
    orig_init = core.Environment.__init__
    orig_resume = core.Process._resume
    orig_defer = core.Environment.defer

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        envs.append(self)

    def resume(self, event):
        code = self._generator.gi_code
        owner = owners.get(code)
        if owner is None:
            frame = self._generator.gi_frame
            module = frame.f_globals.get("__name__", "?") if frame else "?"
            owner = owners[code] = (module, code.co_qualname)
        counts[owner] += 1
        orig_resume(self, event)

    def defer(self, delay, callback):
        target = getattr(callback, "func", callback)  # functools.partial
        code = getattr(target, "__code__", None)
        owner = ((target.__module__, code.co_qualname) if code is not None
                 else (type(target).__module__, type(target).__qualname__))

        def run():
            counts[owner] += 1
            callback()

        orig_defer(self, delay, run)

    core.Environment.__init__ = init
    core.Process._resume = resume
    core.Environment.defer = defer
    try:
        fn(*fn_args, **fn_kwargs)
    finally:
        core.Environment.__init__ = orig_init
        core.Process._resume = orig_resume
        core.Environment.defer = orig_defer
    total = sum(env.events_processed for env in envs)
    # every heap push took an eid; those still queued never fired
    from_heap = sum(env._eid - len(env._heap) for env in envs)
    counts[("kernel", "other")] = total - sum(counts.values())
    return {"counts": dict(counts), "events": total,
            "same_instant": total - from_heap}


def _module_layer(module: str) -> str:
    """``repro.dne.engine`` -> ``dne``; the top-level modules count as
    ``config`` (as in ``simbench/layers.py``); non-repro owners stay."""
    parts = module.split(".")
    if parts[0] != "repro":
        return module
    return parts[1] if len(parts) > 2 else "config"


def print_event_counts(label: str, result: dict, top: int) -> None:
    counts, total = result["counts"], result["events"]
    print(f"== {label}: kernel events by owner (module, qualname) ==")
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    width = max(len(f"{m}:{q}") for (m, q), _n in rows[:top])
    for (module, qualname), n in rows[:top]:
        print(f"  {module + ':' + qualname:<{width}}  {n:9d}  "
              f"{100.0 * n / total:5.1f}%")
    if len(rows) > top:
        rest = sum(n for _owner, n in rows[top:])
        print(f"  {f'({len(rows) - top} more)':<{width}}  {rest:9d}  "
              f"{100.0 * rest / total:5.1f}%")
    layers: dict = defaultdict(int)
    for (module, _qualname), n in counts.items():
        layers[_module_layer(module)] += n
    print(f"== {label}: kernel events by layer ==")
    for layer, n in sorted(layers.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {layer:<12}  {n:9d}  {100.0 * n / total:5.1f}%")
    same = result["same_instant"]
    print(f"  {'total':<12}  {total:9d}  100.0%")
    print(f"  same-instant: {same} of {total} events "
          f"({100.0 * same / total:.1f}%) skipped the heap")


def resolve(spec: str):
    """``module:function`` -> callable."""
    module_name, _, fn_name = spec.partition(":")
    if not fn_name:
        raise SystemExit(f"-m expects module:function, got {spec!r}")
    module = importlib.import_module(module_name)
    return getattr(module, fn_name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", nargs="?", default="fig12",
                        choices=sorted(WORKLOADS),
                        help="reference mix to profile (default: fig12)")
    parser.add_argument("-m", "--module", metavar="MOD:FN",
                        help="profile a custom module:function instead "
                             "(called with no arguments)")
    parser.add_argument("--imports", metavar="MODULE",
                        help="roll up the import self-time of MODULE by "
                             "layer in a fresh process, instead of "
                             "profiling a workload")
    parser.add_argument("--events", metavar="MIX", choices=sorted(WORKLOADS),
                        help="count kernel events by owner for MIX "
                             "instead of profiling it")
    parser.add_argument("--top", type=int, default=25,
                        help="rows in the flat pstats table (default 25)")
    parser.add_argument("--sort", default="tottime",
                        choices=("tottime", "cumtime", "ncalls"),
                        help="flat-table sort key (default tottime)")
    args = parser.parse_args(argv)

    if args.imports:
        return import_rollup(args.imports)
    if args.events:
        module_name, fn_name, fn_args, fn_kwargs = WORKLOADS[args.events]
        fn = getattr(importlib.import_module(module_name), fn_name)
        print_event_counts(args.events,
                           event_counts(fn, fn_args, fn_kwargs), args.top)
        return 0
    if args.module:
        fn, fn_args, fn_kwargs = resolve(args.module), (), {}
        label = args.module
    else:
        module_name, fn_name, fn_args, fn_kwargs = WORKLOADS[args.workload]
        fn = getattr(importlib.import_module(module_name), fn_name)
        label = args.workload

    profile = cProfile.Profile()
    profile.enable()
    fn(*fn_args, **fn_kwargs)
    profile.disable()

    stats = pstats.Stats(profile)
    total = sum(row[2] for row in stats.stats.values())  # type: ignore

    print(f"== {label}: top {args.top} by {args.sort} ==")
    stats.sort_stats(args.sort).print_stats(args.top)

    print(f"== {label}: per-subsystem self-time rollup ==")
    buckets = rollup(stats)
    width = max(len(name) for name in buckets)
    for name, seconds in sorted(buckets.items(), key=lambda kv: -kv[1]):
        share = 100.0 * seconds / total if total else 0.0
        print(f"  {name:<{width}}  {seconds:8.3f}s  {share:5.1f}%")
    print(f"  {'total':<{width}}  {total:8.3f}s  100.0%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
