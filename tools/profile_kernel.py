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

Usage::

    PYTHONPATH=src python tools/profile_kernel.py fig12
    PYTHONPATH=src python tools/profile_kernel.py fig16 --top 40
    PYTHONPATH=src python tools/profile_kernel.py fig16-tel
    PYTHONPATH=src python tools/profile_kernel.py ovl --sort cumtime
    PYTHONPATH=src python tools/profile_kernel.py \
        -m repro.experiments:run_fig12
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
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

#: repo packages rolled up as subsystems (first match wins)
SUBSYSTEMS = ("sim", "rdma", "platform", "ingress", "dne", "hw",
              "memory", "net", "dataplane", "workloads", "experiments",
              "telemetry")


def _subsystem(filename: str) -> str:
    """Bucket a frame's filename into an owning subsystem."""
    if "/repro/" in filename:
        tail = filename.split("/repro/", 1)[1]
        head = tail.split("/", 1)[0]
        if head.endswith(".py"):
            return "repro (top-level)"
        if head in SUBSYSTEMS:
            return head
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
    parser.add_argument("--top", type=int, default=25,
                        help="rows in the flat pstats table (default 25)")
    parser.add_argument("--sort", default="tottime",
                        choices=("tottime", "cumtime", "ncalls"),
                        help="flat-table sort key (default tottime)")
    args = parser.parse_args(argv)

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
