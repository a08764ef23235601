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
    parser.add_argument("--top", type=int, default=25,
                        help="rows in the flat pstats table (default 25)")
    parser.add_argument("--sort", default="tottime",
                        choices=("tottime", "cumtime", "ncalls"),
                        help="flat-table sort key (default tottime)")
    args = parser.parse_args(argv)

    if args.imports:
        return import_rollup(args.imports)
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
