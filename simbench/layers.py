"""Per-layer attribution of profiled host time.

A layer is a package under ``src/repro/``.  Self-time (cProfile's
``tottime``) and calls are rolled up by the package that owns each
frame, with the bucketing of ``tools/profile_kernel.py``: C functions
go to ``builtins``; everything outside ``repro`` (stdlib, this
benchmark) to ``other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

import repro

#: frames under this directory belong to a layer
REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: one layer per package under src/repro/ (test_simbench checks that
#: none is missing); the modules at the top of the package (config,
#: __init__) count as ``config``.  faults and migration are opt-in
#: subsystems no workload runs: their share must stay 0.
LAYERS = ("sim", "dne", "rdma", "platform", "ingress", "memory", "net",
          "baselines", "qos", "hw", "dataplane", "workloads", "telemetry",
          "experiments", "faults", "migration", "config")
BUCKETS = LAYERS + ("builtins", "other")


def layer_of(filename: str) -> str:
    """Bucket a profiled frame's filename into its owning layer."""
    if filename.startswith(REPRO_DIR):
        head = filename[len(REPRO_DIR):].split(os.sep, 1)[0]
        if head.endswith(".py"):
            return "config"
        return head if head in LAYERS else "other"
    if filename.startswith(("<", "~")):
        return "builtins"
    return "other"


def rollup(stats: pstats.Stats) -> Dict[str, Tuple[float, int]]:
    """bucket -> (self seconds, calls).  A generator's calls include
    each of its resumptions, so ``calls`` follows event counts."""
    out = {bucket: [0.0, 0] for bucket in BUCKETS}
    for (filename, _line, _name), (_cc, nc, tottime, _ct, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        acc = out[layer_of(filename)]
        acc[0] += tottime
        acc[1] += nc
    return {bucket: (s, n) for bucket, (s, n) in out.items()}
