"""Deterministic multiprocessing executor for experiment sweeps.

Every figure sweep in this reproduction is a grid of *independent*
simulation points: each point builds its own :class:`Environment`,
seeds its own RNGs, and returns a plain picklable dict.  That makes
the sweep embarrassingly parallel — and, because the merge happens in
sweep order regardless of completion order, the parallel result is
byte-identical to the serial one (docs/PERFORMANCE.md has the exact
rules).

Usage::

    points = parallel_map(run_overload_point,
                          [((config, m), {"duration_us": d})
                           for m in multipliers],
                          jobs=jobs)

``jobs=None`` consults the ``REPRO_JOBS`` environment variable;
``jobs<=1`` (the default) runs serially in-process — the exact code
path the determinism gates were built on.

Point functions must be module-level (picklable) and must not depend
on process-global mutable state for their *outputs*; kernel-level
counters (event ids, WR ids) are per-process but never observable in
a point's returned dict.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["parallel_map", "default_jobs"]

Call = Tuple[Sequence[Any], Dict[str, Any]]


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (defaults to 1 = serial)."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}")


def _invoke(payload: Tuple[Callable, Sequence[Any], Dict[str, Any]]):
    fn, args, kwargs = payload
    return fn(*args, **kwargs)


def parallel_map(fn: Callable, calls: Sequence[Call],
                 jobs: "int | None" = None) -> List[Any]:
    """Run ``fn(*args, **kwargs)`` for each call, in-order results.

    ``calls`` is a sequence of ``(args, kwargs)`` pairs.  With
    ``jobs <= 1`` every call runs serially in this process; otherwise
    the calls are fanned out to a worker pool and the results are
    returned **in call order** (``Pool.map`` semantics), so merging is
    deterministic no matter which worker finishes first.
    """
    calls = list(calls)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(calls) <= 1:
        return [fn(*args, **kwargs) for args, kwargs in calls]
    import multiprocessing  # only pooled sweeps pay for importing it

    # fork (where available) shares the already-imported tree with the
    # workers; spawn re-imports it.  Point outputs do not depend on
    # inherited process state, so both start methods merge identically.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    payloads = [(fn, args, kwargs) for args, kwargs in calls]
    with ctx.Pool(processes=min(jobs, len(calls))) as pool:
        return pool.map(_invoke, payloads)
