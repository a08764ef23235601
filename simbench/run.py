#!/usr/bin/env python3
"""Host-side benchmark of the Palladium simulator.

Runs one workload's simulation points again and again for
``--seconds`` and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
is the run manifest.

    python3 simbench/run.py --workload boutique_closed --seed 1 --seconds 20
    python3 simbench/run.py --workload overload_open --seed 1 --trace 1

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb, passed_ratio); ``--trace 1`` alternates plain and
cProfile'd passes and reports the per-layer metrics.  Every point is
checked (conservation, ext_overload shape, determinism across passes,
committed digests for the seeds in digests.json, telemetry
passivity); a point that fails any check counts in ``failed``.

``--pin SEED...`` rewrites digests.json for the given seeds after an
intended change to the model.
"""

import argparse
import cProfile
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("boutique_closed", "overload_open", "boutique_observed")
#: environment variables that switch the simulator onto another code
#: path; recorded in the manifest, then cleared so every run of every
#: commit takes the default path
PATH_VARS = ("REPRO_SIM_SCHEDULER", "REPRO_SIM_BUCKET_US", "REPRO_JOBS")
#: fresh processes timed for setup_s, after one untimed warm-up that
#: fills the bytecode cache
SETUP_PROBES = 5
#: reference chunks before and after each probe's timed span
PROBE_CHUNKS = 4
PROBE_TIMEOUT_S = 60


def _commit():
    """HEAD of the checkout, or None outside a git work tree."""
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(seed: int, path_vars: dict) -> dict:
    return {"seed": seed, "commit": _commit(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cleared_env": path_vars}


# -- set-up ------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> dict:
    """In a fresh process: time the import of ``repro`` and the build of
    the workload's first scene (everything before Environment.run), at
    reference speed (hostref chunks before and after)."""
    meter = hostref.HostMeter()
    for _ in range(PROBE_CHUNKS):
        meter.tick(force=True)
    t0 = meter.now()
    import scenes
    t_import = meter.now()
    scenes.build(scenes.points_for(workload)[0], seed)
    t_build = meter.now()
    for _ in range(PROBE_CHUNKS):
        meter.tick(force=True)
    return {"import_s": (t_import - t0) / meter.slowdown,
            "build_s": (t_build - t_import) / meter.slowdown}


def setup_samples(workload: str, seed: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT_S, cwd=ROOT).stdout
        if i:
            samples.append(json.loads(out.strip().splitlines()[-1]))
    return samples


# -- passes and checks -------------------------------------------------------

class Pass:
    """One run of every point of a workload.

    A plain pass samples the host's speed (see hostref): ``raw_s`` is
    its host time without the reference chunks, ``wall_s`` that time
    at reference speed.  A profiled pass takes no samples, so the
    profile holds only the workload.
    """

    def __init__(self, points, seed, profile=False):
        import layers
        import scenes
        self.results = {}
        self.errors = {}
        prof = cProfile.Profile() if profile else None
        meter = None if profile else hostref.HostMeter()
        if meter is not None:
            meter.tick(force=True)
        clock = meter.now if meter is not None else time.perf_counter
        t0 = clock()
        if prof is not None:
            prof.enable()
        for point in points:
            try:
                self.results[point.name] = scenes.run_point(point, seed,
                                                            meter)
            except Exception:  # a point that raises is a failed point
                self.errors[point.name] = traceback.format_exc().strip()
        if prof is not None:
            prof.disable()
        self.raw_s = clock() - t0
        self.slowdown = 1.0
        if meter is not None:
            meter.tick(force=True)
            self.slowdown = meter.slowdown
        self.wall_s = self.raw_s / self.slowdown
        self.layers = (layers.rollup(pstats.Stats(prof))
                       if prof is not None else None)

    def span(self, field: str) -> float:
        return sum(getattr(r, field) for r in self.results.values())


def _pinned(workload: str, seed: int) -> dict:
    if not DIGESTS.exists():
        return {}
    table = json.loads(DIGESTS.read_text())
    return table.get(workload, {}).get(str(seed), {})


def failures(passes: list, pinned: dict) -> list:
    """(pass, point, problem) for every check a point execution fails;
    ``pinned`` maps point names to their committed digests."""
    first = passes[0].results
    found = []
    for i, p in enumerate(passes):
        for name, error in p.errors.items():
            found.append((i, name, error))
        for name, r in p.results.items():
            problems = list(r.problems)
            if name in first and r.digest != first[name].digest:
                problems.append("outputs differ from the first pass")
            if name in pinned and r.digest != pinned[name]:
                problems.append(f"digest {r.digest[:12]} != committed "
                                f"{pinned[name][:12]}")
            found += [(i, name, msg) for msg in problems]
    return found


def passivity_failures(seed: int, observed_pass: Pass) -> list:
    """Telemetry must not change the modelled outputs: run the observed
    point once without it and compare (one more attempted point)."""
    import scenes
    observed = scenes.points_for("boutique_observed")[0]
    plain = scenes.Point(observed.kind, observed.config, observed.load)
    try:
        ref = scenes.run_point(plain, seed)
    except Exception:
        return [("check", plain.name, traceback.format_exc().strip())]
    got = observed_pass.results.get(observed.name)
    if got is not None and got.model_digest != ref.model_digest:
        return [("check", observed.name,
                 "telemetry changed the modelled outputs")]
    return []


# -- metrics -----------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup, attempted, failed) -> dict:
    return {
        "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": _metric(statistics.median(
            s["import_s"] + s["build_s"] for s in setup), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
        "passed_ratio": _metric((attempted - failed) / attempted, "ratio"),
    }


def per_layer(plain, traced, setup) -> dict:
    import layers
    m = {}
    for bucket in layers.BUCKETS:
        m[f"{bucket}.self_s"] = _metric(statistics.median(
            p.layers[bucket][0] for p in traced), "s")
        if bucket in layers.LAYERS:
            m[f"{bucket}.calls"] = _metric(traced[0].layers[bucket][1],
                                           "count")
    m["setup.import_s"] = _metric(
        statistics.median(s["import_s"] for s in setup), "s")
    m["setup.build_s"] = _metric(
        statistics.median(s["build_s"] for s in setup), "s")
    sim_s = statistics.median(p.span("sim_s") for p in plain)
    m["run.sim_s"] = _metric(sim_s, "s")
    m["run.analyze_s"] = _metric(
        statistics.median(p.span("analyze_s") for p in plain), "s")
    raw_s = statistics.median(p.raw_s for p in plain)
    m["run.raw_wall_s"] = _metric(raw_s, "s")
    m["host.slowdown"] = _metric(
        statistics.median(p.slowdown for p in plain), "ratio")
    m["trace.overhead"] = _metric(
        statistics.median(p.raw_s for p in traced) / raw_s, "ratio")

    counts = {}
    for r in plain[0].results.values():
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0) + value
    for key, value in counts.items():
        m[key] = _metric(value, "count")
    m["sim.events_per_request"] = _metric(
        counts["sim.events"] / max(counts["workloads.completed"], 1),
        "count")
    m["sim.events_per_s"] = _metric(counts["sim.events"] / sim_s, "1/s")
    decided = counts["qos.admitted"] + counts["qos.rejected"]
    m["qos.admit_ratio"] = _metric(
        counts["qos.admitted"] / decided if decided else 0.0, "ratio")
    return m


# -- entry points ------------------------------------------------------------

def bench(args) -> int:
    import scenes
    setup = setup_samples(args.workload, args.seed)
    points = scenes.points_for(args.workload)
    plain, traced = [], []
    start = time.perf_counter()
    # plain and profiled passes alternate; at least one of each
    while (not plain or (args.trace and not traced)
           or time.perf_counter() - start < args.seconds):
        profile = bool(args.trace) and len(traced) < len(plain)
        (traced if profile else plain).append(
            Pass(points, args.seed, profile=profile))
    found = failures(plain + traced, _pinned(args.workload, args.seed))
    attempted = len(points) * len(plain + traced)
    if args.workload == "boutique_observed":
        found += passivity_failures(args.seed, plain[0])
        attempted += 1
    for i, name, msg in found:
        print(f"FAILED pass {i} {name}: {msg}", file=sys.stderr)
    failed = len({(i, name) for i, name, _ in found})
    metrics = (per_layer(plain, traced, setup) if args.trace
               else end_to_end(plain, setup, attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def pin(seeds) -> int:
    """Record the digests of one pass per workload for ``seeds``."""
    import scenes
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in WORKLOADS:
        for seed in seeds:
            p = Pass(scenes.points_for(workload), seed)
            found = failures([p], {})
            if found:
                for _, name, msg in found:
                    print(f"FAILED {workload} seed {seed} {name}: {msg}",
                          file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = {
                name: r.digest for name, r in sorted(p.results.items())}
            print(f"pinned {workload} seed {seed}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        default="boutique_closed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    path_vars = {var: os.environ.pop(var, None) for var in PATH_VARS}
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0
    if args.pin:
        return pin(args.pin)
    print(json.dumps({"manifest": manifest(args.seed, path_vars)}))
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
