"""Start-up budget: a process imports only the modules it runs.

Package ``__init__``s re-export opt-in modules through the lazy table
of :mod:`repro._lazy`, so the paper-figure entry points and the bare
kernel load no figure, extension or opt-in subsystem they do not use
(docs/PERFORMANCE.md, "Start-up cost").  Each check runs in a fresh
interpreter, because the test process has long since imported the
whole tree.  The public surface stays what it was: every ``__all__``
name resolves, ``import *`` binds all of them, ``dir()`` lists them
and an unknown name still raises ``AttributeError``.  Last,
``tools/profile_kernel.py --imports`` attributes import time by layer.
"""

import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
TOOL = os.path.join(os.path.dirname(SRC), "tools", "profile_kernel.py")

#: every package under repro, top level included
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg)

#: what the two simbench entry points may load besides themselves: the
#: package and the shared harness both runners import
ENTRY_POINTS = ("repro.experiments.fig16_boutique",
                "repro.experiments.ext_overload")
HARNESS = ("repro.experiments", "repro.experiments.parallel",
           "repro.experiments.runner")

#: opt-in modules neither entry point runs
OPT_IN = ("repro.migration", "repro.faults", "repro.ingress.tier",
          "repro.ingress.balancer", "repro.workloads.aggregate",
          "repro.telemetry.monitor", "repro.platform.elasticity",
          "repro.platform.autoscaling")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_after(statement: str):
    return _fresh(f"""
        import json, sys
        {statement}
        print(json.dumps(sorted(sys.modules)))
    """)


def test_figure_entry_points_load_no_opt_in_module():
    loaded = _loaded_after("import " + ", ".join(ENTRY_POINTS))
    other_experiments = [
        m for m in loaded if m.startswith("repro.experiments.")
        and m not in ENTRY_POINTS + HARNESS]
    assert other_experiments == []
    opt_in = [m for m in loaded
              if any(m == o or m.startswith(o + ".") for o in OPT_IN)]
    assert opt_in == []
    assert "multiprocessing" not in loaded


def test_kernel_import_loads_only_the_kernel():
    loaded = _loaded_after("import repro.sim")
    outside = [m for m in loaded
               if m.startswith("repro.")
               and not m.startswith("repro.sim.")
               and m not in ("repro.sim", "repro.config", "repro._lazy")]
    assert outside == []


def test_every_package_surface_resolves():
    problems = _fresh(f"""
        import importlib, json
        problems = []
        for name in {PACKAGES!r}:
            pkg = importlib.import_module(name)
            exported = list(pkg.__all__)
            missing_dir = set(exported) - set(dir(pkg))
            if missing_dir:
                problems.append([name, "dir", sorted(missing_dir)])
            namespace = {{}}
            exec(f"from {{name}} import *", namespace)
            unbound = set(exported) - set(namespace)
            if unbound:
                problems.append([name, "import *", sorted(unbound)])
            for attr in exported:
                if getattr(pkg, attr) is not namespace.get(attr):
                    problems.append([name, "getattr", attr])
            try:
                getattr(pkg, "no_such_export")
            except AttributeError:
                pass
            else:
                problems.append([name, "unknown name resolved"])
        print(json.dumps(problems))
    """)
    assert problems == []
    assert {"repro.experiments", "repro.ingress", "repro.platform",
            "repro.telemetry", "repro.workloads"} <= set(PACKAGES)


def test_import_rollup_buckets_by_layer():
    proc = subprocess.run(
        [sys.executable, TOOL, "--imports", "repro.sim"], env=_env(),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = {line.split()[0] for line in proc.stdout.splitlines()[2:]}
    assert {"sim", "config", "other", "total"} <= layers
    assert not layers & {"platform", "dne", "rdma", "experiments"}
