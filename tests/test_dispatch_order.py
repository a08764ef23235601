"""Golden dispatch order of the kernel on the CI determinism points.

The model's outputs are pinned elsewhere (simbench digests, telemetry
goldens); this file pins the *schedule* that produced them.  It records
every process-generator resumption and every ``defer``-red callback, in
dispatch order, as ``(repr(now), qualname)`` and hashes the sequence
together with the kernel's ``events_processed`` total.  A kernel change
that claims "the event schedule is unchanged" must leave both equal to
``tests/golden/dispatch_order.json``.

Only the public surface is hooked -- ``Environment.process`` (to learn
which generator frames are processes), ``Environment.defer`` (to wrap
the callback) and the generators' own frames (``sys.setprofile``) --
never kernel internals, so the same file checks any kernel design.
Qualnames, not ``Process.name``: work-request names embed a
process-global counter, so names depend on what ran earlier in the
interpreter while qualnames do not.

Regenerate (only for an intended schedule change, saying why in
CHANGES.md)::

    PYTHONPATH=src python tests/test_dispatch_order.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.sim import Environment

GOLDEN = Path(__file__).parent / "golden" / "dispatch_order.json"


def _qualname(fn) -> str:
    fn = getattr(fn, "func", fn)  # functools.partial
    return getattr(fn, "__qualname__", type(fn).__qualname__)


def dispatch_digest(run) -> dict:
    """Run ``run()`` and digest the dispatch order it produced."""
    digest = hashlib.sha256()
    envs = {}
    #: id(frame) -> (frame, env, qualname); holding the frame keeps it
    #: alive (a finished generator drops it), so no other frame can
    #: reuse its id while recording
    frames = {}
    count = [0]

    def record(now: float, qualname: str) -> None:
        digest.update(f"{now!r} {qualname}\n".encode())
        count[0] += 1

    orig_process = Environment.process
    orig_defer = Environment.defer

    def process(self, generator, name=""):
        envs[id(self)] = self
        frame = generator.gi_frame
        if frame is not None:
            frames[id(frame)] = (frame, self,
                                 generator.gi_code.co_qualname)
        return orig_process(self, generator, name)

    def defer(self, delay, fn):
        envs[id(self)] = self
        qualname = _qualname(fn)

        def run_deferred():
            record(self.now, qualname)
            fn()

        orig_defer(self, delay, run_deferred)

    def profile(frame, event, _arg):
        if event == "call":
            entry = frames.get(id(frame))
            if entry is not None:
                record(entry[1].now, entry[2])

    Environment.process = process
    Environment.defer = defer
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        Environment.process = orig_process
        Environment.defer = orig_defer
    return {
        "sha256": digest.hexdigest(),
        "dispatches": count[0],
        "events_processed": sum(env.events_processed
                                for env in envs.values()),
    }


def _boutique():
    from repro.experiments import run_boutique_point
    run_boutique_point("palladium-dne", "Home Query", clients=4,
                       duration_us=40_000.0)


def _overload():
    from repro.experiments import run_overload_point
    run_overload_point("palladium-dne", 2.0, duration_us=60_000.0)


POINTS = {"boutique": _boutique, "overload": _overload}


def test_dispatch_order_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    for name, run in POINTS.items():
        assert dispatch_digest(run) == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_dispatch_order.py --record")
    table = {name: dispatch_digest(run) for name, run in POINTS.items()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(json.dumps(table, indent=1, sort_keys=True))
