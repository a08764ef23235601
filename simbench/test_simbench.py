"""Checks on the benchmark itself: layer map, seeding, digests.

    python3 -m pytest simbench -q
"""

import cProfile
import json
import pstats
import statistics
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import scenes  # noqa: E402

#: profiled self-time allowed outside any layer and outside builtins
#: (stdlib helpers such as random.expovariate, and this benchmark)
OTHER_MAX_SHARE = 0.05

#: the quickest real points: 20 boutique clients, and spright at 2x
CLOSED = scenes.points_for("boutique_closed")[0]
OPEN = next(p for p in scenes.points_for("overload_open")
            if p.config == "spright" and p.load == 2.0)


def test_every_package_maps_to_a_layer():
    src = HERE.parent / "src" / "repro"
    packages = {p.parent.name for p in src.glob("*/__init__.py")}
    assert packages, "no packages found"
    assert packages <= set(layers.LAYERS), packages - set(layers.LAYERS)


def test_profiled_time_lands_in_named_layers():
    prof = cProfile.Profile()
    prof.enable()
    for point in (CLOSED, OPEN):
        scenes.run_point(point, seed=1)
    prof.disable()
    buckets = layers.rollup(pstats.Stats(prof))
    total = sum(s for s, _ in buckets.values())
    assert buckets["other"][0] / total < OTHER_MAX_SHARE
    assert buckets["sim"][0] > 0 and buckets["dne"][0] > 0
    assert buckets["baselines"][0] > 0 and buckets["net"][0] > 0
    assert buckets["faults"] == buckets["migration"] == (0.0, 0)


def test_same_seed_same_digest():
    for point in (CLOSED, OPEN):
        a, b = scenes.run_point(point, 7), scenes.run_point(point, 7)
        assert a.digest == b.digest
        assert a.counts == b.counts
        assert not a.problems
        assert scenes.run_point(point, 8).digest != a.digest


def test_seed_changes_chain_split_not_mix():
    point = scenes.Point("closed", "palladium-dne", 80)
    plans = [scenes.client_plan(point, seed) for seed in range(10)]
    assert plans[0] == scenes.client_plan(point, 0)
    assert len({tuple(chain for _, chain in p) for p in plans}) == 10
    mixes = {tuple(sorted(Counter(chain for _, chain in p).items()))
             for p in plans}
    assert len(mixes) == 1
    assert all(0 <= t <= scenes.SPAWN_JITTER_US for p in plans for t, _ in p)


def arrivals(seed):
    """Run OPEN; return the requests reaching its gateway as
    (time, path), and each tenant's offered count."""
    pr = scenes.build(OPEN, seed)
    trace = []
    submit = pr.ingress.submit

    def record(conn, request):
        trace.append((pr.env.now, request.path))
        submit(conn, request)

    pr.ingress.submit = record
    pr.run()
    return trace, {name: src.offered for name, src in pr.drivers.items()}


def test_seed_changes_arrivals_not_offered_load():
    runs = [arrivals(seed) for seed in range(10)]
    assert arrivals(0) == runs[0]
    assert len({tuple(trace) for trace, _ in runs}) == len(runs)
    for tenant, rate in scenes.offered_rps(OPEN).items():
        expected = rate * scenes.OVERLOAD_DURATION_US / 1e6
        mean = statistics.fmean(offered[tenant] for _, offered in runs)
        assert abs(mean / expected - 1.0) < 0.05, (tenant, mean, expected)


def test_anchor_flags_a_dne_that_sheds_its_goodput():
    dne = scenes.Point("open", "palladium-dne", scenes.ANCHOR_LOAD)
    floor = (scenes.DNE_HOLD_SHARE * scenes.RATE_CAP_SLACK
             * scenes.CAPACITY_RPS["palladium-dne"])
    assert not scenes.anchor_problems(dne, {"goodput_rps": floor})
    assert scenes.anchor_problems(dne, {"goodput_rps": 0.95 * floor})
    spright = scenes.Point("open", "spright", scenes.ANCHOR_LOAD)
    assert scenes.anchor_problems(spright, {"goodput_rps": 5_000.0})
    assert not scenes.anchor_problems(spright, {"goodput_rps": 0.0})


def test_committed_digests_match():
    pinned = json.loads((HERE / "digests.json").read_text())
    seed = "1"
    for point in scenes.points_for("overload_open"):
        if point.config == "palladium-dne":
            continue  # the baselines are the quick points
        assert (scenes.run_point(point, int(seed)).digest
                == pinned["overload_open"][seed][point.name])
