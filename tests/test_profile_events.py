"""``tools/profile_kernel.py --events``: kernel events counted by owner."""

import sys
from pathlib import Path

from repro.sim import Environment

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from profile_kernel import event_counts  # noqa: E402


def _mix():
    env = Environment()

    def ticker():
        for _ in range(3):
            yield env.timeout(1.0)

    def note():
        pass

    env.process(ticker())
    env.defer(0.0, note)
    env.defer(2.0, note)
    env.event().succeed()
    env.run()


def test_events_are_counted_by_owner_and_sum_to_the_total():
    result = event_counts(_mix, (), {})
    counts = result["counts"]
    # Initialize + three timeouts resume the generator
    assert counts[(__name__, "_mix.<locals>.ticker")] == 4
    assert counts[(__name__, "_mix.<locals>.note")] == 2
    # the succeeded event and the process exit have no process owner
    assert counts[("kernel", "other")] == 2
    assert result["events"] == sum(counts.values()) == 8
    # Initialize, defer(0), the event, the exit: pushed for their instant
    assert result["same_instant"] == 4


def test_event_counts_are_deterministic():
    assert event_counts(_mix, (), {}) == event_counts(_mix, (), {})
