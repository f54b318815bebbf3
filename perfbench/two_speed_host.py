"""Why ``unit_ms`` is a trimmed mean: runs on a host with two speeds.

Run from the repository root::

    python3 perfbench/two_speed_host.py

A simulated host runs each unit at a fast speed (time 1.0) or a slow one
(time 1.4), switching in spells of random length.  Each simulated run
times 0.5-unit steps for 25 time units, with 5% unit-to-unit noise and
2% of units stalled 3x.  For each mix of speeds and mean spell length,
ten runs are made 200 times.  The script prints the mean spread
(interquartile distance over the median) of the ten runs' median and of
their mean without the slowest 5% of units, the statistic ``unit_ms``
uses.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import trimmed_mean  # noqa: E402

FAST, SLOW = 1.0, 1.4
RUN_LENGTH = 25.0
UNIT = 0.5


def simulate_run(rng: np.random.Generator, fast_share: float, spell: float) -> list:
    """Unit times of one run; spells last ``spell`` on average at a 50/50 mix."""
    def spell_length(fast: bool) -> float:
        return rng.exponential(2 * spell * (fast_share if fast else 1 - fast_share))

    fast = bool(rng.random() < fast_share)
    left = spell_length(fast)
    clock, times = 0.0, []
    while clock < RUN_LENGTH:
        speed = FAST if fast else SLOW
        time = UNIT * speed * (1 + 0.05 * rng.standard_normal())
        if rng.random() < 0.02:
            time *= 3
        times.append(time)
        clock += time
        left -= time
        while left <= 0:
            fast = not fast
            left += spell_length(fast)
    return times


def spread(values: list) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    rng = np.random.default_rng(0)
    print("fast share  mean spell  spread of ten runs: median   trimmed mean")
    for spell in (3.0, 10.0, 30.0):
        for fast_share in (0.2, 0.5, 0.8):
            medians, means = [], []
            for _ in range(200):
                runs = [simulate_run(rng, fast_share, spell) for _ in range(10)]
                medians.append(spread([statistics.median(times) for times in runs]))
                means.append(spread([trimmed_mean(times)[0] for times in runs]))
            print(f"{fast_share:10.1f}  {spell:10.0f}  {statistics.mean(medians):27.3f}"
                  f"  {statistics.mean(means):13.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
