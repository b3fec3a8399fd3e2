"""Small measurement helpers shared by the benchmark and its tests."""

from __future__ import annotations

import re
import resource
import statistics
from time import perf_counter

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# A tail percentile needs this many samples beyond it to mean anything.
TAIL_BEYOND = 10

# On a shared host the speed of the one core the benchmark runs on drifts:
# the same op took from 1.0x to 1.75x its fastest time, in phases lasting
# from seconds to minutes, long enough to cover a whole run.  Every timed op
# is therefore scaled by a reference kernel timed just before and just after
# it, which slows down in the same phases; the ratio of the two stayed
# within +-5 % while raw op times moved by 75 %.  REFERENCE_S is a probe's
# time on an unloaded 2-core x86-64 VM under CPython 3.11, so scaled times
# read as seconds on that host.
REFERENCE_S = 0.00105
PROBE_REPEATS = 3


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count).  The value is the sample
    with exactly TAIL_BEYOND samples ranked after it.  When that sample
    would fall below the median (fewer than 2 * TAIL_BEYOND + 2 samples)
    the median stands in, reported as the 50th percentile.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count < 2 * TAIL_BEYOND + 2:
        return statistics.median(ordered), 50.0, count
    index = count - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reference_kernel(rounds: int = 1500) -> int:
    """Fixed pure-Python work of the program's kind: 64-bit mask arithmetic,
    set and dict updates and a sort.  Uses nothing from the program."""
    state = 0x2545F4914F6CDD1D
    seen = set()
    counts: dict[int, int] = {}
    masks = []
    for _ in range(rounds):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        mask = state >> 16
        seen.add(mask & (mask >> 3))
        key = (mask & -mask).bit_length()
        counts[key] = counts.get(key, 0) + 1
        masks.append(mask ^ (mask >> 7))
    masks.sort()
    return len(seen) + len(counts) + masks[len(masks) // 2] % 7


def host_probe() -> float:
    """Median seconds of PROBE_REPEATS reference kernels."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Scales op times to the reference host by probing after every op."""

    def __init__(self) -> None:
        self.probes = [host_probe()]

    def scale(self, seconds: float) -> float:
        """`seconds` of the op that just ended, in reference-host seconds."""
        self.probes.append(host_probe())
        return seconds * REFERENCE_S * 2 / (self.probes[-2] + self.probes[-1])

    def slowdown(self) -> float:
        """How much slower than the reference host this run's host was."""
        return statistics.median(self.probes) / REFERENCE_S
