"""The timing rule: interleaved repeats, a low quantile per operation.

The machine this benchmark was built on switches between two speed levels
about 1.5-2x apart.  The slow level is the usual one; fast stretches of a
few to a hundred milliseconds come and go, and whole periods of seconds to
minutes are faster or slower than usual.  CPU time tracks wall time, so
neither clock can tell the levels apart.  A mean or a single pass follows
whatever level it ran in.  So every workload is a fixed list of
operations; each round runs all of them once in a fresh seeded order, so
the repeats of one operation are spread over the run; an operation's time
is a low quantile of its repeats; and a time metric is the sum of those
per-operation times.

The quantile is the lower quartile.  With the 8-15 repeats a 30 s run
gives, the fastest repeat depends on whether a fast stretch happened to
cover one of them, which varies from run to run; the lower quartile needs
a quarter of the repeats to be fast before it moves.  On the 2-core VM
the benchmark was built on, six runs each gave a quartile spread of
oracle wall_s of 14% of its median with the minimum and 5.5% with the
lower quartile (compute: 12% and 10%); bench/README.md has the figures.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Callable, Sequence

# Quantile of an operation's repeats taken as its time (see above).
QUANTILE = 0.25


def quantile(samples: Sequence[float], q: float) -> float:
    """The q-quantile of the samples, interpolated linearly between order
    statistics (numpy's default rule): q=0 is the minimum, q=1 the maximum."""
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def op_time(samples: Sequence[float]) -> float:
    """One operation's time under the timing rule."""
    return quantile(samples, QUANTILE)


def spread(samples: Sequence[float]) -> dict:
    """Median and quartiles, printed beside a time metric for reference."""
    return {
        "n": len(samples),
        "median": statistics.median(samples),
        "q1": quantile(samples, 0.25),
        "q3": quantile(samples, 0.75),
    }


def run_rounds(
    count: int,
    seconds: float,
    rng: random.Random,
    run_one: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
) -> int:
    """Run whole rounds of operations 0..count-1 and return how many ran.

    Each round visits every operation once, in an order drawn from rng.
    A further round starts only while the rounds so far predict that it
    ends within ``seconds``; the first round always runs, so a round longer
    than the run still yields one repeat of everything.
    """
    start = clock()
    rounds = 0
    while True:
        order = list(range(count))
        rng.shuffle(order)
        for index in order:
            run_one(index)
        rounds += 1
        elapsed = clock() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return rounds
