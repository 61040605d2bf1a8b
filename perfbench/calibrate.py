"""Host-speed reference for the benchmark's timings.

The shared host this benchmark runs on changes speed in phases of tens of
seconds to minutes: the same `mono` input took from 2.3 s to 3.9 s to
detect over five minutes, which no run length averages away. So each
round's timings are also expressed against a fixed pure-Python mix, timed
on the same CPU right before and right after the round:

    reported seconds = wall seconds * REFERENCE_S / mix seconds

The mix does the kind of work loandetect spends its time on (n-gram
counting in a dict of some 38,000 keys, log-probabilities, a float DP
alignment) on inputs fixed here, independent of ``--seed`` and of the
program. A change to the program moves the reported seconds as it moves the
wall seconds; a host phase that slows both moves neither.
"""

from __future__ import annotations

import math
import random
import time

# seconds the mix takes at the reference speed, about its median on the
# 2-CPU development host; it fixes the scale of the reported seconds
REFERENCE_S = 0.1

_rng = random.Random(0)
_SYMBOLS = "ptkbdmnslrjwfhaeiouyøɛɔəʃʒzvɡxʁç"
_WORDS = [
    tuple(_rng.choice(_SYMBOLS) for _ in range(_rng.randint(3, 10))) for _ in range(4000)
]


def _count() -> float:
    counts: dict[tuple[str, ...], int] = {}
    for w in _WORDS:
        p = ("#",) + w + ("#",)
        for n in (1, 2, 3, 4):
            for i in range(len(p) - n + 1):
                g = p[i:i + n]
                counts[g] = counts.get(g, 0) + 1
    total = sum(counts.values())
    return sum(math.log(c / total) for c in counts.values())


def _align() -> float:
    total = 0.0
    for a, b in zip(_WORDS[:400:2], _WORDS[1:400:2]):
        prev = [j * 0.5 for j in range(len(b) + 1)]
        for i, x in enumerate(a, 1):
            cur = [i * 0.5]
            for j, y in enumerate(b, 1):
                cur.append(min(prev[j - 1] + (0.0 if x == y else 1.0),
                               prev[j] + 0.5, cur[j - 1] + 0.5))
            prev = cur
        total += prev[-1]
    return total


def mix_seconds() -> float:
    """Wall time of one run of the mix."""
    start = time.perf_counter()
    _count()
    _align()
    return time.perf_counter() - start
