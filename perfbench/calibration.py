"""How fast the machine runs right now, from a fixed pure-Python kernel.

On a shared host the same code runs up to 1.7 times slower for seconds
or minutes at a time, which moves every timing far more than the run
length can average out.  The workers time this kernel before and after
each pass and report every time multiplied by

    scale = REFERENCE_S / (mean kernel time around the pass)

that is, in seconds on a machine where the kernel takes REFERENCE_S.
The kernel uses only the standard library and does the kind of work the
engine does (tuple keys, dict updates, Fraction arithmetic), so it slows
down with the engine and does not change when the package changes.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.007
_ROUNDS = 3
_STEPS = 2000


def _kernel() -> int:
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(_STEPS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 5, 3)
    return len(table)


def kernel_seconds() -> float:
    """Median time of a few rounds of the kernel."""
    samples = []
    for _ in range(_ROUNDS):
        start = perf_counter()
        _kernel()
        samples.append(perf_counter() - start)
    return statistics.median(samples)
