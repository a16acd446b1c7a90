"""Fixed work that scales benchmark times to a reference machine speed.

No change to odeinv can alter its time, so the ratio of a measured time to
the time of this work taken next to it follows odeinv alone.
"""

import time
from fractions import Fraction


def reference_loop():
    """Work of the kind odeinv does: tuple-keyed dicts, rational arithmetic."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 6000):
        key = (i % 97, i % 89, i % 7)
        table[key] = table.get(key, 0) + i * i
        acc += Fraction(i % 13 + 1, i % 11 + 1)
    return acc


def reference_time():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
