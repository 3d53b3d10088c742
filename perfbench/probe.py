"""A fixed piece of pure-Python work that gauges the CPU's current speed.

The shared machines this benchmark runs on switch between speeds about 1.6x
apart for seconds to minutes at a time, so raw wall times of one commit
spread by a quarter or more between runs.  Timing this probe next to every
measured request lets a time be restated at a reference speed: the time the
request would take on a CPU that runs the probe in `REFERENCE_S`.

The probe uses only the standard library -- `Fraction` arithmetic and dict
updates, the operations `fractalmra`'s exact tier leans on -- so no change
to the program can change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.003
# set-up time is import-bound (file mapping, module execution), which the
# CPU probe does not track; it is restated by a probe interpreter that
# imports the CLI's outside modules, taking this long at the reference speed
IMPORT_REFERENCE_S = 0.1


def speed_probe() -> float:
    """Seconds taken by the fixed probe work (about 3 ms at full speed)."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 600):
        acc = (acc * 3 + Fraction(1, i % 50 + 1)) % 7
        table[i % 97] = acc
    return time.perf_counter() - start


def at_reference(seconds: float, probe_seconds: float, reference_s: float = REFERENCE_S) -> float:
    """`seconds` measured while a probe took `probe_seconds`, restated at the
    speed where that probe takes `reference_s`."""
    return seconds * reference_s / probe_seconds
