"""Host-speed reference jobs: time metrics are scaled to a fixed host speed.

The reference box is a shared virtual machine whose speed swings by up to a
factor of two, from one pass to the next and over minutes, in every unit alike
(see ``README.md``).  No run length steadies raw wall times against that, so
each time is also measured against a fixed job that does not touch
``sqreadout``, timed right before and right after it:

* ``loop``: scalar Python (a frozen dataclass per step, ``math`` calls), the
  kind of work the in-process units spend their time on;
* ``spawn``: a fresh interpreter that imports numpy, the process start-up that
  dominates the CLI units and the set-up probes.

Each job returns its slowness: its time divided by its median time on the
reference box, 1.0 at the reference speed.  A time ``t`` measured between two
jobs is reported as ``t / mean(slowness before, slowness after)``: the time it
would take at the reference speed.  The raw times stay in the report.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass

# medians on the reference box (2-core x86 VM, Python 3.11.7, numpy 2.4.6)
LOOP_REF_S = 3.0e-3
SPAWN_REF_S = 0.22
LOOP_STEPS = 1500


@dataclass(frozen=True)
class _Point:
    a: float
    b: float
    c: float


def loop() -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(LOOP_STEPS):
        x = 1.0 + i * 1e-3
        p = _Point(x, math.sqrt(x), math.atan2(x, 2.0))
        s += math.exp(-p.a) * math.cos(p.b * p.c) - math.sin(p.c) / (1.0 + p.a * p.a)
    return (time.perf_counter() - t0) / LOOP_REF_S


def spawn() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return (time.perf_counter() - t0) / SPAWN_REF_S


JOBS = {"loop": loop, "spawn": spawn}


def scale(times: list[float], slowness: list[float]) -> list[float]:
    """Each time over the mean slowness of the jobs around it (len(slowness) = len(times) + 1)."""
    return [t * 2.0 / (a + b) for t, a, b in zip(times, slowness, slowness[1:])]
