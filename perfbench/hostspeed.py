"""Host-speed probe: puts measured times on a fixed reference speed.

On a shared host the CPU speed one process gets changes by up to about
2x for tens of seconds at a time (busy neighbours, SMT siblings, clock
changes).  A whole run can fall into such a spell, so medians within a
run cannot remove it.  The spells slow interpreter and numpy work alike
and show in CPU time too, so it is not only scheduler steal.

The probe is a fixed piece of work that does not use the program under
test: a pure-Python loop and a numpy gather over 8 MB, repeated
``REPS`` times.  It runs right before and right after each measured
piece of work.  A measured time ``t`` is reported as
``t * PROBE_REF_S / p``, where ``p`` is the mean of those two probe
times: the time the work would take on a host where the probe takes
``PROBE_REF_S``.  A change to the program moves the scaled time exactly
as it moves the wall time; a change of host speed during the
measurement cancels out.

A probe gives two times per repetition:

- the mean, for wall times, rates and tail latencies: it includes
  waiting for the CPU, as work that runs for a while does, and as the
  slowest single operations did;
- the best, for the median latency of single short operations: most of
  them finish without waiting for the CPU, as the best repetition does.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

#: Reference time of one probe repetition: about what it takes on a
#: 2-vCPU x86 cloud host with nothing else running.
PROBE_REF_S = 0.008
REPS = 5
_LOOP = 50_000
_N = 1 << 20
_IDX = (np.arange(_N, dtype=np.int64) * 2654435761) % _N
_SRC = np.arange(_N, dtype=np.int64)
_BUF = np.empty(_N, dtype=np.int64)


class Probe(NamedTuple):
    #: Mean seconds per repetition.
    mean_s: float
    #: Seconds of the fastest repetition.
    best_s: float


class Scale(NamedTuple):
    """Factors that put times measured between two probes on the
    reference speed: multiply times by them, divide rates by them."""

    #: For wall times, rates and tail latencies.
    wall: float
    #: For the median latency of single short operations.
    typical_op: float


def _repetition() -> int:
    x = 0
    for i in range(_LOOP):
        x = (x * 31 + i) & 0xFFFF
    np.take(_SRC, _IDX, out=_BUF)
    np.bitwise_and(_BUF, 4095, out=_BUF)
    return x


def probe() -> Probe:
    clock = time.perf_counter
    times = []
    for _ in range(REPS):
        t0 = clock()
        _repetition()
        times.append(clock() - t0)
    return Probe(sum(times) / REPS, min(times))


def to_reference(before: Probe, after: Probe) -> Scale:
    return Scale(
        PROBE_REF_S / ((before.mean_s + after.mean_s) / 2.0),
        PROBE_REF_S / ((before.best_s + after.best_s) / 2.0),
    )
