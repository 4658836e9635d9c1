"""Host-speed sampling, so that a run's times do not swing with other load.

On a shared host the same repetition can take anywhere from 1x to 1.8x
its quiet time, because other tenants' load slows the cores (CPU time
tracks wall time, so it is not waiting but slower execution).  To take
that out, a fixed probe — under two milliseconds of the kinds of work the
workloads do, none of it from ``lfgibbs`` — runs from a SIGALRM timer
every ``INTERVAL_S`` while a repetition runs.  Each probe's duration
samples how fast the host is at that moment.

A phase of a repetition (set-up, sweeps) that took ``d`` seconds of wall
time, ``q`` of them in probes, is then reported as

    (d - q) * mean(PROBE_REF_S / p)   over the probes p taken in the phase,

the time the phase would take at the speed at which the probe takes
``PROBE_REF_S``.  Because probes are evenly spaced in wall time, the mean
of the per-probe speeds is the phase's average speed.  A program change
leaves the probe as it is, so a faster program still reads faster.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np
from scipy.optimize import minimize

INTERVAL_S = 0.025
# A fixed scale: about the probe's duration, run back to back, on a
# two-core x86-64 VM, so reported times are close to wall times there.
PROBE_REF_S = 0.0015

_rng = np.random.default_rng(20190611)
# shaped like the state-space sampler's local regressions: 150 neighbours,
# 13 embedding dimensions plus an intercept
_DESIGN = _rng.normal(size=(150, 14))
_RESPONSE = _rng.normal(size=150)
_SPD = _DESIGN[:16].T @ _DESIGN[:16] + 16.0 * np.eye(14)


def _rosenbrock(p):
    return (1.0 - p[0]) ** 2 + 100.0 * (p[1] - p[0] ** 2) ** 2


def probe() -> None:
    """Fixed work: a short Nelder-Mead run and small dense linear algebra.

    Of the probes tried (also an interpreter loop, small elementwise numpy
    operations, a scaled distance over a 5 000-row table and a 3 MB sort),
    these two tracked the slowdown of both workloads' set-up and sweeps
    best.
    """
    minimize(_rosenbrock, [-1.2, 1.0], method="Nelder-Mead", options={"maxfev": 40})
    for _ in range(5):
        np.linalg.cholesky(_SPD)
        np.linalg.solve(_SPD, _RESPONSE[:14])
        np.linalg.lstsq(_DESIGN, _RESPONSE, rcond=None)


class SpeedSamples:
    """(start, duration) of every probe taken while ``sampling()`` was active."""

    def __init__(self):
        self.probes = []

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.probes.append((start, time.perf_counter() - start))

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def normalized(self, start: float, end: float, fallback: float) -> dict:
        """The wall window [start, end) at reference speed.

        ``fallback`` is the speed to use when no probe started in the window.
        """
        inside = [d for s, d in self.probes if start <= s < end]
        speed = float(np.mean([PROBE_REF_S / d for d in inside])) if inside else fallback
        return {"wall_s": end - start, "probe_s": sum(inside), "probes": len(inside),
                "speed": speed, "s": (end - start - sum(inside)) * speed}

    def speed(self) -> float:
        """Mean speed over all probes taken; 1.0 if there were none."""
        return float(np.mean([PROBE_REF_S / d for _, d in self.probes])) if self.probes else 1.0
