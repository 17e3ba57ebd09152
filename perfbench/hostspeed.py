"""The host's speed, sampled while a stage runs, so that its timings can be read at a fixed speed.

On a shared VM the same code runs up to 1.5x slower while other tenants load
the physical core, in stretches from milliseconds to minutes; a benchmark run
can land wholly in a busy or a quiet stretch. While a stage runs, a timer
signal every `PERIOD_S` interrupts it to time a small fixed probe (pure Python
plus small numpy ops, run twice so that the timed run is warm). The mean probe
time says how fast the host ran during the stage, and

    seconds at reference speed = (wall seconds - time spent in probes) * REF_PROBE_S / mean probe time

Each probe time counts at most `MAX_SLOWDOWN` times `REF_PROBE_S`. Contention
for the core slows the probe by about 1.5x; a probe that took longer was
interrupted by something (the hypervisor, a page fault) that costs the probe
far more than the program. Uncapped, such probes once made the mean say that
the host ran 1.7x slower in one pass of 80 trips than in the pass before it,
while the program ran 1.2x slower.

`REF_PROBE_S` is the warm probe's time on an uncontended 2 GHz Xeon; it scales
every normalised timing by the same constant, so comparisons between two
commits on one host do not depend on it. The probe touches a few kilobytes and
never calls the program, so a change to the program does not change it.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
REF_PROBE_S = 45e-6
MAX_SLOWDOWN = 2.0


@dataclass
class Reading:
    wall_s: float = 0.0
    probe_s: list = field(default_factory=list)  # one warm probe time per interrupt
    stolen_s: float = 0.0  # time spent in the signal handler

    @property
    def seconds(self) -> float:
        """Wall time of the stage without the probes."""
        return self.wall_s - self.stolen_s

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the host ran during the stage."""
        if not self.probe_s:
            return 1.0
        return float(np.mean(np.minimum(self.probe_s, MAX_SLOWDOWN * REF_PROBE_S))) / REF_PROBE_S

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowdown


_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 32))
_B = _rng.standard_normal((32, 32))


def _probe() -> None:
    for _ in range(4):
        c = _A @ _B
        c = np.maximum(c, 0.01 * c)
        c.sum()
        x = 0
        for i in range(60):
            x += i


class HostClock:
    """Times stages and, if `sample`, samples the host's speed while they run (main thread only).

    Without sampling a Reading holds the wall time alone and its slowdown is 1.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self._reading: Reading | None = None

    def _on_alarm(self, signum, frame) -> None:
        reading = self._reading
        if reading is None:
            return
        t0 = perf_counter()
        _probe()
        t1 = perf_counter()
        _probe()
        t2 = perf_counter()
        reading.probe_s.append(t2 - t1)
        reading.stolen_s += t2 - t0

    @contextmanager
    def measure(self):
        """Yield a Reading that is filled in when the block ends."""
        reading = Reading()
        if not self.sample:
            t0 = perf_counter()
            try:
                yield reading
            finally:
                reading.wall_s = perf_counter() - t0
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._reading = reading
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            reading.wall_s = perf_counter() - t0
            self._reading = None
            signal.signal(signal.SIGALRM, previous)
