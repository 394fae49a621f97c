"""Host-speed probe: a fixed kernel timed after every command.

The host this benchmark was built on shares its cores with other tenants,
and its speed moves by up to about 1.5x for seconds or whole minutes at a
time. CPU time moves with wall time there, so no clock of the process
avoids it. The probe is a fixed piece of work that does not touch
``chdzdt``: a pure-Python loop, a loop of NumPy calls on tiny arrays (the
autodiff's pattern) and BLAS matmuls at the taggers' width. It runs after
every set-up repeat and every command, so its median over a run tracks how
fast the host ran during that run, and the probes next to a command track
how fast it ran then. Every sample of a command is multiplied by
``local_factor``, set-up times by ``host_factor``: a scaled time reads as
seconds on a host on which the probe takes ``REF_S``. A change to the
program moves the times and not the probe; a change in host speed moves
both.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the fastest twentieth of probe times on the build host, so that scaled
# times read close to wall times there when it runs fast
REF_S = 0.008
# probes on each side of a sample's own probe in ``local_factor``
WINDOW = 2


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((32, 384))
        self.b = rng.standard_normal((384, 768))
        self.v = rng.standard_normal((4, 16))

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        t0 = perf_counter()
        s = 0
        for i in range(30000):
            s += i * i % 7
        x = self.v
        for _ in range(300):
            x = np.tanh(x * 0.5 + self.v).sum(axis=0, keepdims=True) + self.v
        for _ in range(6):
            self.a @ self.b
        return perf_counter() - t0


def host_factor(probes: list) -> float:
    """``REF_S`` over the run's median probe time: below 1 when the probe
    ran slower than ``REF_S`` during the run."""
    return REF_S / statistics.median(probes)


def local_factor(probes: list, i: int) -> float:
    """``REF_S`` over the median of the probes nearest probe ``i``, the one
    taken right after a sample: the host's speed around that sample."""
    return REF_S / statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1])
