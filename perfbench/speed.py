"""Host speed, sampled between operations.

On a shared virtual machine the same round of work runs up to a third
slower from one minute to the next, while nothing in the program changes. A fixed
computation that never touches the program (a Python loop and small numpy
arrays, the program's own mix) is timed after every operation, for a share
of that operation's time, so the samples weigh each moment of the run by how
long the program ran in it. The run's timings are then reported at the speed
the probe reads as ``REFERENCE_S`` per kernel; the measured times are kept
in the run record beside them.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0018  # one kernel on the 2-core host the benchmark was built on
SHARE = 0.03  # probe time per second of measured work


def _kernel() -> float:
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    a = np.arange(2048.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return acc + float(a[0])


class SpeedProbe:
    def __init__(self):
        self.kernels = 0
        self.seconds = 0.0

    def after(self, busy_seconds: float) -> None:
        """Probe for ``SHARE`` of ``busy_seconds``, at least one kernel."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            _kernel()
            spent += time.perf_counter() - start
            self.kernels += 1
            if spent >= SHARE * busy_seconds:
                break
        self.seconds += spent

    def scale(self) -> float:
        """Reference kernel time over measured kernel time: multiply a
        measured duration by it (divide a rate by it) to report it at the
        reference speed."""
        return REFERENCE_S * self.kernels / self.seconds
