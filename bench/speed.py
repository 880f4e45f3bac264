"""How fast the host runs, sampled while a repetition runs.

The benchmark shares a few cores of a host with other tenants, and the
host's speed for one single-threaded Python process changes by up to a
factor of two within a second and over minutes; CPU time changes with it, so
it is slower execution, not waiting.  ``reference()`` does fixed work of the
kinds the workloads do (interpreted arithmetic, numpy arithmetic on arrays,
formatting numbers as text) and does not touch jetkcc, so its time follows
the host and not the program.

``Speedometer`` times ``reference()`` when it starts, every ``INTERVAL_S``
of wall time from a ``SIGALRM`` handler and when it stops, so the samples
interleave with the program's own work in the same thread, and keeps the
wall and CPU time its samples took, which ``child.py`` takes out of the
commands' times.  ``REF_S`` is a nominal time of one ``reference()``: a time
multiplied by the mean of ``REF_S`` over each sample is what it would be on
a host where ``reference()`` takes ``REF_S``.  The samples run amid the
program's own memory, so their time also depends a little on what the
program leaves in the caches.
"""

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.1
REF_S = 0.003

_XS = np.linspace(-1.0, 1.0, 512)


def reference(ys: np.ndarray) -> int:
    """Float arithmetic in an interpreted loop, numpy arithmetic on arrays of
    512 points and formatting floats as text.  It allocates no object the
    garbage collector tracks and no array (it works in place in ``ys``, of
    the shape of ``_XS``), so it neither shifts the program's collections nor
    pins the program's heap, either of which would change the program's peak
    memory."""
    total = 0.0
    for i in range(12000):
        total += math.sin(i * 0.001) * (i % 7)
    np.copyto(ys, _XS)
    for _ in range(120):
        np.multiply(ys, 1.0001, out=ys)
        np.add(ys, 0.1, out=ys)
        np.tanh(ys, out=ys)
    chars = 0
    for k in range(512):
        chars += len(repr(float(ys[k])))
    return chars + int(total)


class Speedometer:
    def __init__(self):
        self.samples: list[float] = []  # seconds per reference()
        self._ys = np.empty_like(_XS)
        self.wall_s = 0.0  # spent sampling
        self.cpu_s = 0.0

    def sample(self, *_signal) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference(self._ys)
        wall = time.perf_counter() - wall0
        self.samples.append(wall)
        self.wall_s += wall
        self.cpu_s += time.process_time() - cpu0

    def start(self) -> None:
        """Sample now and every ``INTERVAL_S`` from now on."""
        reference(self._ys)  # untimed warm-up
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
