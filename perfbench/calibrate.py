"""Host-speed calibration.

The shared 2-core host the benchmark was tuned on (README, "Environment")
runs through slow phases that last a minute or more and stretch every
operation by up to 50%; a run (16 s) cannot average them away.  The benchmark therefore runs a
fixed kernel next to the timed operations and reports times divided by
the host-speed factor it measures: end-to-end times read in milliseconds
of a host running at the calibration's nominal speed.  Raw wall-clock
figures are printed beside them on the ``# info`` line.

The kernel mixes the two kinds of work the program does: NumPy gathers,
``bincount`` scatters, ``exp``/``log`` and small mat-muls (a flooding BP
sweep on a fixed graph), and pure-Python text parsing (the MTX reader's
``str.split`` and ``float`` per line).  Each half alone over- or
under-corrects; their mean tracks the program to within ~2% across slow
phases.  It uses NumPy only, never ``repro``, and its inputs are fixed,
not drawn from the run's seed.
"""

from __future__ import annotations

import threading
import time

import numpy as np

__all__ = ["Calibration"]

#: nominal seconds of each half on the tuning host at its fast phase (README)
NUMPY_NOMINAL_S = 0.025
PYTHON_NOMINAL_S = 0.008
#: nominal seconds of both halves run by two threads at once
TWO_THREADS_NOMINAL_S = 0.055


class Calibration:
    """Measures the host-speed factor: ~1 at nominal speed, >1 when slow.

    ``threads=2`` runs the kernel on two threads at once and times the
    pair, for a workload that keeps two threads busy: its speed depends
    on both cores and on the interpreter lock, which one thread does not
    see (on 2-thread shard sweeps this halved the spread left over).
    """

    def __init__(self, threads: int = 1) -> None:
        if threads not in (1, 2):
            raise ValueError("calibration runs on 1 or 2 threads")
        self.threads = threads
        rng = np.random.default_rng(20200817)
        n, m = 4000, 16000
        self.src = rng.integers(0, n, 2 * m)
        self.dst = rng.integers(0, n, 2 * m)
        self.rev = np.concatenate([np.arange(m, 2 * m), np.arange(m)])
        self.pot = np.array([[0.6, 0.4], [0.4, 0.6]])
        self.phi = rng.dirichlet([1.0, 1.0], size=n)
        self.n = n
        self.text = "\n".join(
            f"{i + 1} {i + 1} {p:.8g} {1 - p:.8g}" for i, p in enumerate(rng.random(6000))
        )

    def _numpy_s(self) -> float:
        msgs = np.full((len(self.src), 2), 0.5)
        t0 = time.perf_counter()
        for _ in range(4):
            log_m = np.log(msgs)
            log_in = np.stack(
                [np.bincount(self.dst, weights=log_m[:, s], minlength=self.n) for s in (0, 1)],
                axis=1,
            )
            cav_log = log_in[self.src] - log_m[self.rev]
            cav = self.phi[self.src] * np.exp(cav_log - cav_log.max(axis=1, keepdims=True))
            cav /= cav.sum(axis=1, keepdims=True)
            msgs = cav @ self.pot
            msgs /= msgs.sum(axis=1, keepdims=True)
        return time.perf_counter() - t0

    def _python_s(self) -> float:
        t0 = time.perf_counter()
        rows = {}
        for line in self.text.splitlines():
            parts = line.split()
            rows[int(parts[0])] = [float(x) for x in parts[2:]]
        total = sum(v[0] for v in rows.values())
        if not total > 0:
            raise RuntimeError("calibration parse lost its rows")
        return time.perf_counter() - t0

    def _one(self) -> float:
        return (self._numpy_s() / NUMPY_NOMINAL_S + self._python_s() / PYTHON_NOMINAL_S) / 2

    def _two_threads(self) -> float:
        workers = [threading.Thread(target=self._one) for _ in range(2)]
        t0 = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        return (time.perf_counter() - t0) / TWO_THREADS_NOMINAL_S

    def factor(self) -> float:
        """The lower of two tries: interference only ever slows a try
        down, so one stray slow try does not rescale a whole stretch of
        operations.  One thread: the mean of both halves' time over their
        nominal time; two threads: the pair's time over its nominal."""
        measure = self._one if self.threads == 1 else self._two_threads
        return min(measure() for _ in range(2))
