"""Host-speed calibration: a fixed reference kernel timed between steps.

On a shared virtual machine the same work runs 10-50% faster or slower
from one minute to the next, and CPU time moves with wall time, so two runs
of the same code can differ by more than a code change does. The benchmark
therefore times a fixed kernel between the workload's steps and rescales
every time it reports to the speed at which that kernel takes NOMINAL_S:

    calibrated seconds = measured seconds * NOMINAL_S / mean kernel seconds

The kernel does not call hdlp, so a change to the package moves the
workload's time but not the kernel's. It mixes the kinds of work hdlp does:
a pivoted QR of a T=300 design (LAPACK, as in hdlp.linalg), greedy steps on
small arrays (numpy call overhead, as in selection.oga_order), and parsing
and grouping CSV-like rows (Python objects, as in the CSV and panel
readers). Each sample first touches all of the kernel's data, untimed, so
caches left cold by the workload do not count, and runs with Python's
cyclic garbage collector paused, so the objects the workload keeps alive do
not count either (a collection traverses every live container object).
"""

from __future__ import annotations

import gc
import time

# Kernel seconds on the reference host (2-vCPU Xeon VM at 2.1 GHz, OpenBLAS
# with one thread) at a quiet moment; under load it reads 0.045-0.06. It sets
# the scale of calibrated times only: they estimate the quiet-host time.
NOMINAL_S = 0.04
SHARE = 0.2  # calibration wall time per second of timed work


class Kernel:
    def __init__(self):
        import numpy as np
        import scipy.linalg

        self.np, self.qr = np, scipy.linalg.qr
        rng = np.random.default_rng(20240212)
        self.design = rng.standard_normal((300, 219))
        basis = rng.standard_normal((300, 40))
        self.basis = basis / np.linalg.norm(basis, axis=0)
        self.lines = [",".join(format(x, ".17g") for x in row)
                      for row in rng.standard_normal((3000, 6))]
        self.keys = [f"u{i % 500:04d}" for i in range(3000)]

    def warm(self):
        self.qr(self.design, mode="economic", pivoting=True)
        self.basis.T @ self.basis[:, 0]
        for line in self.lines:
            line.split(",")

    def run(self):
        np = self.np
        for _ in range(4):
            self.qr(self.design, mode="economic", pivoting=True)
        r = self.basis[:, 0].copy()
        for _ in range(1500):
            c = self.basis.T @ r
            j = int(np.argmax(np.abs(c)))
            r = r - 0.5 * c[j] * self.basis[:, j]
        groups = {}
        for key, line in zip(self.keys, self.lines):
            values = [float(x) for x in line.split(",")]
            groups.setdefault(key, []).append(sum(values) / len(values))
        sorted((k, len(v)) for k, v in groups.items())


class Calibrator:
    """Kernel samples taken between timed steps, SHARE of their time."""

    def __init__(self):
        self.kernel = Kernel()
        self.samples = []
        self.spent = 0.0

    def sample(self):
        t0 = time.perf_counter()
        gc.disable()
        try:
            self.kernel.warm()
            t1 = time.perf_counter()
            self.kernel.run()
            t2 = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def keep_up(self, busy: float):
        """Sample until calibration has taken SHARE of `busy` timed seconds."""
        while self.spent < SHARE * busy or not self.samples:
            self.sample()

    def factor(self) -> float:
        """Multiply measured seconds by this to get calibrated seconds."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)
