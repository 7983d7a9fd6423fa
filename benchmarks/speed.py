"""Machine-speed probe: scales measured times to a reference speed.

The box's speed drifts by 20% and more over minutes with load from outside
the benchmark, in slow spells longer than a run, so no statistic of raw times
over one run is steady from run to run.  The probe is fixed work that does
not touch the library (small numpy products, partial traces, 4x4
eigensolves and dict work, like the library's own mix), and it slows down
with the box.  A time divided by the probe's time around it, times
``REFERENCE_S``, is that time at the reference speed.
"""

from __future__ import annotations

import statistics
from time import perf_counter


class SpeedProbe:
    REFERENCE_S = 0.0025   # a typical probe time on the box of baseline.json
    REPEATS = 5

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(12345)
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        self._psi = psi / np.linalg.norm(psi)

    def _work(self) -> float:
        np = self._np
        acc = 0.0
        seen = {}
        for i in range(40):
            t = np.moveaxis(self._psi.reshape(2, 2, 2, 2), i % 4, 0).reshape(2, 8)
            rho = t @ t.conj().T
            acc += float(np.linalg.eigh(np.kron(rho, rho))[0][-1])
            seen[(i % 7, round(acc, 6))] = i
        return acc + len(seen)

    def seconds(self) -> float:
        """Median time of a few repetitions of the fixed work."""
        times = []
        for _ in range(self.REPEATS):
            start = perf_counter()
            self._work()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def scale(self, seconds: float, probe_seconds: float) -> float:
        """``seconds`` measured while the probe took ``probe_seconds``, at the reference speed."""
        return seconds * self.REFERENCE_S / probe_seconds
