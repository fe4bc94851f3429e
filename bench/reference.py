"""The speed reference: fixed work, timed between requests, against which
the benchmark's times are scaled.

The benchmark runs on a shared host, where the same request costs up to a
third less CPU time in a fast phase of the machine than in a slow one, and
phases last from seconds to minutes.  The reference does the three kinds of
work a request does, in about equal shares: interpreted complex arithmetic,
small dense linear algebra, and a quadrature-sized broadcast product and
mean over a 13 MB array.  It calls numpy but never attokit, so a change to
the library cannot move it.  Its CPU time follows the machine's phases, and
a run scales every time it reports by ``NOMINAL_S / median(samples)``: the
time the work would have taken on a machine that runs the reference in
``NOMINAL_S``.
"""

from __future__ import annotations

import numpy as np

from harness import clock, median

# Near the middle of the reference's run medians, 13 to 20 ms, on a 2-vCPU
# Intel Xeon VM (Python 3.11, numpy 2.4, OpenBLAS on one thread).
NOMINAL_S = 0.016
# Request CPU time between two samples: about a twentieth of a run goes to
# the reference.
EVERY_S = 0.3


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                     for n in (4, 8, 12, 24, 48)]
        self.points = [complex(z) for z in rng.standard_normal(64)
                       + 1j * rng.standard_normal(64)]
        # (n, N) values of two bases and a symbol on N circle nodes, n = 20
        # and N = 2048, as in one quadrature level of a degree-20 pair
        self.f, self.g = (rng.standard_normal((20, 2048))
                          + 1j * rng.standard_normal((20, 2048)) for _ in range(2))
        self.phi = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        self.samples: list[float] = []
        self.since = 0.0

    def work(self) -> complex:
        acc = 0j
        for _ in range(27):                     # Horner steps in the interpreter
            for z in self.points:
                p = 0j
                for c in self.points[:16]:
                    p = p * z * 0.5 + c
                acc += p
        for _ in range(16):                     # small solves, products and FFTs
            for a in self.mats:
                acc += np.linalg.solve(a, a[:, 0]).sum()
                acc += (a @ a.conj().T).trace()
                acc += np.abs(np.fft.fft(a[0])).sum()
        for _ in range(2):                      # (n, n, N) products and their means
            tensor = np.conj(self.g)[:, None, :] * (self.phi * self.f)[None, :, :]
            acc += np.mean(tensor, axis=-1).sum()
        return acc

    def sample(self) -> None:
        start = clock()
        self.work()
        self.samples.append(clock() - start)

    def after(self, spent: float) -> None:
        """Account ``spent`` seconds of measured work; sample once every
        EVERY_S of it."""
        self.since += spent
        if self.since >= EVERY_S:
            self.since = 0.0
            self.sample()

    def scale(self) -> float:
        """Factor from CPU seconds of this run to nominal seconds."""
        return NOMINAL_S / median(self.samples)
