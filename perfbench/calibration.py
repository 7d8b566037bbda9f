"""Host-speed calibration for the benchmark's timings.

On a shared host, the speed one process gets drifts by tens of percent, over
seconds and over minutes. Each workload therefore names a fixed numpy kernel
shaped like its own hot loop. The kernel runs before the first and after
every set-up rep or call. Each time is scaled by the kernel's nominal time
over the mean of the kernel times measured just before and after it. A
scaled time is the time the step would have taken on the host at nominal
speed. Scaling call by call removed two thirds of the spread that scaling a
whole run by its median kernel time left.

The kernels use no fswe code, so a change to the program cannot move them.
Raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np


def interpreter_kernel() -> None:
    """Many small-array numpy calls, like a d=1 solver step (M=16)."""
    a = np.linspace(0.1, 1.0, 16)
    b = np.ones(16)
    m = np.ones((16, 257))
    for i in range(2000):
        c = np.sin(a * i) * b
        b = (c @ m)[:16] / 257.0
        float(np.sqrt(np.sum(a * b * b)))


def grid_kernel() -> None:
    """Projections on a 513-node grid, like a d=1 solver step (M=128)
    with drift and surrogate."""
    table = np.sin(np.outer(np.arange(1, 129), np.linspace(0.0, 1.0, 513)))
    cells = table[:, :512]
    omega = (np.arange(1, 129) * np.pi) ** 2
    g = np.random.default_rng(0).standard_normal(512)
    u = np.full(128, 1e-3)
    for n in range(120):
        t = n * 0.01
        beta = table @ (np.sin(u @ table) + 1.0)
        proj = cells @ (g * np.cos(u @ cells))
        u = (np.sin(omega * t) * beta - np.cos(omega * t) * proj) / omega


def dense_kernel() -> None:
    """A mode table, Gaussian draws and matrix-vector products on it, like
    a d=2 call (M=64 on a 129x129 grid)."""
    x = np.linspace(0.0, 1.0, 16641)
    table = np.sin(np.outer(np.arange(1, 65), x))
    g = np.random.default_rng(0).standard_normal(16641)
    v = np.ones(64)
    for _ in range(12):
        v = table @ (np.cos(v @ table) * g) * 1e-4


# Median kernel times on the host the benchmark was tuned on: 2 vCPUs,
# Intel Xeon, Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31.
KERNELS = {
    "interpreter": (interpreter_kernel, 0.0230),
    "grid": (grid_kernel, 0.0115),
    "dense": (dense_kernel, 0.0220),
}


class Calibrator:
    def __init__(self, kind: str):
        self.kernel, self.nominal = KERNELS[kind]
        self.times: list[float] = []

    def measure(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.times.append(time.perf_counter() - t0)

    def scaled(self, seconds: list[float]) -> list[float]:
        """Each of the last len(seconds) steps at nominal speed; the kernel
        was measured once before the first of them and after each."""
        k = self.times[-len(seconds) - 1:]
        return [dt * self.nominal / (0.5 * (a + b))
                for dt, a, b in zip(seconds, k, k[1:])]
