"""Spectral Green kernel of d^2/dt^2 + (-Laplace)^gamma with Dirichlet
boundary conditions, accessed mode-wise.

The kernel is never assembled densely; the solver only ever needs the mode
coefficients sin(lambda_k^{gamma/2} t) / lambda_k^{gamma/2}. The
time-integrated sup of its square integral, which bounds the moment growth,
lives here for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis, _probe_sup


class GreenError(ValueError):
    pass


@dataclass(frozen=True)
class GreenParams:
    gamma: float
    basis: EigenBasis

    def __post_init__(self):
        d = self.basis.dimension
        if self.gamma <= d / 2.0:
            raise GreenError(
                f"gamma must exceed d/2 = {d / 2} for a square-integrable "
                f"kernel; got gamma={self.gamma}"
            )

    @property
    def omega(self) -> np.ndarray:
        """Mode frequencies lambda_k^(gamma/2)."""
        return self.basis.eigenvalues ** (self.gamma / 2.0)


def time_integrated_sup(params: GreenParams, T: float,
                        n_time: int = 201,
                        probe_grid: int = 1025) -> float:
    """Trapezoid-in-time integral of the probe-grid sup of the square integral.

    The spatial sup is approximated from below by a probe grid; the analytic
    envelope sum_k lambda_k^{-gamma} |e_k|^2 <= 2^d sum_k lambda_k^{-gamma}
    caps it from above.
    """
    w = params.omega
    times = np.linspace(0.0, T, n_time)
    # sup_x int_D G_t(x,y)^2 dy = sup_x sum_k sin^2(w_k t)/w_k^2 e_k(x)^2
    weights = np.sin(np.outer(times, w)) ** 2 / w**2  # (n_time, M)
    sups = _probe_sup(params.basis, weights, probe_grid)
    return float(np.trapezoid(sups, times))
