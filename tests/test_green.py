import math

import numpy as np
import pytest

from fswe.basis import build_basis
from fswe.green import GreenError, GreenParams, time_integrated_sup
from fswe.solver import ModeState


@pytest.fixture(scope="module")
def params_1d():
    return GreenParams(gamma=2.0, basis=build_basis(1, 64))


def green_coefficient(params, k, t):
    """u_k at time t of the solver's Duhamel-sum identity with only
    C_k = 1: the k-th mode coefficient sin(omega_k t)/omega_k of G_t."""
    M = params.basis.mode_count
    state = ModeState.zero(M)
    state.t = t
    state.cos_sum[k - 1] = 1.0
    return float(state.rebuild_u(params.omega)[k - 1])


class TestCoefficient:
    def test_small_time_taylor(self, params_1d):
        # sin(w t)/w = t - w^2 t^3/6 + ... ; at t=1e-6 the cubic term is
        # below 1e-12 for the first mode
        t = 1e-6
        assert green_coefficient(params_1d, 1, t) == pytest.approx(
            t, abs=1e-12)

    @pytest.mark.parametrize("k,t", [(1, 0.3), (4, 0.7), (10, 1.3)])
    def test_matches_formula(self, params_1d, k, t):
        w = (k**2 * math.pi**2) ** 1.0  # gamma = 2 -> omega = lambda
        assert green_coefficient(params_1d, k, t) == pytest.approx(
            math.sin(w * t) / w, rel=1e-13)

    def test_zero_at_t_zero(self, params_1d):
        assert green_coefficient(params_1d, 3, 0.0) == 0.0


class TestKernel:
    def test_square_integral_vs_quadrature(self, params_1d):
        # with two time nodes the trapezoid is T/2 times the probe-grid sup at
        # T of int G_T(x, .)^2 dy; check it against a fine trapezoid in y
        T = 0.3
        basis = params_1d.basis
        x = np.linspace(0.0, 1.0, 5)[:, None]
        y = np.linspace(0.0, 1.0, 4001)[:, None]
        w = params_1d.omega
        G = (np.sin(w * T) / w * basis.evaluate_modes(x).T
             ) @ basis.evaluate_modes(y)                  # (5, 4001)
        quad = np.trapezoid(G**2, y[:, 0], axis=1)
        assert time_integrated_sup(params_1d, T, n_time=2, probe_grid=5) \
            == pytest.approx(T / 2 * quad.max(), rel=1e-12)

    def test_square_integral_bounded_by_envelope(self, params_1d):
        # sin^2 <= 1 gives sum_k lambda_k^{-gamma} e_k(x)^2 as an envelope
        basis = params_1d.basis
        x = np.linspace(0.0, 1.0, 5)[:, None]
        env = float(np.max(basis.eigenvalues**-2.0
                           @ basis.evaluate_modes(x) ** 2))
        for T in (0.1, 0.6, 1.0):
            assert time_integrated_sup(params_1d, T, n_time=2, probe_grid=5) \
                <= T / 2 * env + 1e-14


class TestTimeIntegratedSup:
    def test_positive_and_bounded(self, params_1d):
        v = time_integrated_sup(params_1d, 1.0)
        lam = params_1d.basis.eigenvalues
        # crude cap: T * 2^d * sum lambda^{-gamma}
        assert 0.0 < v <= 2.0 * float(np.sum(lam**-2.0)) + 1e-12

    def test_matches_dense_probe_grid(self):
        # the separable probe-grid sup against the dense (M, n_probe) table:
        # bitwise in d=1, to rounding in d=2 (M=5 splits a tie, as in
        # TestTransforms)
        for d, M, gamma in ((1, 16, 2.0), (2, 5, 3.0), (2, 9, 3.0)):
            params = GreenParams(gamma, build_basis(d, M))
            g = np.linspace(0.0, 1.0, 33)
            pts = (g[:, None] if d == 1 else np.column_stack(
                [a.ravel() for a in np.meshgrid(g, g, indexing="ij")]))
            modes_sq = params.basis.evaluate_modes(pts) ** 2
            times = np.linspace(0.0, 0.7, 11)
            w = params.omega
            sups = (np.sin(np.outer(times, w)) ** 2 / w**2 @ modes_sq).max(1)
            dense = float(np.trapezoid(sups, times))
            got = time_integrated_sup(params, 0.7, n_time=11, probe_grid=33)
            if d == 1:
                assert got == dense
            else:
                assert abs(got - dense) <= 1e-12 * dense

    def test_grows_with_horizon(self, params_1d):
        assert (time_integrated_sup(params_1d, 0.5)
                < time_integrated_sup(params_1d, 1.0))


def test_gamma_validation():
    with pytest.raises(GreenError):
        GreenParams(gamma=0.4, basis=build_basis(1, 4))
    with pytest.raises(GreenError):
        GreenParams(gamma=0.9, basis=build_basis(2, 4))
