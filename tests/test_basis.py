import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fswe.basis import (BasisError, build_basis, embedding_constant,
                        lambda_power_sum, lambda_power_tail)
from fswe.solver import COEFFICIENT_PRESETS, ModeState, hr_norm_at, make_setup

PI2 = math.pi**2


def hr_norm(basis, c, r):
    """The solver's H_r norm of coefficients c, from a setup with that r."""
    setup = make_setup(basis, 2.0 * r + 1.0, r, 1.0, 1,
                       COEFFICIENT_PRESETS["zero"])
    state = ModeState.zero(basis.mode_count)
    state.u = np.asarray(c, dtype=float)
    return hr_norm_at(state, setup)


class TestEigenvalues:
    @pytest.mark.parametrize("k", [1, 2, 5, 17])
    def test_1d_exact(self, k):
        basis = build_basis(1, 20)
        assert basis.eigenvalues[k - 1] == pytest.approx(k**2 * PI2, rel=1e-14)

    def test_2d_first_four(self):
        basis = build_basis(2, 4)
        expected = np.array([2, 5, 5, 8]) * PI2
        np.testing.assert_allclose(basis.eigenvalues, expected, rtol=1e-14)

    def test_2d_tie_break_lexicographic(self):
        basis = build_basis(2, 4)
        # the two lambda = 5 pi^2 modes come ordered (1,2) then (2,1)
        assert tuple(basis.multi_indices[1]) == (1, 2)
        assert tuple(basis.multi_indices[2]) == (2, 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_sorted(self, d):
        basis = build_basis(d, 30)
        assert np.all(np.diff(basis.eigenvalues) >= 0)


class TestOrthonormality:
    @pytest.mark.parametrize("d,M", [(1, 12), (2, 9)])
    def test_gram_is_identity(self, d, M):
        basis = build_basis(d, M)
        modes = basis.evaluate_modes(basis.grid_points)   # (M, n_grid)
        w = basis.quad_weights
        gram = (modes * w) @ modes.T
        assert np.max(np.abs(gram - np.eye(M))) < 1e-10

    def test_project_then_evaluate_roundtrip(self):
        basis = build_basis(1, 8)
        coeffs = np.array([1.0, -0.5, 0.25, 0.0, 2.0, 0.0, 0.0, -1.0])
        grid_vals = coeffs @ basis.evaluate_modes(basis.grid_points)
        back = basis.analyze(basis.quad_weights * grid_vals)
        np.testing.assert_allclose(back, coeffs, atol=1e-10)

    def test_project_roundtrip_2d(self):
        basis = build_basis(2, 8)
        coeffs = np.array([1.0, -0.5, 0.25, 0.0, 2.0, 0.0, 0.0, -1.0])
        grid_vals = coeffs @ basis.evaluate_modes(basis.grid_points)
        back = basis.analyze(basis.quad_weights * grid_vals)
        np.testing.assert_allclose(back, coeffs, atol=1e-10)

    def test_evaluate_single_mode(self):
        basis = build_basis(1, 3)
        x = np.array([[0.25]])
        vals = basis.evaluate_modes(x)
        assert vals[0, 0] == pytest.approx(math.sqrt(2) * math.sin(math.pi / 4))


@pytest.mark.parametrize("d,M", [(1, 8), (1, 16), (1, 128), (2, 5),
                                 (2, 9), (2, 64), (2, 100)])
def test_evaluate_modes_is_the_sine_product(d, M):
    # e_k(x) = prod over the axes of sqrt(2) sin(k_axis pi x_axis), written
    # out per axis here, bit for bit, box corners included
    basis = build_basis(d, M)
    rng = np.random.default_rng(M)
    pts = np.vstack([rng.uniform(0.0, 1.0, size=(40, d)),
                     np.zeros((1, d)), np.ones((1, d))])
    expected = np.ones((M, len(pts)))
    for axis in range(d):
        expected *= math.sqrt(2.0) * np.sin(
            np.pi * np.outer(basis.multi_indices[:, axis], pts[:, axis]))
    assert basis.evaluate_modes(pts).tobytes() == expected.tobytes()
    with pytest.raises(BasisError, match="unit box"):
        basis.evaluate_modes(np.full((1, d), 1.5))
    with pytest.raises(BasisError, match="dimension"):
        basis.evaluate_modes(np.zeros((1, 3 - d)))


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _dense(basis, where):
    pts = basis.grid_points if where == "grid" else basis.cell_centers
    return basis.evaluate_modes(pts)


class TestTransforms:
    """synthesize/analyze against the dense products with evaluate_modes."""

    @pytest.mark.parametrize("M", [1, 5, 9, 64])
    @pytest.mark.parametrize("where", ["grid", "cells"])
    def test_2d_matches_dense(self, M, where):
        # M=5 splits the tie lambda = 10 pi^2 between (1,3) and (3,1)
        basis = build_basis(2, M, grid_size=65)
        dense = _dense(basis, where)
        rng = np.random.default_rng(M)
        u = rng.normal(size=M)
        assert _rel_err(basis.synthesize(u, where), u @ dense) < 1e-12
        rows = rng.normal(size=(3, M))
        assert _rel_err(basis.synthesize(rows, where), rows @ dense) < 1e-12
        v = rng.normal(size=dense.shape[1])
        assert _rel_err(basis.analyze(v, where), dense @ v) < 1e-12

    @pytest.mark.parametrize("where", ["grid", "cells"])
    def test_1d_bitwise_dense(self, where):
        basis = build_basis(1, 16)
        dense = _dense(basis, where)
        rng = np.random.default_rng(0)
        u = rng.normal(size=16)
        v = rng.normal(size=dense.shape[1])
        np.testing.assert_array_equal(basis.synthesize(u, where), u @ dense)
        np.testing.assert_array_equal(basis.analyze(v, where), dense @ v)

    @pytest.mark.parametrize("d,M", [(1, 16), (2, 1), (2, 5), (2, 9), (2, 64)])
    def test_embedding_matches_dense_kernel(self, d, M):
        basis = build_basis(d, M, grid_size=None if d == 1 else 65)
        r = 1.0 if d == 1 else 1.5
        emb = embedding_constant(basis, r)
        modes = basis.evaluate_modes(basis.grid_points)
        dense = float(np.sqrt(np.max(basis.eigenvalues ** (-r) @ modes**2)))
        if d == 1:
            assert emb == dense
        else:
            assert abs(emb - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("d", [1, 2])
    def test_quad_weights_cached_read_only(self, d):
        basis = build_basis(d, 2, grid_size=9)
        w = basis.quad_weights
        assert basis.quad_weights is w
        assert not w.flags.writeable
        h = 1.0 / 8
        w1 = np.array([h / 2] + [h] * 7 + [h / 2])
        expected = w1 if d == 1 else np.outer(w1, w1).ravel()
        np.testing.assert_array_equal(w, expected)

    def test_no_grid_sized_tables(self):
        basis = build_basis(2, 64)
        basis.synthesize(np.ones(64))
        basis.synthesize(np.ones(64), "cells")
        tables = {k: a.shape for k, a in basis._grid_cache.items()
                  if k != "weights"}
        assert tables == {"grid": (9, 257), "cells": (9, 256)}

    def test_unknown_location(self):
        with pytest.raises(BasisError):
            build_basis(1, 4).synthesize(np.ones(4), "edges")


class TestSobolevNorm:
    def test_single_mode_example(self):
        # coefficient 1 on mode 4 of the 1-d basis: norm = (16 pi^2)^{r/2}
        basis = build_basis(1, 8)
        c = np.zeros(8)
        c[3] = 1.0
        assert hr_norm(basis, c, 1.0) == pytest.approx(4 * math.pi)

    def test_two_mode_example(self):
        basis = build_basis(1, 4)
        expected = math.sqrt(PI2 + 4 * PI2)
        assert hr_norm(basis, [1.0, 1.0, 0.0, 0.0], 1.0) == pytest.approx(
            expected)

    @given(r1=st.floats(0.6, 1.4), r2=st.floats(1.5, 2.4),
           seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_r(self, r1, r2, seed):
        basis = build_basis(1, 6)
        c = np.random.default_rng(seed).normal(size=6)
        # all eigenvalues exceed 1, so the norm grows with r
        assert hr_norm(basis, c, r1) <= hr_norm(basis, c, r2) + 1e-12


class TestEmbeddingConstant:
    def test_closed_form_kernel_1d(self):
        # sum_k lambda_k^{-1} e_k(x)^2 -> x(1-x); check at a few points
        basis = build_basis(1, 400)
        pts = np.array([[0.1], [0.25], [0.5]])
        lam = basis.eigenvalues
        vals = basis.evaluate_modes(pts)        # (M, n_points)
        partial = np.sum(vals**2 / lam[:, None], axis=0)
        exact = pts[:, 0] * (1 - pts[:, 0])
        np.testing.assert_allclose(partial, exact, atol=2e-3)

    def test_value_approaches_half(self):
        emb = embedding_constant(build_basis(1, 400), 1.0)
        assert abs(emb - 0.5) < 2e-3

    def test_monotone_in_modes(self):
        v1 = embedding_constant(build_basis(1, 20), 1.0)
        v2 = embedding_constant(build_basis(1, 80), 1.0)
        assert v1 <= v2 <= 0.5 + 1e-12

    def test_rejects_small_r(self):
        with pytest.raises(BasisError):
            embedding_constant(build_basis(1, 4), 0.5)

    def test_sup_bound_soundness(self):
        # |f(x)| <= C_inf ||f||_{H_r} for random coefficient vectors
        basis = build_basis(1, 16)
        emb = embedding_constant(basis, 1.0)
        rng = np.random.default_rng(42)
        for _ in range(50):
            c = rng.normal(size=16)
            sup = np.max(np.abs(c @ basis.evaluate_modes(basis.grid_points)))
            norm = hr_norm(basis, c, 1.0)
            assert sup <= emb * norm + 1e-9


class TestLambdaSums:
    def test_1d_sum_inverse(self):
        # sum 1/(k^2 pi^2) = 1/6; partial sum plus analytic tail brackets it
        basis = build_basis(1, 50)
        s = lambda_power_sum(basis, -1.0)
        tail = lambda_power_tail(basis, -1.0)
        assert s < 1.0 / 6.0 < s + tail

    def test_tail_vanishes(self):
        t_small = lambda_power_tail(build_basis(1, 1000), -1.0)
        t_big = lambda_power_tail(build_basis(1, 10), -1.0)
        assert t_small < t_big

    def test_divergent_rejected(self):
        with pytest.raises(BasisError):
            lambda_power_tail(build_basis(1, 10), -0.4)


def test_grid_refinement_default():
    basis = build_basis(1, 100)
    assert basis.grid_size >= 4 * 100 + 1
