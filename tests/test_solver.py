import math

import numpy as np
import pytest

from fswe.basis import build_basis, embedding_constant
from fswe.noise import (LevyMeasureSpec, sample_path, truncate, zero_after)
from fswe.solver import (COEFFICIENT_PRESETS, CoefficientPair, ModeState,
                         SolverError, detect_stop, make_setup, paste_over_K,
                         paste_over_N, solve_truncated, solve_untruncated,
                         truncate_coefficients)

RADEMACHER = LevyMeasureSpec(variant="atoms", atoms=((1.0, 0.5), (-1.0, 0.5)))
# multiplicative pair with sigma(0) != 0, so zero initial data still moves
WAVE = CoefficientPair(np.sin, np.cos, 1.0, 1.0, "wave")


@pytest.fixture(scope="module")
def basis():
    return build_basis(1, 8)


def setup_for(basis, preset, n_steps=50, T=1.0):
    pair = WAVE if preset == "wave" else COEFFICIENT_PRESETS[preset]
    return make_setup(basis, 2.0, 1.0, T, n_steps, pair)


def path_for(basis, seed, n_steps=50, T=1.0, spec=RADEMACHER):
    return sample_path(spec, T, n_steps, seed,
                       cells_per_dim=basis.grid_size - 1)


class TestValidation:
    def test_gamma_must_exceed_dimension(self, basis):
        with pytest.raises(SolverError, match="gamma > d"):
            make_setup(basis, 0.9, 0.6, 1.0, 10,
                       COEFFICIENT_PRESETS["zero"])

    def test_r_window(self, basis):
        with pytest.raises(SolverError, match="d/2 < r"):
            make_setup(basis, 2.0, 0.3, 1.0, 10,
                       COEFFICIENT_PRESETS["zero"])
        with pytest.raises(SolverError, match="d/2 < r"):
            make_setup(basis, 2.0, 1.8, 1.0, 10,
                       COEFFICIENT_PRESETS["zero"])


class TestCoefficients:
    def test_presets_linear_growth(self):
        rng = np.random.default_rng(0)
        for pair in COEFFICIENT_PRESETS.values():
            pair.check_linear_growth(rng)

    def test_clamp_examples(self):
        # b(x) = x^2 clamped at radius 2: b_N(3) = 4
        from fswe.solver import CoefficientPair
        sq = CoefficientPair(lambda x: np.asarray(x)**2, lambda x: x,
                             1.0, 1.0, "square")
        clamped = truncate_coefficients(sq, 1, 2.0)
        assert clamped.b(np.array([3.0]))[0] == pytest.approx(4.0)
        # cubic clamped at 1.5: (1.5)^3 = 3.375
        cube = CoefficientPair(lambda x: np.asarray(x)**3, lambda x: x,
                               1.0, 1.0, "cube")
        assert truncate_coefficients(cube, 1, 1.5).b(
            np.array([9.0]))[0] == pytest.approx(3.375)

    def test_identity_inside_radius(self):
        pair = COEFFICIENT_PRESETS["clamped_cubic"]
        t = truncate_coefficients(pair, 2, 1.0)
        x = np.linspace(-2.0, 2.0, 41)
        np.testing.assert_array_equal(t.b(x), pair.b(x))


class TestModeState:
    def test_rebuild_identity(self):
        # u_k = w^{-1}[sin(w t)(A+Mc) - cos(w t)(B+Ms)] for random state
        rng = np.random.default_rng(1)
        M = 6
        omega = np.abs(rng.normal(size=M)) + 1.0
        s = ModeState.zero(M)
        s.t = 0.73
        s.drift_cos = rng.normal(size=M)
        s.drift_sin = rng.normal(size=M)
        s.mart_cos = rng.normal(size=M)
        s.mart_sin = rng.normal(size=M)
        u = s.rebuild_u(omega)
        expected = (np.sin(omega * s.t) * (s.drift_cos + s.mart_cos)
                    - np.cos(omega * s.t) * (s.drift_sin + s.mart_sin)) / omega
        np.testing.assert_allclose(u, expected, rtol=1e-12)


class TestDynamics:
    def test_zero_everything_stays_zero(self, basis):
        setup = setup_for(basis, "zero")
        traj = solve_untruncated(path_for(basis, 0), setup)
        assert np.all(traj.coeffs == 0.0)
        assert np.all(traj.hr_norms == 0.0)

    def test_deterministic_duhamel_closed_form(self, basis):
        # b = 1, sigma = 0: u_k(T) -> lambda^{-gamma} (1 - cos(w T)) <e_k, 1>
        n_steps = 800
        setup = setup_for(basis, "drift_only", n_steps=n_steps)
        path = zero_after(path_for(basis, 0, n_steps=n_steps), 0.0)
        traj = solve_untruncated(path, setup)
        lam1 = basis.eigenvalues[0]
        inner = 2.0 * math.sqrt(2.0) / math.pi      # <e_1, 1>
        exact = lam1**-2.0 * (1.0 - math.cos(lam1)) * inner
        assert traj.coeffs[-1, 0] == pytest.approx(exact, rel=5e-3)

    def test_duhamel_first_order_in_dt(self, basis):
        lam1 = basis.eigenvalues[0]
        inner = 2.0 * math.sqrt(2.0) / math.pi
        exact = lam1**-2.0 * (1.0 - math.cos(lam1)) * inner
        errs = []
        for n_steps in (100, 200, 400, 800):
            setup = setup_for(basis, "drift_only", n_steps=n_steps)
            path = zero_after(path_for(basis, 0, n_steps=n_steps), 0.0)
            traj = solve_untruncated(path, setup)
            errs.append(abs(traj.coeffs[-1, 0] - exact))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 0.9)

    def test_jump_enters_with_exact_phase(self, basis):
        # single jump at time t0: u_k(t) = w^{-1} sin(w (t-t0)) e_k(x0) z
        setup = setup_for(basis, "additive", n_steps=50)
        for seed in range(10):
            path = path_for(basis, seed, n_steps=50)
            if len(path.jump_times):
                break
        import dataclasses
        one = dataclasses.replace(
            path, jump_times=path.jump_times[:1],
            jump_positions=path.jump_positions[:1],
            jump_sizes=path.jump_sizes[:1],
            surrogate=(None if path.surrogate is None
                       else np.zeros_like(path.surrogate)))
        traj = solve_untruncated(one, setup)
        t0, x0, z = (one.jump_times[0], one.jump_positions[0],
                     one.jump_sizes[0])
        w = basis.eigenvalues**1.0
        ek = basis.evaluate_modes(x0[None, :])[:, 0]
        expected = np.sin(w * (1.0 - t0)) / w * ek * z
        np.testing.assert_allclose(traj.coeffs[-1], expected, atol=1e-12)

    def test_causality(self, basis):
        # zeroing the noise after t keeps the trajectory identical up to t
        setup = setup_for(basis, "wave")
        path = path_for(basis, 3)
        full = solve_untruncated(path, setup)
        cut = solve_untruncated(zero_after(path, 0.5), setup)
        idx = int(round(0.5 / setup.dt))
        np.testing.assert_array_equal(full.coeffs[:idx + 1],
                                      cut.coeffs[:idx + 1])


class TestStoppingAndPasting:
    def test_detect_stop_semantics(self, basis):
        setup = setup_for(basis, "wave")
        for seed in range(10):       # find a seed whose path actually jumps
            path = path_for(basis, seed)
            if len(path.jump_times):
                break
        traj = solve_untruncated(path, setup)
        tau = detect_stop(traj, 0.0)
        # norm starts at zero, so the first exceedance of level 0 is the
        # first nonzero norm
        nz = np.nonzero(traj.hr_norms > 0)[0]
        assert tau == traj.times[nz[0]]
        assert math.isinf(detect_stop(traj, 1e9))

    def test_truncated_matches_before_stop(self, basis):
        setup = setup_for(basis, "wave")
        for seed in range(20):
            path = path_for(basis, seed)
            t1 = solve_truncated(1, path, setup)
            t2 = solve_truncated(2, path, setup)
            tau = t1.stopping.tau_by_N[1]
            upto = (setup.n_steps + 1 if math.isinf(tau)
                    else int(round(tau / setup.dt)))
            np.testing.assert_array_equal(t1.coeffs[:upto], t2.coeffs[:upto])

    def test_tau_monotone(self, basis):
        setup = setup_for(basis, "wave")
        for seed in range(20):
            path = path_for(basis, seed)
            taus = [solve_truncated(N, path, setup).stopping.tau_by_N[N]
                    for N in (1, 2, 4)]
            assert taus[0] <= taus[1] <= taus[2]

    def test_paste_records_levels(self, basis):
        setup = setup_for(basis, "wave")
        traj = paste_over_N(path_for(basis, 5), setup)
        assert 1 in traj.stopping.tau_by_N
        assert np.all(traj.active_N >= 1)
        # pasted norms never exceed the level active at that time
        assert np.all(traj.hr_norms <= traj.active_N + 1e-12)

    def test_paste_agrees_with_deep_level(self, basis):
        # wherever level N is active, the pasted run equals the level-N solve
        setup = setup_for(basis, "wave")
        path = path_for(basis, 6)
        pasted = paste_over_N(path, setup)
        for N in np.unique(pasted.active_N):
            ref = solve_truncated(int(N), path, setup)
            sel = pasted.active_N == N
            np.testing.assert_array_equal(pasted.coeffs[sel], ref.coeffs[sel])

    def test_paste_over_K_rejects_asymmetric(self, basis):
        setup = setup_for(basis, "wave")
        spec = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0),))
        path = sample_path(spec, 1.0, 50, 0,
                           cells_per_dim=basis.grid_size - 1)
        with pytest.raises(SolverError):
            paste_over_K(path, setup)

    @pytest.mark.parametrize("schedule,msg", [
        ((1.0, 1.0, 2.0), "strictly increasing"),
        ((2.0, 1.0), "strictly increasing"),
        ((), "non-empty"),
        ((0.005, 1.0), "below the noise cutoff"),
    ])
    def test_paste_over_K_rejects_bad_schedule(self, basis, schedule, msg):
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        setup = setup_for(basis, "wave")
        path = sample_path(spec, 1.0, 50, 8,
                           cells_per_dim=basis.grid_size - 1)
        with pytest.raises(SolverError, match=msg):
            paste_over_K(path, setup, K_schedule=schedule)

    def test_paste_over_K_stable(self, basis):
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        setup = setup_for(basis, "wave", n_steps=50)
        path = sample_path(spec, 1.0, 50, 8,
                           cells_per_dim=basis.grid_size - 1)
        traj = paste_over_K(path, setup, K_schedule=(1.0, 2.0, 4.0, 8.0))
        assert np.all(np.isfinite(traj.coeffs))
        assert len(traj.stopping.tau_by_K) >= 1
        # levels K where no jump exceeds them agree with deeper levels
        k1 = paste_over_N(truncate(path, 8.0), setup)
        last = traj.active_K == 8.0
        if last.any():
            np.testing.assert_array_equal(traj.coeffs[last], k1.coeffs[last])


class TestEmbeddingInteraction:
    def test_setup_uses_embedding_constant(self, basis):
        setup = setup_for(basis, "wave")
        emb = embedding_constant(basis, 1.0)
        assert setup.C_inf == pytest.approx(emb.value)
