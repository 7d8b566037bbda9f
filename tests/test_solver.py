import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _paste_oracle as oracle
import fswe.solver
from fswe.basis import build_basis, embedding_constant
from fswe.noise import (LevyMeasureSpec, sample_path, truncate, zero_after)
from fswe.solver import (COEFFICIENT_PRESETS, CoefficientPair, ModeState,
                         SolverError, clamp_radius, detect_stop, make_setup,
                         paste_over_K, paste_over_N, row_groups, solve_rows,
                         solve_truncated, solve_untruncated, step)

RADEMACHER = LevyMeasureSpec(variant="atoms", atoms=((1.0, 0.5), (-1.0, 0.5)))
ASYMMETRIC = LevyMeasureSpec(variant="atoms", atoms=((1.5, 1.0), (-0.5, 0.5)))
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
        # |b(x)| <= D_b (1+|x|) and the sigma analog: D_b, D_sigma feed hatC
        def check_linear_growth(pair, rng):
            xs = rng.uniform(-1e6, 1e6, size=1000)
            bound = 1.0 + np.abs(xs)
            assert np.all(np.abs(pair.b(xs)) <= pair.D_b * bound + 1e-9), \
                f"drift of pair {pair.name!r} violates linear growth"
            assert np.all(np.abs(pair.sigma(xs)) <= pair.D_sigma * bound
                          + 1e-9), \
                f"diffusion of pair {pair.name!r} violates linear growth"

        rng = np.random.default_rng(0)
        for pair in COEFFICIENT_PRESETS.values():
            check_linear_growth(pair, rng)
        # the constant parts are read-only broadcasts with the values, shape
        # and dtype of a fresh ones/zeros array, so no call allocates one
        for x in (0.7, np.linspace(-3.0, 3.0, 12), np.ones((4, 3), dtype=int)):
            for name, value in (("zero", 0.0), ("constant", 1.0)):
                pair = COEFFICIENT_PRESETS[name]
                for out in (pair.b(x), pair.sigma(x)):
                    np.testing.assert_array_equal(
                        out, np.full(np.shape(x), value), strict=True)
                    assert not out.flags.writeable

    def test_clamp_examples(self):
        # b(x) = x^2 clamped at radius 2: b_N(3) = 4
        sq = CoefficientPair(lambda x: np.asarray(x)**2, lambda x: x,
                             1.0, 1.0, "square")
        _, seen = _kernel_arguments(sq, [3.0], N=1, C_inf=2.0)
        assert sq.b(seen["b"])[0].max() == pytest.approx(4.0)
        assert sq.sigma(seen["sigma"])[0, 0] == pytest.approx(2.0)
        # cubic clamped at 1.5: (1.5)^3 = 3.375
        cube = CoefficientPair(lambda x: np.asarray(x)**3, lambda x: x,
                               1.0, 1.0, "cube")
        _, seen = _kernel_arguments(cube, [9.0], N=1, C_inf=1.5)
        assert cube.b(seen["b"])[0].max() == pytest.approx(3.375)
        assert cube.sigma(seen["sigma"])[0, 0] == pytest.approx(1.5)

    def test_identity_inside_radius(self):
        pair = COEFFICIENT_PRESETS["clamped_cubic"]
        field, seen = _kernel_arguments(pair, np.linspace(-2.0, 2.0, 41),
                                        N=2, C_inf=1.0)
        assert np.abs(field).max() == 2.0
        np.testing.assert_array_equal(seen["b"], field)
        np.testing.assert_array_equal(pair.b(seen["b"]), pair.b(field))
        at_jump = field[:, [len(field[0]) // 2]]
        np.testing.assert_array_equal(seen["sigma"], at_jump)


def _kernel_arguments(pair, peaks, N, C_inf):
    """One kernel step on rows of a one-mode d=1 field, row i peaking at
    peaks[i] at x = 1/2, where the path's one jump sits, each row clamped
    at level N with embedding constant C_inf. Returns the rows' grid values
    and the arguments the kernel passed to b (on the grid) and to sigma (at
    the jump)."""
    basis = build_basis(1, 1)
    seen = {}

    def recorded(name, f):
        def g(x):
            seen[name] = np.array(x)
            return f(x)
        return g

    setup = make_setup(basis, 2.0, 1.0, 1.0, 1,
                       CoefficientPair(recorded("b", pair.b),
                                       recorded("sigma", pair.sigma),
                                       1.0, 1.0), C_inf=C_inf)
    state = ModeState.zero((len(peaks), 1))
    # sqrt(2) sin(pi x) is sqrt(2) at x = 1/2
    state.u = np.asarray(peaks, dtype=float)[:, None] / math.sqrt(2.0)
    path = dataclasses.replace(
        path_for(basis, 0, n_steps=1), jump_times=np.zeros(1),
        jump_positions=np.full((1, 1), 0.5), jump_sizes=np.ones(1))
    radius = np.full(len(peaks), clamp_radius(N, C_inf))
    step(state, row_groups([path] * len(peaks), setup), 0, setup, radius)
    return basis.synthesize(state.u), seen


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

    def test_paste_rejects_N_max_below_one(self, basis):
        setup = setup_for(basis, "wave")
        with pytest.raises(SolverError, match="N_max >= 1"):
            paste_over_N(path_for(basis, 0), setup, N_max=0)

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


def _n_record(traj, N_max, dt):
    """tau_N and its bracket for the levels a pasted trajectory used: the
    first grid time its norm exceeds N, up to the first N never exceeded
    or N_max."""
    tau_by_N, brackets = {}, {}
    for N in range(1, N_max + 1):
        tau = detect_stop(traj, N)
        tau_by_N[N] = tau
        if math.isinf(tau):
            break
        brackets[N] = (max(tau - dt, 0.0), tau)
    return tau_by_N, brackets


def _assert_same_pasting(new, old):
    for name in ("times", "coeffs", "hr_norms", "active_N", "active_K"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert new.stopping.tau_by_K == old.stopping.tau_by_K


class TestOnePassPasting:
    """The one-pass pasting against the level-by-level oracle in
    tests/_paste_oracle.py, which solves every level again from t=0."""

    @given(d=st.sampled_from([1, 2]), M=st.sampled_from([8, 16]),
           grid=st.integers(17, 37),
           preset=st.sampled_from(sorted(COEFFICIENT_PRESETS) + ["wave"]),
           noise=st.sampled_from(["rademacher", "asymmetric", 0.8, 1.0, 1.5]),
           N_max=st.sampled_from([1, 2, 8]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    # at tau_1 this path's norm is 1.36 and its sup exceeds the level-1
    # clamp radius C_inf, so a pass that switches to the level-2 clamp one
    # step late differs from the oracle
    @example(d=1, M=8, grid=17, preset="wave", noise=1.5, N_max=2, seed=17)
    def test_matches_level_by_level_oracle(self, d, M, grid, preset, noise,
                                           N_max, seed):
        basis = build_basis(2, 9, grid_size=grid) if d == 2 \
            else build_basis(1, M)
        gamma, r = (3.0, 1.5) if d == 2 else (2.0, 1.0)
        pair = WAVE if preset == "wave" else COEFFICIENT_PRESETS[preset]
        setup = make_setup(basis, gamma, r, 1.0, 30, pair)
        spec = {"rademacher": RADEMACHER, "asymmetric": ASYMMETRIC}.get(
            noise) or LevyMeasureSpec(variant="stable", alpha=noise,
                                      cutoff=0.01)
        path = sample_path(spec, 1.0, 30, seed,
                           cells_per_dim=basis.grid_size - 1, dimension=d)
        if spec.variant == "stable":
            new = paste_over_K(path, setup, N_max=N_max)
            old = oracle.paste_over_K(path, setup, N_max=N_max)
            # the oracle records no N levels when it pastes over K
            expect_N = _n_record(old, N_max, setup.dt)
        else:
            new = paste_over_N(path, setup, N_max=N_max)
            old = oracle.paste_over_N(path, setup, N_max=N_max)
            expect_N = old.stopping.tau_by_N, old.stopping.tau_brackets
            assert new.stopping.tau_by_K == {}
        _assert_same_pasting(new, old)
        assert (new.stopping.tau_by_N, new.stopping.tau_brackets) == expect_N
        taus_K = list(new.stopping.tau_by_K.values())
        capped = bool(np.any(new.hr_norms > N_max)) or (
            bool(taus_K) and math.isfinite(taus_K[-1]))
        assert new.stopping.cap_reached == capped
        # the oracle also counts caps hit in the discarded suffix of a
        # lower K level, so its flag can only be set more often
        assert old.stopping.cap_reached or not new.stopping.cap_reached

    def test_paste_over_K_steps_once_per_grid_step(self, basis, monkeypatch):
        calls = []
        step = fswe.solver.step

        def counted(*args):
            calls.append(args[2])
            return step(*args)

        monkeypatch.setattr(fswe.solver, "step", counted)
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        setup = setup_for(basis, "wave", n_steps=50)
        path = sample_path(spec, 1.0, 50, 4,
                           cells_per_dim=basis.grid_size - 1)
        traj = paste_over_K(path, setup)
        assert len(traj.stopping.tau_by_K) >= 3
        assert calls == list(range(setup.n_steps))
        calls.clear()
        traj = paste_over_N(path, setup)
        assert traj.active_N.max() >= 3
        assert calls == list(range(setup.n_steps))


class TestBatchedRows:
    """The row-batch contract of the step kernel: a row's bytes do not
    depend on the batch it is solved in, nor on its place there."""

    @given(d=st.sampled_from([1, 2]),
           preset=st.sampled_from(sorted(COEFFICIENT_PRESETS) + ["wave"]),
           noise=st.sampled_from(["rademacher", "asymmetric", 0.8, 1.5]),
           levels=st.lists(st.sampled_from([1, 2, 3, 8]), min_size=4,
                           max_size=4),
           order=st.permutations(range(64)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    # d=1 with drift, stable jumps and a surrogate: every row differs from
    # its lone solve if the d=1 transforms run as one 2-D product
    @example(d=1, preset="wave", noise=1.5, levels=[1, 8, 2, 1],
             order=list(range(64)), seed=3)
    def test_rows_match_lone_solves(self, d, preset, noise, levels, order,
                                    seed):
        basis = build_basis(2, 9, grid_size=21) if d == 2 \
            else build_basis(1, 16)
        gamma, r = (3.0, 1.5) if d == 2 else (2.0, 1.0)
        pair = WAVE if preset == "wave" else COEFFICIENT_PRESETS[preset]
        setup = make_setup(basis, gamma, r, 1.0, 12, pair)
        spec = {"rademacher": RADEMACHER, "asymmetric": ASYMMETRIC}.get(
            noise) or LevyMeasureSpec(variant="stable", alpha=noise,
                                      cutoff=0.01)
        paths = [sample_path(spec, 1.0, 12, seed + p,
                             cells_per_dim=basis.grid_size - 1, dimension=d)
                 for p in range(16)]
        # 16 paths x 4 levels = 64 rows, in the drawn order
        pairs = [(paths[k // 4], levels[k % 4]) for k in order]
        radius = np.array([clamp_radius(N, setup.C_inf) for _, N in pairs])
        norms, coeffs = solve_rows([p for p, _ in pairs], setup, radius,
                                   keep=slice(None))
        assert norms.shape == (64, 13)
        assert coeffs.shape == (64, 13, basis.mode_count)
        for i, (path, N) in enumerate(pairs):
            lone_norms, lone_coeffs = solve_rows([path], setup,
                                                 radius[i:i + 1],
                                                 keep=slice(None))
            assert coeffs[i].tobytes() == lone_coeffs[0].tobytes(), i
            assert norms[i].tobytes() == lone_norms[0].tobytes(), i
            ref = solve_truncated(N, path, setup)
            assert coeffs[i].tobytes() == ref.coeffs.tobytes(), i
            assert norms[i].tobytes() == ref.hr_norms.tobytes(), i
        # unclamped rows: the same contract for solve_untruncated
        rows = order[:8]
        norms, coeffs = solve_rows([paths[k // 4] for k in rows], setup,
                                   None, keep=slice(None))
        for i, k in enumerate(rows):
            ref = solve_untruncated(paths[k // 4], setup)
            assert coeffs[i].tobytes() == ref.coeffs.tobytes(), i
            assert norms[i].tobytes() == ref.hr_norms.tobytes(), i

    def test_rows_share_one_measure(self, basis):
        setup = setup_for(basis, "wave")
        paths = [path_for(basis, 0), path_for(basis, 1, spec=ASYMMETRIC)]
        with pytest.raises(SolverError, match="one Levy measure"):
            solve_rows(paths, setup, None)

    def test_d2_paste_allocates_less_than_a_surrogate(self):
        # the kernel reads the surrogate one step at a time, as a view:
        # no copy or stack of a whole-path surrogate
        basis = build_basis(2, 64, grid_size=65)
        setup = make_setup(basis, 3.0, 1.5, 1.0, 50,
                           COEFFICIENT_PRESETS["constant"])
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        path = sample_path(spec, 1.0, 50, 9, cells_per_dim=64, dimension=2)
        setup.phases  # tabulated once per setup, not per path
        tracemalloc.start()
        try:
            traj = paste_over_K(path, setup)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.stopping.tau_by_K) == 4   # every K level entered
        assert peak < path.surrogate.nbytes


class TestEmbeddingInteraction:
    def test_setup_uses_embedding_constant(self, basis):
        setup = setup_for(basis, "wave")
        assert setup.C_inf == pytest.approx(embedding_constant(basis, 1.0))
