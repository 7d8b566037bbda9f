import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _paste_oracle as oracle
import fswe.basis
import fswe.solver
from fswe.basis import build_basis, embedding_constant
from fswe.noise import (GaussianSurrogate, LevyMeasureSpec, grid_times,
                        sample_path, truncate, zero_after)
from fswe.solver import (COEFFICIENT_PRESETS, CoefficientPair, ModeState,
                         SolverError, clamp_radius, detect_stop, make_setup,
                         jump_table, paste_over_K, paste_over_N, paste_rows,
                         solve_rows, solve_truncated, solve_untruncated, step)

RADEMACHER = LevyMeasureSpec(variant="atoms", atoms=((1.0, 0.5), (-1.0, 0.5)))
ASYMMETRIC = LevyMeasureSpec(variant="atoms", atoms=((1.5, 1.0), (-0.5, 0.5)))
# atoms +-3 at rate 2 each: tau_1 is finite on most paths
PM3 = LevyMeasureSpec(variant="atoms", atoms=((3.0, 2.0), (-3.0, 2.0)))
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
        assert sq.sigma(seen["sigma"])[0] == pytest.approx(2.0)
        # cubic clamped at 1.5: (1.5)^3 = 3.375
        cube = CoefficientPair(lambda x: np.asarray(x)**3, lambda x: x,
                               1.0, 1.0, "cube")
        _, seen = _kernel_arguments(cube, [9.0], N=1, C_inf=1.5)
        assert cube.b(seen["b"])[0].max() == pytest.approx(3.375)
        assert cube.sigma(seen["sigma"])[0] == pytest.approx(1.5)

    def test_identity_inside_radius(self):
        pair = COEFFICIENT_PRESETS["clamped_cubic"]
        field, seen = _kernel_arguments(pair, np.linspace(-2.0, 2.0, 41),
                                        N=2, C_inf=1.0)
        assert np.abs(field).max() == 2.0
        np.testing.assert_array_equal(seen["b"], field)
        np.testing.assert_array_equal(pair.b(seen["b"]), pair.b(field))
        # one value per (row, jump) line: each row's one jump
        at_jump = field[:, len(field[0]) // 2]
        np.testing.assert_array_equal(seen["sigma"], at_jump)


def _recording(pair):
    """pair with b and sigma wrapped to record a copy of every argument;
    returns (recording pair, {"b": [...], "sigma": [...]})."""
    seen = {"b": [], "sigma": []}

    def recorded(name, f):
        def g(x):
            seen[name].append(np.array(x))
            return f(x)
        return g

    return (CoefficientPair(recorded("b", pair.b),
                            recorded("sigma", pair.sigma),
                            pair.D_b, pair.D_sigma, pair.name), seen)


def _kernel_arguments(pair, peaks, N, C_inf):
    """One kernel step on rows of a one-mode d=1 field, row i peaking at
    peaks[i] at x = 1/2, where the path's one jump sits, each row clamped
    at level N with embedding constant C_inf. Returns the rows' grid values
    and the arguments the kernel passed to b (on the grid) and to sigma (at
    the jump)."""
    basis = build_basis(1, 1)
    recording, seen = _recording(pair)
    setup = make_setup(basis, 2.0, 1.0, 1.0, 1, recording, C_inf=C_inf)
    state = ModeState.zero((len(peaks), 1))
    # sqrt(2) sin(pi x) is sqrt(2) at x = 1/2
    state.u = np.asarray(peaks, dtype=float)[:, None] / math.sqrt(2.0)
    path = dataclasses.replace(
        path_for(basis, 0, n_steps=1), jump_times=np.zeros(1),
        jump_positions=np.full((1, 1), 0.5), jump_sizes=np.ones(1))
    radius = np.full(len(peaks), clamp_radius(N, C_inf))
    step(state, jump_table([path] * len(peaks), setup), 0, setup, radius,
         None)
    return basis.synthesize(state.u), {name: calls[-1]
                                       for name, calls in seen.items()}


class TestModeState:
    def test_rebuild_identity(self):
        # u_k = w^{-1}[sin(w t) C - cos(w t) S] for random sums, with the
        # phases computed here or passed in
        rng = np.random.default_rng(1)
        M = 6
        omega = np.abs(rng.normal(size=M)) + 1.0
        s = ModeState.zero(M)
        s.t = 0.73
        s.cos_sum = rng.normal(size=M)
        s.sin_sum = rng.normal(size=M)
        cos_t, sin_t = np.cos(omega * s.t), np.sin(omega * s.t)
        expected = (sin_t * s.cos_sum - cos_t * s.sin_sum) / omega
        assert s.rebuild_u(omega).tobytes() == expected.tobytes()
        assert s.rebuild_u(omega, cos_t, sin_t).tobytes() == \
            expected.tobytes()


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
                       else dataclasses.replace(path.surrogate,
                                                live_steps=0)))
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


def _n_record(traj, N_max):
    """tau_N and its bracket for the levels a pasted trajectory used: the
    first grid time its norm exceeds N, up to the first N never exceeded
    or N_max, and the grid time before it."""
    tau_by_N, brackets = {}, {}
    for N in range(1, N_max + 1):
        tau = detect_stop(traj, N)
        tau_by_N[N] = tau
        if math.isinf(tau):
            break
        n = int(np.flatnonzero(traj.times == tau)[0])
        brackets[N] = (float(traj.times[n - 1]), tau)
    return tau_by_N, brackets


def _assert_grid_brackets(record, times):
    """Every tau_N bracket is two consecutive grid times."""
    for lo, hi in record.tau_brackets.values():
        n = int(np.searchsorted(times, hi))
        assert n >= 1 and (times[n - 1], times[n]) == (lo, hi), (lo, hi)


# Random (d, M, grid, preset, noise, seed) configs: M applies in d=1, where
# the grid is the default; d=2 has M=9 on the drawn grid.
CONFIG_DRAWS = dict(
    d=st.sampled_from([1, 2]), M=st.sampled_from([8, 16]),
    grid=st.integers(17, 37),
    preset=st.sampled_from(sorted(COEFFICIENT_PRESETS) + ["wave"]),
    noise=st.sampled_from(["rademacher", "asymmetric", "pm3", 0.8, 1.0,
                           1.5]),
    seed=st.integers(0, 2**32 - 1))


def drawn_config(d, M, grid, preset, noise, seed, gamma=None, r=None):
    """The setup (30 steps on [0, 1]) and noise path of a drawn config;
    gamma and r default to (2, 1) in d=1 and (3, 1.5) in d=2."""
    basis = build_basis(2, 9, grid_size=grid) if d == 2 \
        else build_basis(1, M)
    if gamma is None:
        gamma, r = (3.0, 1.5) if d == 2 else (2.0, 1.0)
    pair = WAVE if preset == "wave" else COEFFICIENT_PRESETS[preset]
    setup = make_setup(basis, gamma, r, 1.0, 30, pair)
    spec = {"rademacher": RADEMACHER, "asymmetric": ASYMMETRIC,
            "pm3": PM3}.get(noise) or LevyMeasureSpec(
                variant="stable", alpha=noise, cutoff=0.01)
    return setup, sample_path(spec, 1.0, 30, seed,
                              cells_per_dim=basis.grid_size - 1, dimension=d)


def _assert_same_pasting(new, old):
    for name in ("times", "coeffs", "hr_norms", "active_N", "active_K"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert new.stopping.tau_by_K == old.stopping.tau_by_K


class TestOnePassPasting:
    """The one-pass pasting against the level-by-level oracle in
    tests/_paste_oracle.py, which solves every level again from t=0."""

    @given(**CONFIG_DRAWS, N_max=st.sampled_from([1, 2, 8]))
    @settings(max_examples=30, deadline=None)
    # at tau_1 this path's norm is 1.36 and its sup exceeds the level-1
    # clamp radius C_inf, so a pass that switches to the level-2 clamp one
    # step late differs from the oracle
    @example(d=1, M=8, grid=17, preset="wave", noise=1.5, N_max=2, seed=17)
    def test_matches_level_by_level_oracle(self, d, M, grid, preset, noise,
                                           N_max, seed):
        setup, path = drawn_config(d, M, grid, preset, noise, seed)
        if path.spec.variant == "stable":
            new = paste_over_K(path, setup, N_max=N_max)
            old = oracle.paste_over_K(path, setup, N_max=N_max)
            # the oracle records no N levels when it pastes over K
            expect_N = _n_record(old, N_max)
        else:
            new = paste_over_N(path, setup, N_max=N_max)
            old = oracle.paste_over_N(path, setup, N_max=N_max)
            expect_N = old.stopping.tau_by_N, old.stopping.tau_brackets
            assert new.stopping.tau_by_K == {}
        _assert_same_pasting(new, old)
        assert (new.stopping.tau_by_N, new.stopping.tau_brackets) == expect_N
        _assert_grid_brackets(new.stopping, setup.times)
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


class TestCouplingProperties:
    """The identities pasting and consistency_suite rely on, over drawn
    (d, M, gamma, r, preset, noise) configs, each level solved on its own:
    levels N and N+1 agree bitwise up to and including tau_N's grid index,
    and zeroing the noise after a cut leaves the past bit-identical."""

    @given(**CONFIG_DRAWS, excess=st.sampled_from([0.5, 1.0, 2.0]),
           r_frac=st.sampled_from([0.25, 0.5, 0.75]),
           N=st.sampled_from([1, 2]), cut=st.integers(1, 29))
    @settings(max_examples=25, deadline=None)
    # tau_1 is finite on this path (see TestOnePassPasting's example)
    @example(d=1, M=8, grid=17, preset="wave", noise=1.5, seed=17,
             excess=1.0, r_frac=0.5, N=1, cut=12)
    def test_N_coupling_and_localization(self, d, M, grid, preset, noise,
                                         seed, excess, r_frac, N, cut):
        # gamma = d + excess and d/2 < r < gamma - d/2
        setup, path = drawn_config(d, M, grid, preset, noise, seed,
                                   gamma=d + excess,
                                   r=d / 2.0 + r_frac * excess)
        level_N = solve_truncated(N, path, setup)
        level_N1 = solve_truncated(N + 1, path, setup)
        cut_N1 = solve_truncated(N + 1, zero_after(path, cut * setup.dt),
                                 setup)
        tau = level_N.stopping.tau_by_N[N]
        upto = int(np.searchsorted(setup.times, tau)) + 1
        assert (level_N.coeffs[:upto].tobytes()
                == level_N1.coeffs[:upto].tobytes())
        assert (level_N1.coeffs[:cut + 1].tobytes()
                == cut_N1.coeffs[:cut + 1].tobytes())


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

    def test_unclamped_row_in_a_clamped_batch(self, basis):
        # radius inf is the unclamped row: its bytes are solve_untruncated's,
        # while the same path clamped at C_inf in the same batch differs
        setup = setup_for(basis, "wave")
        paths = [path_for(basis, s, spec=PM3) for s in (0, 1)]
        radius = np.array([clamp_radius(2, setup.C_inf), math.inf,
                           clamp_radius(1, setup.C_inf)])
        norms, coeffs = solve_rows([paths[0], paths[1], paths[1]], setup,
                                   radius, keep=slice(None))
        alone = solve_untruncated(paths[1], setup)
        assert coeffs[1].tobytes() == alone.coeffs.tobytes()
        assert norms[1].tobytes() == alone.hr_norms.tobytes()
        assert not np.array_equal(coeffs[2], coeffs[1])

    @pytest.mark.parametrize("solve", [
        lambda setup: paste_rows([], setup),
        lambda setup: paste_rows([], setup, (1.0, 2.0)),
        lambda setup: solve_rows([], setup, None)],
        ids=["paste_over_N", "paste_over_K", "solve_rows"])
    def test_empty_batch(self, basis, solve):
        with pytest.raises(SolverError, match="at least one path"):
            solve(setup_for(basis, "wave"))

    def test_rows_share_one_measure(self, basis):
        setup = setup_for(basis, "wave")
        paths = [path_for(basis, 0), path_for(basis, 1, spec=ASYMMETRIC)]
        with pytest.raises(SolverError, match="one Levy measure"):
            solve_rows(paths, setup, None)

    def test_d2_paste_allocates_less_than_a_surrogate(self):
        # the solve draws the surrogate one step at a time: no whole-path
        # surrogate is built, copied or stacked
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
        assert peak < path.surrogate.full().nbytes

    @staticmethod
    def ensemble_paste_extra(preset):
        """16 stable paths on 512 cells pasted over K at the ensemble's
        shape: (the bytes the paste allocates beyond its outputs at its
        peak, the bytes of one path's whole surrogate)."""
        basis = build_basis(1, 128)
        setup = make_setup(basis, 2.0, 1.0, 1.0, 100,
                           COEFFICIENT_PRESETS[preset])
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        paths = [sample_path(spec, 1.0, 100, s,
                             cells_per_dim=basis.cells_per_dim)
                 for s in range(16)]
        # the setup's tables and the basis's cell table are built once
        paste_rows(paths[:1], setup, (1.0, 2.0, 4.0, 8.0))
        tracemalloc.start()
        try:
            pasted = paste_rows(paths, setup, (1.0, 2.0, 4.0, 8.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = sum(t.coeffs.nbytes + t.hr_norms.nbytes
                      + t.active_N.nbytes + t.active_K.nbytes
                      for t in pasted)
        return peak - outputs, paths[0].surrogate.size * 8

    def test_d1_ensemble_paste_allocates_blocks_not_paths(self):
        # constant: the projected feed holds a tile of 16 steps per
        # surrogate, projected to 128 modes, 16 kB each. About 0.6 MB
        # besides the outputs; the raw tiles of 8192 values would pass
        # 0.8 MB, two paths' whole surrogates
        extra, whole = self.ensemble_paste_extra("constant")
        assert extra < 2 * whole, extra

    def test_d1_sine_paste_holds_one_raw_tile_per_surrogate(self):
        # sine reads the state, so the surrogate feeds step its raw
        # increments: the feed holds one tile of 16 steps x 512 cells per
        # surrogate, 64 kB each, 1 MB for the 16 paths, against 6.6 MB for
        # their whole surrogates. The paste's allocation beyond its
        # outputs is the feed plus about 0.45 MB, so it lies above one
        # tile per surrogate and below two; tiles of twice the height
        # would pass two.
        extra, whole = self.ensemble_paste_extra("sine")
        tiles = 16 * 16 * 512 * 8
        assert tiles < extra < 2 * tiles < 16 * whole, extra


def _recorded_surrogates(monkeypatch):
    """Record step's surrogate argument at every call, as (n, rows, dW)
    with rows an index array and dW copied."""
    calls = []
    step = fswe.solver.step

    def recording(state, table, n, setup, radius, surrogate):
        if surrogate is not None:
            rows, dW = surrogate
            rows = np.arange(len(state.u))[rows]
            calls.append((n, rows, np.array(dW)))
        return step(state, table, n, setup, radius, surrogate)

    monkeypatch.setattr(fswe.solver, "step", recording)
    return calls


def _whole_path_draw(surrogate):
    """The (n_steps, n_cells) draw of a surrogate, zero from live_steps on,
    written out: one standard_normal call from its generator state."""
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = surrogate.state
    values = surrogate.std * rng.standard_normal(surrogate.shape)
    values[surrogate.live_steps:] = 0.0
    return values


def _check_surrogate_rows(paths, setup, calls, expected=_whole_path_draw):
    """Row i reads expected(its surrogate)[n] bitwise at every live step n
    of that surrogate, in row order, and is absent from the rows of every
    other step."""
    draws = {id(p.surrogate): expected(p.surrogate)
             for p in paths if p.surrogate is not None}
    width = next(iter(draws.values())).shape[1]
    assert [n for n, _, _ in calls] == sorted({n for n, _, _ in calls})
    seen = np.zeros((len(paths), setup.n_steps), dtype=bool)
    for n, rows, values_of_rows in calls:
        assert (np.diff(rows) > 0).all()     # row order
        assert values_of_rows.shape == (len(rows), width)
        for row, values in zip(rows, values_of_rows):
            draw = draws[id(paths[row].surrogate)]
            assert values.tobytes() == draw[n].tobytes(), (n, row)
            seen[row, n] = True
    for i, p in enumerate(paths):
        live = 0 if p.surrogate is None else p.surrogate.live_steps
        assert seen[i].tolist() == [n < live
                                    for n in range(setup.n_steps)], i


class TestSurrogateBlocks:
    """When sigma reads the state, the solver draws each surrogate a tile
    of steps at a time, and step gets each row's increment of the step in
    row order: bitwise the row of the whole-path draw."""

    def test_d1_blocks_with_cuts_and_shared_surrogates(self, monkeypatch):
        # 256 cells: a tile holds 32 of the 100 steps; the cut at 0.3 falls
        # inside the first tile, and three truncations of one path share
        # its surrogate with a row of another path between
        basis = build_basis(1, 4, grid_size=257)
        setup = make_setup(basis, 2.0, 1.0, 1.0, 100, WAVE)
        assert fswe.noise.tile_height(basis.cell_count) == 32
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        drawn = [sample_path(spec, 1.0, 100, s, cells_per_dim=256)
                 for s in range(3)]
        cut = zero_after(drawn[1], 0.3)
        paths = [truncate(drawn[0], 0.05), cut, truncate(drawn[0], 0.2),
                 sample_path(RADEMACHER, 1.0, 100, 7, cells_per_dim=256),
                 drawn[0], drawn[2]]
        paths = [dataclasses.replace(p, spec=spec) for p in paths]
        assert cut.surrogate.live_steps == 30
        calls = _recorded_surrogates(monkeypatch)
        radius = np.full(len(paths), clamp_radius(2, setup.C_inf))
        norms, coeffs = solve_rows(paths, setup, radius, keep=slice(None))
        _check_surrogate_rows(paths, setup, calls)
        monkeypatch.undo()
        for i, p in enumerate(paths):
            lone = solve_truncated(2, p, setup)
            assert coeffs[i].tobytes() == lone.coeffs.tobytes(), i
            assert norms[i].tobytes() == lone.hr_norms.tobytes(), i

    def test_one_row_per_surrogate_reads_a_view(self, monkeypatch):
        # the ensemble's case, with a sigma that reads the state: every row
        # its own live surrogate, in order
        basis = build_basis(1, 4, grid_size=17)
        setup = make_setup(basis, 2.0, 1.0, 1.0, 20, WAVE)
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        paths = [sample_path(spec, 1.0, 20, s, cells_per_dim=16)
                 for s in range(4)]
        views = []
        for rows, dW in fswe.solver._surrogate_rows(paths, setup):
            assert rows == slice(0, 4)
            views.append(dW.base is not None)
        assert all(views) and len(views) == 20
        calls = _recorded_surrogates(monkeypatch)
        paste_rows(paths, setup, (1.0, 2.0, 4.0, 8.0))
        _check_surrogate_rows(paths, setup, calls)

    def test_d2_blocks_are_one_step(self, monkeypatch):
        # 128 x 128 cells: tiles of one step, drawn for each live surrogate
        basis = build_basis(2, 9, grid_size=129)
        assert fswe.noise.tile_height(basis.cell_count) == 1
        setup = make_setup(basis, 3.0, 1.5, 1.0, 10, WAVE)
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        drawn = [sample_path(spec, 1.0, 10, s, cells_per_dim=128,
                             dimension=2) for s in range(2)]
        paths = [drawn[0], zero_after(drawn[1], 0.45), truncate(drawn[0], 0.1)]
        assert paths[1].surrogate.live_steps == 5
        # each stream's tiles, by the surrogate object that draws them:
        # the two streams are drawn by two iterators, on two threads
        streams = [drawn[0].surrogate, paths[1].surrogate]
        tiles = {0: [], 1: []}
        surrogate_tiles = fswe.solver.surrogate_tiles

        def recorded(surrogates, out=None):
            for lo, i, tile in surrogate_tiles(surrogates, out):
                stream = next(k for k, s in enumerate(streams)
                              if s is surrogates[i])
                tiles[stream].append((lo, len(tile)))
                yield lo, i, tile

        monkeypatch.setattr(fswe.solver, "surrogate_tiles", recorded)
        calls = _recorded_surrogates(monkeypatch)
        paste_rows(paths, setup, (1.0, 2.0, 4.0), N_max=2)
        assert tiles == {0: [(n, 1) for n in range(setup.n_steps)],
                         1: [(n, 1) for n in range(5)]}
        _check_surrogate_rows(paths, setup, calls)


def _recorded_draws(monkeypatch, fail_on=None):
    """Record each tile surrogate_tiles draws for the solver, as (thread,
    surrogate, lo); the draw of the tile at step 16 on the thread
    ``fail_on`` ("solver" or "helper") raises instead."""
    draws = []
    surrogate_tiles = fswe.solver.surrogate_tiles

    def recorded(surrogates, out=None):
        for lo, i, tile in surrogate_tiles(surrogates, out):
            solver = threading.current_thread() is threading.main_thread()
            if lo == 16 and fail_on == ("solver" if solver else "helper"):
                raise RuntimeError(f"{fail_on} draw failed")
            draws.append((threading.get_ident(), surrogates[i], lo))
            yield lo, i, tile

    monkeypatch.setattr(fswe.solver, "surrogate_tiles", recorded)
    return draws


def _ensemble_batch(preset, n_paths=16):
    """A setup at the ensemble's shape, 512 cells with tiles of 16 steps,
    and n_paths stable paths of 100 steps on it."""
    basis = build_basis(1, 128)
    setup = make_setup(basis, 2.0, 1.0, 1.0, 100,
                       COEFFICIENT_PRESETS[preset])
    spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
    return setup, [sample_path(spec, 1.0, 100, s,
                               cells_per_dim=basis.cells_per_dim)
                   for s in range(n_paths)]


class TestSurrogateHelper:
    """A batch's surrogate streams split into two halves: the solver
    thread draws the first, one helper thread the rest, and the helper
    lives no longer than the solve."""

    @pytest.mark.parametrize("preset", ["constant", "sine"])
    def test_two_threads_each_stream_on_one(self, preset, monkeypatch):
        setup, paths = _ensemble_batch(preset)
        paths[11] = zero_after(paths[11], 0.37)   # live for 37 steps
        draws = _recorded_draws(monkeypatch)
        solve_rows(paths, setup, None)
        solver = threading.get_ident()
        threads = {thread for thread, _, _ in draws}
        assert len(threads) == 2 and solver in threads
        for i, p in enumerate(paths):
            mine = [(thread, lo) for thread, s, lo in draws
                    if s is p.surrogate]
            # the first 8 streams on the solver thread, the rest on the
            # helper, each a tile per window in window order
            assert len({thread for thread, _ in mine}) == 1, i
            assert (mine[0][0] == solver) == (i < 8), i
            assert [lo for _, lo in mine] == list(
                range(0, p.surrogate.live_steps, 16)), i

    def test_one_stream_starts_no_helper(self, monkeypatch):
        setup, paths = _ensemble_batch("constant", n_paths=1)
        draws = _recorded_draws(monkeypatch)
        # three levels of one path share its one stream
        paths = [truncate(paths[0], K) for K in (0.5, 1.0, 2.0)]
        before = threading.active_count()
        for _ in fswe.solver._forward(paths, setup, np.full(3, np.inf)):
            assert threading.active_count() == before
        assert {thread for thread, _, _ in draws} == {threading.get_ident()}

    @pytest.mark.parametrize("end", ["close", "drop", "finish"])
    def test_helper_ends_with_the_solve(self, end):
        setup, paths = _ensemble_batch("constant")
        before = threading.active_count()
        forward = fswe.solver._forward(paths, setup, np.full(16, np.inf))
        for n, _ in enumerate(forward):
            if n == 0:
                assert threading.active_count() == before + 1
            if n == 20 and end != "finish":
                break
        if end == "close":
            forward.close()
        elif end == "drop":
            del forward   # an abandoned solve, finalized when dropped
        assert threading.active_count() == before

    @pytest.mark.parametrize("side", ["helper", "solver"])
    def test_draw_error_comes_out_of_paste_rows(self, side, monkeypatch):
        setup, paths = _ensemble_batch("constant")
        _recorded_draws(monkeypatch, fail_on=side)
        calls = _recorded_surrogates(monkeypatch)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{side} draw failed"):
            paste_rows(paths, setup, (1.0, 2.0, 4.0, 8.0))
        assert threading.active_count() == before
        # the steps of the first window ran, none of the failed window's
        assert [n for n, _, _ in calls] == list(range(16))


def _tile_products(basis):
    """A surrogate's projected feed written out: its whole-path draw, zero
    from live_steps on, cut into tiles of the fixed height from step 0,
    each tile one product per panel of PANEL_MODES rows of the cell mode
    table in d=1 and analyze row by row in d=2; shape (n_steps, M)."""
    height = fswe.noise.tile_height(basis.cell_count)

    def products(surrogate):
        draw = _whole_path_draw(surrogate)
        n_steps = len(draw)
        tiles = np.zeros((-(-n_steps // height) * height, draw.shape[1]))
        tiles[:n_steps] = draw
        if basis.dimension == 1:
            S = fswe.basis.sine_table(basis.kmax, basis.cell_centers_1d)
            panels = range(0, basis.mode_count, fswe.basis.PANEL_MODES)
            out = [np.hstack([
                tiles[lo:lo + height] @ S[k:k + fswe.basis.PANEL_MODES].T
                for k in panels]) for lo in range(0, len(tiles), height)]
        else:
            out = [basis.analyze(tiles[lo:lo + height], "cells")
                   for lo in range(0, len(tiles), height)]
        return np.concatenate(out)[:n_steps]

    return products


class TestProjectedSurrogate:
    """When sigma ignores the state, step gets each row's surrogate term
    already projected: one product per surrogate per tile of a fixed
    height, and nothing at all for sigma = 0."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_feed_is_the_fixed_height_product(self, d, monkeypatch):
        # d=1: 512 cells, tiles of 16 steps, a cut at step 20 inside the
        # second tile; d=2: 32 x 32 cells, tiles of 8 steps, cut at step 5.
        # Three truncations share one surrogate, a row has none.
        if d == 1:
            basis, n_steps, cut = build_basis(1, 128), 40, 0.5
            setup = make_setup(basis, 2.0, 1.0, 1.0, n_steps,
                               COEFFICIENT_PRESETS["constant"])
        else:
            basis, n_steps, cut = build_basis(2, 9, grid_size=33), 10, 0.5
            setup = make_setup(basis, 3.0, 1.5, 1.0, n_steps,
                               COEFFICIENT_PRESETS["additive"])
        height = fswe.noise.tile_height(basis.cell_count)
        assert height == (16 if d == 1 else 8)
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        drawn = [sample_path(spec, 1.0, n_steps, s, dimension=d,
                             cells_per_dim=basis.cells_per_dim)
                 for s in range(3)]
        cut = zero_after(drawn[1], cut)
        assert 0 < cut.surrogate.live_steps % height
        atoms = sample_path(RADEMACHER, 1.0, n_steps, 7, dimension=d,
                            cells_per_dim=basis.cells_per_dim)
        paths = [truncate(drawn[0], 0.05), cut, truncate(drawn[0], 0.2),
                 dataclasses.replace(atoms, spec=spec), drawn[0], drawn[2]]
        calls = _recorded_surrogates(monkeypatch)
        radius = np.full(len(paths), clamp_radius(2, setup.C_inf))
        norms, coeffs = solve_rows(paths, setup, radius, keep=slice(None))
        _check_surrogate_rows(paths, setup, calls, _tile_products(basis))
        monkeypatch.undo()
        for i, p in enumerate(paths):
            lone = solve_truncated(2, p, setup)
            assert coeffs[i].tobytes() == lone.coeffs.tobytes(), i
            assert norms[i].tobytes() == lone.hr_norms.tobytes(), i
        # the cut row keeps the bytes of its uncut path before the cut
        live = cut.surrogate.live_steps
        assert (coeffs[1, :live + 1].tobytes()
                == solve_truncated(2, drawn[1], setup).coeffs[
                    :live + 1].tobytes())

    def test_one_product_per_tile_and_no_cell_analyze(self, monkeypatch):
        # the ensemble's shape: 512 cells, tiles of 16 steps
        basis = build_basis(1, 128)
        setup = make_setup(basis, 2.0, 1.0, 1.0, 100,
                           COEFFICIENT_PRESETS["constant"])
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        paths = [sample_path(spec, 1.0, 100, s,
                             cells_per_dim=basis.cells_per_dim)
                 for s in range(4)]
        paths[1] = zero_after(paths[1], 0.37)
        paths[2] = zero_after(paths[2], 0.0)
        analyzed, products = [], []
        EigenBasis = fswe.basis.EigenBasis
        analyze, analyze_block = EigenBasis.analyze, EigenBasis.analyze_block

        def counted(self, v, where="grid"):
            analyzed.append(where)
            return analyze(self, v, where)

        def counted_block(self, v, where, out):
            products.append(v.shape)
            return analyze_block(self, v, where, out)

        monkeypatch.setattr(EigenBasis, "analyze", counted)
        monkeypatch.setattr(EigenBasis, "analyze_block", counted_block)
        paste_rows(paths, setup, (1.0, 2.0, 4.0, 8.0))
        height = fswe.noise.tile_height(basis.cell_count)
        lives = [p.surrogate.live_steps for p in paths]
        assert lives == [100, 37, 0, 100]
        assert "cells" not in analyzed
        assert products == [(height, basis.cell_count)] * sum(
            -(-live // height) for live in lives)

    @pytest.mark.parametrize("preset", ["zero", "drift_only"])
    def test_zero_sigma_draws_and_adds_nothing(self, preset, monkeypatch):
        # the jumps and the surrogate of sigma = 0 would add +-0 to +0:
        # every row has the bytes of its path without noise
        basis = build_basis(1, 16)
        setup = make_setup(basis, 2.0, 1.0, 1.0, 30,
                           COEFFICIENT_PRESETS[preset])
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        paths = [sample_path(spec, 1.0, 30, s,
                             cells_per_dim=basis.cells_per_dim)
                 for s in range(3)]
        drawn = []
        generator = GaussianSurrogate.generator

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *args, **kwargs):
                drawn.append(args or kwargs)
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(GaussianSurrogate, "generator",
                            lambda self: Counted(generator(self)))
        pasted = paste_rows(paths, setup, (1.0, 2.0, 4.0, 8.0))
        assert drawn == []
        quiet = solve_untruncated(paths[0].keep_jumps(
            np.zeros(len(paths[0].jump_times), dtype=bool), surrogate=None),
            setup)
        for t in pasted:
            assert t.coeffs.tobytes() == quiet.coeffs.tobytes()
        assert np.any(quiet.coeffs != 0.0) == (preset == "drift_only")
        # the counting wrapper does see the draws of a sigma = 1 solve
        paste_rows(paths, make_setup(basis, 2.0, 1.0, 1.0, 30,
                                     COEFFICIENT_PRESETS["additive"]),
                   (1.0, 2.0, 4.0, 8.0))
        assert drawn


def _assert_same_record(new, old):
    for name in ("tau_by_N", "tau_brackets", "tau_by_K", "cap_reached"):
        assert getattr(new.stopping, name) == getattr(old.stopping, name), \
            name


def _paste_batch_as_lone(paths, setup, K_schedule, N_max):
    """Paste the paths as the rows of one batch and check every row
    against the one-path call and the level-by-level oracle. Returns the
    batch's trajectories."""
    batch = paste_rows(paths, setup, K_schedule, N_max)
    assert len(batch) == len(paths)
    for path, new in zip(paths, batch):
        if K_schedule is None:
            lone = paste_over_N(path, setup, N_max=N_max)
            old = oracle.paste_over_N(path, setup, N_max=N_max)
            assert new.stopping.tau_by_N == old.stopping.tau_by_N
            assert new.stopping.tau_brackets == old.stopping.tau_brackets
        else:
            lone = paste_over_K(path, setup, K_schedule=K_schedule,
                                N_max=N_max)
            old = oracle.paste_over_K(path, setup, K_schedule=K_schedule,
                                      N_max=N_max)
        _assert_same_pasting(new, lone)
        _assert_same_record(new, lone)
        _assert_same_pasting(new, old)
        assert old.stopping.cap_reached or not new.stopping.cap_reached
    return batch


class TestBatchedPasting:
    """paste_rows against lone paste_over_K/paste_over_N calls and the
    level-by-level oracle: a pasted row's bytes and record do not depend
    on the batch it is pasted in."""

    @given(d=st.sampled_from([1, 2]),
           preset=st.sampled_from(sorted(COEFFICIENT_PRESETS) + ["wave"]),
           noise=st.sampled_from(["rademacher", "asymmetric", 0.8, 1.5]),
           N_max=st.sampled_from([1, 2, 8]),
           cuts=st.lists(st.one_of(st.none(), st.floats(0.0, 1.0)),
                         min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_rows_match_lone_pastes(self, d, preset, noise, N_max, cuts,
                                    seed):
        basis = build_basis(2, 9, grid_size=21) if d == 2 \
            else build_basis(1, 8)
        gamma, r = (3.0, 1.5) if d == 2 else (2.0, 1.0)
        pair = WAVE if preset == "wave" else COEFFICIENT_PRESETS[preset]
        setup = make_setup(basis, gamma, r, 1.0, 20, pair)
        spec = {"rademacher": RADEMACHER, "asymmetric": ASYMMETRIC}.get(
            noise) or LevyMeasureSpec(variant="stable", alpha=noise,
                                      cutoff=0.01)
        # one row per cut: its own path, zeroed after the cut if any
        paths = []
        for p, cut in enumerate(cuts):
            path = sample_path(spec, 1.0, 20, seed + p,
                               cells_per_dim=basis.grid_size - 1, dimension=d)
            paths.append(path if cut is None else zero_after(path, cut))
        K_schedule = (None if spec.variant == "atoms"
                      else (0.5, 1.0, 2.0, 4.0))
        _paste_batch_as_lone(paths, setup, K_schedule, N_max)

    def test_batch_covers_levels_caps_and_cut_surrogates(self):
        # a fixed batch with every case the property above draws at random
        basis = build_basis(1, 8)
        setup = make_setup(basis, 2.0, 1.0, 1.0, 30, WAVE)
        spec = LevyMeasureSpec(variant="stable", alpha=0.8, cutoff=0.01)
        paths = [sample_path(spec, 1.0, 30, p,
                             cells_per_dim=basis.grid_size - 1)
                 for p in range(12)]
        paths[1::3] = [zero_after(p, 0.4) for p in paths[1::3]]
        K_schedule = (1.0, 2.0, 4.0, 8.0)
        batch = _paste_batch_as_lone(paths, setup, K_schedule, N_max=2)
        # rows enter their K levels at different grid indices
        entries = {tuple(np.flatnonzero(np.diff(t.active_K)) + 1)
                   for t in batch}
        assert len(entries) >= 4, entries
        assert len({len(t.stopping.tau_by_K) for t in batch}) >= 3
        assert any(t.active_N.max() == 2 for t in batch)       # N rises
        assert any(t.stopping.cap_reached for t in batch)
        assert not all(t.stopping.cap_reached for t in batch)
        assert paths[1].surrogate.live_steps == 12 < setup.n_steps

    def test_rows_share_a_surrogate_stream(self, basis, monkeypatch):
        # truncations of one path share its surrogate object: the batch
        # opens one generator for them and draws each step once
        opened = []
        generator = GaussianSurrogate.generator

        def counted(self):
            opened.append(self)
            return generator(self)

        monkeypatch.setattr(GaussianSurrogate, "generator", counted)
        spec = LevyMeasureSpec(variant="stable", alpha=0.8, cutoff=0.01)
        setup = setup_for(basis, "wave", n_steps=30)
        path = sample_path(spec, 1.0, 30, 3,
                           cells_per_dim=basis.grid_size - 1)
        levels = [truncate(path, K) for K in (0.05, 0.2, 8.0)]
        assert len({id(p) for p in levels}) == 3
        assert all(p.surrogate is path.surrogate for p in levels)
        radius = np.full(3, clamp_radius(8, setup.C_inf))
        norms, coeffs = solve_rows(levels, setup, radius, keep=slice(None))
        assert opened == [path.surrogate]
        for i, p in enumerate(levels):
            ref = solve_truncated(8, p, setup)
            assert coeffs[i].tobytes() == ref.coeffs.tobytes(), i
            assert norms[i].tobytes() == ref.hr_norms.tobytes(), i

    def test_paste_rows_steps_once_per_grid_step(self, basis, monkeypatch):
        calls = []
        step = fswe.solver.step

        def counted(*args):
            calls.append(args[2])
            return step(*args)

        monkeypatch.setattr(fswe.solver, "step", counted)
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
        setup = setup_for(basis, "wave", n_steps=50)
        paths = [sample_path(spec, 1.0, 50, s,
                             cells_per_dim=basis.grid_size - 1)
                 for s in range(8)]
        paste_rows(paths, setup, (1.0, 2.0, 4.0, 8.0))
        assert calls == list(range(setup.n_steps))


STABLE = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)


class TestKDrivers:
    """Each row pasted over K is driven by one path, built before the pass,
    whose every step holds the jumps of truncate(path, K) at that step's K
    level."""

    def test_paste_rows_groups_the_rows_once(self, basis, monkeypatch):
        # the rows' jumps go into one jump table, built once per pass
        calls = []
        table = fswe.solver.jump_table

        def counted(paths, setup):
            calls.append(len(paths))
            return table(paths, setup)

        monkeypatch.setattr(fswe.solver, "jump_table", counted)
        setup = setup_for(basis, "wave", n_steps=50)
        paths = [path_for(basis, s, spec=STABLE) for s in range(8)]
        pasted = paste_rows(paths, setup, (1.0, 2.0, 4.0, 8.0))
        assert calls == [8]
        assert any(len(t.stopping.tau_by_K) > 1 for t in pasted)

    def test_each_step_holds_the_truncated_jumps_of_its_level(self, basis):
        setup = setup_for(basis, "wave", n_steps=30)
        spec = LevyMeasureSpec(variant="stable", alpha=0.8, cutoff=0.01)
        K_schedule = (0.25, 0.5, 1.0, 2.0)
        sampled = [sample_path(spec, 1.0, 30, s,
                               cells_per_dim=basis.grid_size - 1)
                   for s in range(16)]
        # zeroed futures, and a path object given to two rows
        paths = sampled + [zero_after(p, 0.05) for p in sampled[::3]] \
            + [sampled[11]]
        pasted = paste_rows(paths, setup, K_schedule, N_max=3)
        entered = set()
        for path, traj in zip(paths, pasted):
            record = fswe.solver.StoppingRecord()
            driver, levels, capped = fswe.solver._K_driver(
                path, setup.times, K_schedule, record)
            assert driver.surrogate is path.surrogate
            assert levels.tobytes() == traj.active_K.tobytes()
            assert record.tau_by_K == traj.stopping.tau_by_K
            assert capped == math.isfinite(record.tau_by_K[levels[-1]])
            entered.add(len(set(levels.tolist())))
            bounds = driver.jump_bounds()
            for s in range(setup.n_steps):
                ref = truncate(path, levels[s + 1])
                lo, hi = ref.jump_bounds()[s:s + 2]
                for name in ("jump_times", "jump_positions", "jump_sizes"):
                    assert (getattr(driver, name)[bounds[s]:bounds[s + 1]]
                            .tobytes()
                            == getattr(ref, name)[lo:hi].tobytes()), (s, name)
        assert entered == {1, 2, 3, 4}


class TestPathChecks:
    # each bad path breaks one match with setup_for(basis, ...): 50 steps on
    # [0, 1], d=1, one surrogate cell per grid interval (256)
    @pytest.mark.parametrize("T,n_steps,cells,dimension,msg", [
        (1.0, 50, 256, 2, "dimension"),
        (1.0, 40, 256, 1, "partition"),
        (2.0, 50, 256, 1, "partition"),
        (1.0 + 1e-13, 50, 256, 1, "partition"),   # T must match exactly
        (1.0, 80, 256, 1, "partition"),   # checked before a driver is built
        (1.0, 50, 128, 1, "surrogate cells")])
    @pytest.mark.parametrize("solve", ["solve_rows", "paste_over_N",
                                       "paste_over_K"])
    def test_every_row_is_checked(self, basis, T, n_steps, cells, dimension,
                                  msg, solve):
        # the bad path is the last row of a batch whose first rows match
        setup = setup_for(basis, "wave")
        good = sample_path(STABLE, 1.0, 50, 2, cells_per_dim=256)
        bad = sample_path(STABLE, T, n_steps, 1, cells_per_dim=cells,
                          dimension=dimension)
        with pytest.raises(SolverError, match=msg):
            if solve == "solve_rows":
                solve_rows([good, good, bad], setup, None)
            else:
                paste_rows([good, good, bad], setup,
                           None if solve == "paste_over_N"
                           else (1.0, 2.0, 4.0), N_max=3)


    @pytest.mark.parametrize("position", [-0.25, 1.5])
    @pytest.mark.parametrize("solve", ["solve_rows", "paste_over_N",
                                       "paste_over_K"])
    def test_jump_positions_in_the_unit_box(self, basis, position, solve):
        # step evaluates the modes at the jumps unchecked: the batch check
        # rejects a jump outside the closed box before any step
        setup = setup_for(basis, "wave")
        good = sample_path(STABLE, 1.0, 50, 2, cells_per_dim=256)
        bad = sample_path(STABLE, 1.0, 50, 1, cells_per_dim=256)
        positions = bad.jump_positions.copy()
        positions[len(positions) // 2] = position
        bad = dataclasses.replace(bad, jump_positions=positions)
        with pytest.raises(SolverError, match="unit box"):
            if solve == "solve_rows":
                solve_rows([good, bad], setup, None)
            else:
                paste_rows([good, bad], setup,
                           None if solve == "paste_over_N"
                           else (1.0, 2.0, 4.0), N_max=3)

    def test_jumps_on_the_box_boundary_are_accepted(self, basis):
        setup = setup_for(basis, "wave")
        path = sample_path(STABLE, 1.0, 50, 1, cells_per_dim=256)
        positions = path.jump_positions.copy()
        positions[:2] = [[0.0], [1.0]]
        solve_rows([dataclasses.replace(path, jump_positions=positions)],
                   setup, None)


class TestCoefficientRule:
    """step synthesizes the grid field at most once, shared by b and the
    compensator's sigma in the one forcing, and no field for a coefficient
    that ignores its argument."""

    @pytest.fixture
    def synthesized(self, monkeypatch):
        calls = []
        synthesize = fswe.basis.EigenBasis.synthesize

        def counted(self, u, where="grid"):
            calls.append(where)
            return synthesize(self, u, where)

        monkeypatch.setattr(fswe.basis.EigenBasis, "synthesize", counted)
        return calls

    def _paste(self, basis, preset, spec, K_schedule):
        setup = setup_for(basis, preset, n_steps=30)
        paths = [sample_path(spec, 1.0, 30, s,
                             cells_per_dim=basis.grid_size - 1)
                 for s in range(3)]
        return paste_rows(paths, setup, K_schedule, N_max=3)

    def test_constant_preset_synthesizes_nothing(self, basis, synthesized):
        pasted = self._paste(basis, "constant", STABLE, (1.0, 2.0, 4.0))
        assert synthesized == []
        assert any(len(t.stopping.tau_by_K) > 1 for t in pasted)

    def test_compensator_shares_the_grid_field(self, basis, synthesized):
        # b and sigma both read the field, and the compensator runs
        assert ASYMMETRIC.m1 != 0.0
        self._paste(basis, "linear", ASYMMETRIC, None)
        assert synthesized == ["grid"] * 30

    @pytest.mark.parametrize("preset", ["sine", "wave"])
    def test_forcing_is_one_grid_analyze_per_step(self, basis, monkeypatch,
                                                  preset):
        # asymmetric atoms: b and the compensator's sigma both read the
        # field, and their difference b - m1 sigma is projected once; sine
        # rows stay zero (b(0) = sigma(0) = 0), wave rows move
        analyzed = []
        analyze = fswe.basis.EigenBasis.analyze

        def counted(self, v, where="grid"):
            analyzed.append(where)
            return analyze(self, v, where)

        monkeypatch.setattr(fswe.basis.EigenBasis, "analyze", counted)
        pasted = self._paste(basis, preset, ASYMMETRIC, None)
        assert analyzed == ["grid"] * 30
        assert any(np.any(t.coeffs != 0.0) for t in pasted) == \
            (preset == "wave")

    def test_surrogate_synthesizes_the_cells(self, basis, synthesized):
        self._paste(basis, "linear", STABLE, (1.0, 2.0, 4.0))
        assert synthesized == ["grid", "cells"] * 30


def _jump_step(d, preset, shapes, seed=3, n=2):
    """A state and one step n whose paths have shapes[i] = (jump count,
    rows) each, the rows of the paths interleaved, random Duhamel sums and
    a mix of clamped and unclamped rows. Returns (setup, state, rows' paths,
    radius, stepped state)."""
    basis = build_basis(d, 8 if d == 1 else 12)
    pair = WAVE if preset == "wave" else COEFFICIENT_PRESETS[preset]
    setup = make_setup(basis, 1.0 + d, 0.5 + d / 2.0, 1.0, 4, pair)
    rng = np.random.default_rng(seed)
    base = sample_path(RADEMACHER, 1.0, 4, 0,
                       cells_per_dim=basis.cells_per_dim, dimension=d)
    row_paths = []
    for J, k in shapes:
        times = np.sort(rng.uniform(n * setup.dt, (n + 1) * setup.dt, J))
        row_paths += [dataclasses.replace(
            base, jump_times=times,
            jump_positions=rng.uniform(0.05, 0.95, (J, d)),
            jump_sizes=rng.choice([-1.0, 1.0], J) * rng.uniform(0.5, 2.0, J))
        ] * k
    row_paths = [row_paths[i] for i in rng.permutation(len(row_paths))]
    rows, M = len(row_paths), basis.mode_count
    state = ModeState(n * setup.dt, *rng.normal(size=(3, rows, M)))
    radius = np.where(rng.uniform(size=rows) < 0.5, np.inf,
                      clamp_radius(1, setup.C_inf) * 0.05)
    new = step(state, jump_table(row_paths, setup), n, setup, radius, None)
    return setup, state, row_paths, radius, new


class TestJumpScatter:
    """step adds every row's jumps of a step with one rule, for a sigma
    that reads the state and for a constant one, and every row keeps the
    bytes of its own one-row formula."""

    SHAPES = [(J, k) for J in (1, 2, 3) for k in (1, 3, 5)] + [(2, 3), (3, 5)]

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("preset", ["wave", "linear", "constant",
                                        "additive"])
    def test_rows_keep_their_one_row_products(self, d, preset):
        # row i adds np.add.reduceat of its own terms
        # (cos(omega t_j) e(x_j)) sigma(u_i(x_j)) z_j over its jumps, the
        # field u_i(x_j) = sum_k u_ik e_k(x_j) clamped at +-radius[i];
        # sigma = 1 ignores the field
        setup, state, row_paths, radius, new = _jump_step(d, preset,
                                                          self.SHAPES)
        # the jumps go on top of the forcing: the same step with no jumps
        n = 2
        still = dataclasses.replace(
            row_paths[0], jump_times=np.empty(0),
            jump_positions=np.empty((0, d)), jump_sizes=np.empty(0))
        quiet = step(state, jump_table([still] * len(row_paths), setup), n,
                     setup, radius, None)
        C, S = quiet.cos_sum.copy(), quiet.sin_sum.copy()
        clamped = False
        for i, path in enumerate(row_paths):
            lo, hi = path.jump_bounds()[n:n + 2]
            assert hi - lo == len(path.jump_times)
            modes = setup.basis.evaluate_modes(path.jump_positions[lo:hi]).T
            x = np.array([np.sum(state.u[i] * e) for e in modes])
            clamped |= bool(np.any(np.abs(x) > radius[i]))
            x = np.minimum(np.maximum(x, -radius[i]), radius[i])
            w = setup.pair.sigma(x) * path.jump_sizes[lo:hi]
            for acc, trig in ((C, np.cos), (S, np.sin)):
                terms = [trig(t * setup.omega) * e * wj for t, e, wj in zip(
                    path.jump_times[lo:hi], modes, w)]
                acc[i] += np.add.reduceat(np.array(terms), [0], axis=0)[0]
        assert new.cos_sum.tobytes() == C.tobytes()
        assert new.sin_sum.tobytes() == S.tobytes()
        # the jumps did work, beside unclamped rows; the clamp did too
        # where sigma reads the field
        assert clamped and np.any(np.isinf(radius))
        assert not np.array_equal(C, quiet.cos_sum)

    def test_table_lines_are_each_rows_jumps_of_the_step(self, basis):
        # step n's lines, in row order, are each row's own jumps of step n
        # (jump_bounds) in time order, the first of each marked; rows that
        # share a path hold copies
        setup = setup_for(basis, "wave", n_steps=5)
        paths = [path_for(basis, s, n_steps=5, spec=PM3) for s in range(3)]
        rows = [paths[0], paths[1], paths[0], paths[2], paths[0]]
        table = jump_table(rows, setup)
        assert table.edges[0] == 0 and table.edges[-1] == len(table.times)
        several = False
        for n in range(5):
            lines = slice(table.edges[n], table.edges[n + 1])
            of = table.rows[lines]
            assert np.all(np.diff(of) >= 0)
            for i, path in enumerate(rows):
                lo, hi = path.jump_bounds()[n:n + 2]
                mine = np.flatnonzero(of == i)
                several |= hi - lo > 1
                for got, want in ((table.times, path.jump_times),
                                  (table.positions, path.jump_positions),
                                  (table.sizes, path.jump_sizes)):
                    assert got[lines][mine].tobytes() == \
                        want[lo:hi].tobytes()
                marks = [True] + [False] * (hi - lo - 1)
                assert table.first[lines][mine].tolist() == marks[:hi - lo]
        assert several

    @pytest.mark.parametrize("shapes", [
        [(1, 1)] * 16,
        [(1, 1)] * 8 + [(2, 1)] * 8,
        [(1, 1), (1, 3), (2, 1), (2, 3)] * 4,
    ])
    def test_sigma_evaluated_once_per_step(self, monkeypatch, shapes):
        seen = []
        coefficient = fswe.solver._coefficient

        def counted(f, field, radius):
            # the field itself, built for a coefficient that reads it
            assert isinstance(field, np.ndarray)
            seen.append(f)
            return coefficient(f, field, radius)

        monkeypatch.setattr(fswe.solver, "_coefficient", counted)
        _jump_step(1, "wave", shapes)
        # the forcing reads b = sin once; symmetric atoms: m1 = 0, so the
        # forcing reads no sigma
        assert seen.count(np.sin) == 1
        assert seen.count(np.cos) == 1


class TestConstantProjections:
    """A forcing that ignores the state is its value b0 - m1 sigma0 times
    setup.unit_projection, the projection of the field 1, computed once
    per setup and cached on it."""

    @staticmethod
    def fresh(setup, rows=3):
        # the stacked per-row projection of the field 1
        basis = setup.basis
        points = basis.grid_size ** basis.dimension
        return basis.analyze(basis.quad_weights * np.ones((rows, points)))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("preset", ["constant", "drift_only", "additive"])
    def test_cached_projections_are_fresh_analyze(self, d, preset):
        basis = build_basis(d, 8 if d == 1 else 12)
        setup = make_setup(basis, 1.0 + d, 0.5 + d / 2.0, 1.0, 10,
                           COEFFICIENT_PRESETS[preset])
        cached = setup.unit_projection
        assert cached.shape == (basis.mode_count,)
        assert not cached.flags.writeable
        for row in self.fresh(setup):
            assert cached.tobytes() == row.tobytes()
        assert setup.unit_projection is cached

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("preset", ["constant", "drift_only", "additive"])
    @pytest.mark.parametrize("spec", [RADEMACHER, ASYMMETRIC])
    def test_constant_forcing_is_the_unit_projection(self, d, preset, spec):
        # one step with no jumps from random sums adds exactly
        # dt cos(omega t_n) (b0 - m1 sigma0) unit_projection, and the same
        # with sin; sigma0 enters only when m1 != 0
        basis = build_basis(d, 8 if d == 1 else 12)
        pair = COEFFICIENT_PRESETS[preset]
        setup = make_setup(basis, 1.0 + d, 0.5 + d / 2.0, 1.0, 4, pair)
        path = dataclasses.replace(
            sample_path(spec, 1.0, 4, 0, dimension=d,
                        cells_per_dim=basis.cells_per_dim),
            jump_times=np.empty(0), jump_positions=np.empty((0, d)),
            jump_sizes=np.empty(0))
        rng = np.random.default_rng(d)
        C, S, u = rng.normal(size=(3, 2, basis.mode_count))
        n = 2
        new = step(ModeState(n * setup.dt, C, S, u),
                   jump_table([path] * 2, setup), n, setup,
                   np.array([np.inf, 0.5]), None)
        value = pair.b(0.0) - spec.m1 * pair.sigma(0.0)
        forcing = float(value) * setup.unit_projection
        cos_t, sin_t = setup.phases
        assert new.cos_sum.tobytes() == \
            (C + setup.dt * cos_t[n] * forcing).tobytes()
        assert new.sin_sum.tobytes() == \
            (S + setup.dt * sin_t[n] * forcing).tobytes()
        # additive with symmetric noise: no forcing, the sums are kept
        assert np.any(new.cos_sum != C) == (value != 0.0)

    def test_non_constant_coefficient_has_none(self, basis):
        # a forcing that reads the state never projects the field 1
        setup = setup_for(basis, "wave")
        solve_rows([path_for(basis, s, spec=ASYMMETRIC) for s in range(2)],
                   setup, None)
        assert "unit_projection" not in vars(setup)

    @pytest.mark.parametrize("d", [1, 2])
    def test_steps_use_the_cache(self, d, monkeypatch):
        # constant pair, asymmetric atoms: b and sigma both force every
        # step, and the field 1 is projected once per setup
        basis = build_basis(d, 8 if d == 1 else 12)
        setup = make_setup(basis, 1.0 + d, 0.5 + d / 2.0, 1.0, 30,
                           COEFFICIENT_PRESETS["constant"])
        assert ASYMMETRIC.m1 != 0.0
        paths = [sample_path(ASYMMETRIC, 1.0, 30, s, dimension=d,
                             cells_per_dim=basis.cells_per_dim)
                 for s in range(3)]
        grid_projections = []
        analyze = fswe.basis.EigenBasis.analyze

        def counted(self, v, where="grid"):
            grid_projections.append(where)
            return analyze(self, v, where)

        monkeypatch.setattr(fswe.basis.EigenBasis, "analyze", counted)
        first = paste_rows(paths, setup, None, N_max=3)
        again = paste_rows(paths, setup, None, N_max=3)
        assert grid_projections == ["grid"]
        for a, b in zip(first, again):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert np.any(a.coeffs != 0.0)

    def test_setups_on_different_bases_never_share(self):
        pair = COEFFICIENT_PRESETS["constant"]
        setups = [make_setup(build_basis(d, M), 1.0 + d, 0.5 + d / 2.0,
                             1.0, 10, pair)
                  for d, M in ((1, 16), (1, 128), (2, 16), (2, 64))]
        for setup in setups:
            cached = setup.unit_projection
            assert cached.shape == (setup.basis.mode_count,)
            assert cached.tobytes() == self.fresh(setup, 1)[0].tobytes()
        # a setup made right after another is freed, often at its address,
        # projects on its own basis
        bases = [build_basis(1, M) for M in (16, 128)]
        for i in range(20):
            setup = make_setup(bases[i % 2], 2.0, 1.0, 1.0, 10, pair,
                               C_inf=1.0)
            assert setup.unit_projection.shape == (bases[i % 2].mode_count,)
            del setup


class TestQuadratureOfConstants:
    """The projection of the field 1 (a constant coefficient's forcing per
    unit value) is the trapezoid sum of an odd
    square wave: per axis sqrt(2) h cot(k pi h / 2) at odd k, h the cell
    width, and zero at even k. That lies about (k pi h)^2 / 12 below the
    exact integral 2 sqrt(2) / (k pi) per axis."""

    @pytest.mark.parametrize("d, M, grid, deficit", [
        (1, 16, 257, 0.002825),   # k = 15
        (2, 64, 257, 0.001130),   # k = (9, 3)
        (1, 128, 513, 0.05112),   # k = 127, d1_stable_ensemble's basis
        (2, 64, 37, 0.05736),     # k = (9, 3), the d=2 grid 4 kmax + 1
    ])
    def test_constant_projection_is_the_cot_sum(self, d, M, grid, deficit):
        basis = build_basis(d, M, grid_size=grid)
        setup = make_setup(basis, 1.0 + d, 0.5 + d / 2.0, 1.0, 10,
                           COEFFICIENT_PRESETS["constant"], C_inf=1.0)
        projection = setup.unit_projection
        k, h = basis.multi_indices, 1.0 / basis.cells_per_dim
        odd = np.all(k % 2 == 1, axis=1)
        cot_sum = np.prod(math.sqrt(2.0) * h / np.tan(k * math.pi * h / 2),
                          axis=1)
        exact = np.prod(2.0 * math.sqrt(2.0) / (k * math.pi), axis=1)
        np.testing.assert_allclose(projection[odd], cot_sum[odd],
                                   rtol=1e-12)
        assert np.max(np.abs(projection[~odd])) < 1e-14
        below = 1.0 - projection[odd] / exact[odd]
        assert below.max() == pytest.approx(deficit, rel=1e-3)
        leading = np.sum((k[odd] * math.pi * h) ** 2, axis=1) / 12.0
        np.testing.assert_allclose(below, leading, rtol=0.03)


class TestGridTimes:
    """One rule for the grid: noise.grid_times, whose last point is T, read
    by the setup's times and phases, the paths' step edges, the state step
    returns and the tau_N brackets."""

    def test_last_grid_time_is_T(self, basis):
        # 49 * (1 / 49) is one ulp below 1
        assert 49 * (1.0 / 49) < 1.0
        setup = setup_for(basis, "wave", n_steps=49)
        path = path_for(basis, 3, n_steps=49)
        assert setup.times.tobytes() == path.step_edges.tobytes() == \
            grid_times(1.0, 49).tobytes()
        assert setup.times[-1] == 1.0
        cos_t, sin_t = setup.phases
        assert cos_t[-1].tobytes() == np.cos(setup.omega * 1.0).tobytes()
        assert sin_t[-1].tobytes() == np.sin(setup.omega * 1.0).tobytes()
        state = ModeState.zero((1, basis.mode_count))
        table = jump_table([path], setup)
        for n in range(49):
            state = step(state, table, n, setup, np.array([np.inf]), None)
            assert state.t == setup.times[n + 1]
        assert state.t == 1.0

    def test_brackets_are_consecutive_grid_times(self, basis):
        # tau_1 at grid index 3 of 30 steps, where 3 dt - dt is not 2 dt
        setup = setup_for(basis, "additive", n_steps=30)
        times = setup.times
        assert times[3] - setup.dt != times[2]
        path = dataclasses.replace(
            path_for(basis, 0, n_steps=30),
            jump_times=np.array([2.5 * setup.dt]),
            jump_positions=np.array([[0.3]]), jump_sizes=np.array([50.0]))
        pasted = paste_over_N(path, setup, N_max=2)
        truncated = solve_truncated(1, path, setup)
        for record in (pasted.stopping, truncated.stopping):
            assert record.tau_by_N[1] == times[3]
            assert record.tau_brackets[1] == (times[2], times[3])
            _assert_grid_brackets(record, times)


def _field_step(d, preset, spec, u, radius, seed=5, n=2):
    """One step n of the rows u, shape (rows, M), on one path of spec with
    two jumps in the step and random Duhamel sums, and the same step of
    each row alone. Returns (batch state, lone states, recorded arguments
    of the batch step)."""
    basis = build_basis(d, 8 if d == 1 else 12)
    pair, seen = _recording(WAVE if preset == "wave"
                            else COEFFICIENT_PRESETS[preset])
    setup = make_setup(basis, 1.0 + d, 0.5 + d / 2.0, 1.0, 4, pair)
    rng = np.random.default_rng(seed)
    path = dataclasses.replace(
        sample_path(spec, 1.0, 4, 0, cells_per_dim=basis.cells_per_dim,
                    dimension=d),
        jump_times=np.sort(rng.uniform(n * setup.dt, (n + 1) * setup.dt, 2)),
        jump_positions=rng.uniform(0.05, 0.95, (2, d)),
        jump_sizes=np.array([1.5, -0.5]))
    sums = rng.normal(size=(2,) + u.shape)
    state = ModeState(n * setup.dt, *sums, u=u)
    new = step(state, jump_table([path] * len(u), setup), n, setup, radius,
               None)
    arguments = {name: list(calls) for name, calls in seen.items()}
    lone = [step(ModeState(n * setup.dt, *sums[:, i:i + 1],
                           u=u[i:i + 1]),
                 jump_table([path], setup), n, setup, radius[i:i + 1], None)
            for i in range(len(u))]
    return new, lone, arguments


class TestZeroRowField:
    """The rows whose u is all zero and bitwise equal to the first such
    row share one grid-field evaluation per step, and every row keeps the
    bytes it computes alone; no other row is shared."""

    CASES = [("wave", RADEMACHER), ("wave", ASYMMETRIC), ("sine", ASYMMETRIC)]

    @staticmethod
    def rows(M, rng):
        """Zero rows among nonzero ones, and a zero row with a -0.0."""
        negative_zero = np.zeros(M)
        negative_zero[0] = -0.0
        u = np.zeros((8, M))
        u[[1, 4]] = rng.normal(size=(2, M))
        u[6] = negative_zero
        return u

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("preset, spec", CASES)
    def test_rows_keep_their_lone_step_bytes(self, d, preset, spec):
        M = 8 if d == 1 else 12
        u = self.rows(M, np.random.default_rng(d))
        radius = np.array([np.inf, 0.05, 2.0, 0.05, np.inf, np.inf, 0.5,
                           3.0])
        new, lone, arguments = _field_step(d, preset, spec, u, radius)
        for name in ("cos_sum", "sin_sum", "u"):
            batch = getattr(new, name)
            for i, alone in enumerate(lone):
                alone = getattr(alone, name)[0]
                assert batch[i].tobytes() == alone.tobytes(), (name, i)
        # the zero rows 0, 2, 3, 5 and 7 share one field; the nonzero rows
        # 1 and 4 and the -0.0 row 6 are their own
        assert [len(x) for x in arguments["b"]] == [4]
        if spec.m1 != 0.0:   # the forcing's sigma reads the same split
            # field, before the jumps
            assert len(arguments["sigma"][0]) == 4

    # from zero data: wave rows are zero until their path's first jump,
    # sine rows (b(0) = sigma(0) = 0) stay zero, the compensator included
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("preset, spec", [CASES[0], CASES[2]])
    def test_rows_keep_their_lone_solve_bytes(self, d, preset, spec):
        if d == 2:
            basis = build_basis(2, 9, grid_size=21)
            gamma, r = 3.0, 1.5
        else:
            basis, gamma, r = build_basis(1, 16), 2.0, 1.0
        pair = WAVE if preset == "wave" else COEFFICIENT_PRESETS[preset]
        setup = make_setup(basis, gamma, r, 1.0, 20, pair)
        paths = [sample_path(spec, 1.0, 20, s, dimension=d,
                             cells_per_dim=basis.cells_per_dim)
                 for s in range(6)]
        levels = [clamp_radius(1, setup.C_inf), math.inf,
                  clamp_radius(2, setup.C_inf)]
        rows = [(p, level) for p in paths for level in levels]
        radius = np.array([level for _, level in rows])
        norms, coeffs = solve_rows([p for p, _ in rows], setup, radius,
                                   keep=slice(None))
        for i, (path, level) in enumerate(rows):
            lone_norms, lone_coeffs = solve_rows(
                [path], setup, np.array([level]), keep=slice(None))
            assert coeffs[i].tobytes() == lone_coeffs[0].tobytes(), i
            assert norms[i].tobytes() == lone_norms[0].tobytes(), i
        zero = ~coeffs.any(axis=2)   # (rows, times)
        assert np.any(zero.sum(axis=0) >= 2)
        if preset == "wave":
            # zero and nonzero rows in one step
            assert np.any((zero.sum(axis=0) >= 2) & ~zero.all(axis=0))

    def test_other_zero_patterns_and_denormals_are_not_shared(self):
        M = 8
        u = np.zeros((7, M))
        u[2, 3] = -0.0
        u[4, 0] = 5e-324
        # a NaN radius makes a NaN field of a zero row, which it must keep
        radius = np.array([np.inf] * 6 + [np.nan])
        new, lone, arguments = _field_step(1, "wave", ASYMMETRIC, u, radius)
        # rows 0, 1, 3 and 5 share; the -0.0 row, the denormal row and the
        # NaN-radius row do not
        [b_argument] = arguments["b"]
        assert len(b_argument) == 4
        assert np.signbit(u[2]).any() and not np.signbit(u[0]).any()
        for i, alone in enumerate(lone):
            assert new.cos_sum[i].tobytes() == alone.cos_sum[0].tobytes()
            assert new.sin_sum[i].tobytes() == alone.sin_sum[0].tobytes()
        assert np.isnan(new.cos_sum[6]).all()

    def test_every_level_reaches_b_after_the_first_jump(self):
        # one path at four levels: its rows are bitwise equal until a clamp
        # binds, yet only the zero rows before the first jump share a field
        basis = build_basis(1, 16)
        pair, seen = _recording(WAVE)
        setup = make_setup(basis, 2.0, 1.0, 1.0, 40, pair)
        path = next(p for p in (path_for(basis, s, n_steps=40)
                                for s in range(50))
                    if 0.2 < p.jump_times[:1].sum() < 0.8)
        # the step that holds the first jump
        first = int(path.jump_bounds().searchsorted(1)) - 1
        radius = np.array([clamp_radius(N, setup.C_inf) for N in (1, 2, 8)]
                          + [math.inf])
        solve_rows([path] * 4, setup, radius)
        rows = [len(x) for x in seen["b"]]
        assert rows == [1] * (first + 1) + [4] * (40 - first - 1)
        # right after the jump, the four levels are still bitwise equal
        after = seen["b"][first + 1]
        assert all(row.tobytes() == after[0].tobytes() for row in after)
        assert np.any(after[0] != 0.0)


class TestEmbeddingInteraction:
    def test_setup_uses_embedding_constant(self, basis):
        setup = setup_for(basis, "wave")
        assert setup.C_inf == pytest.approx(embedding_constant(basis, 1.0))
