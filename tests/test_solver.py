import dataclasses
import math
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
                         paste_over_K, paste_over_N, paste_rows, row_groups,
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
    step(state, row_groups([path] * len(peaks), setup), 0, setup, radius, {})
    return basis.synthesize(state.u), {name: calls[-1]
                                       for name, calls in seen.items()}


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
        # opens one stream for them and advances it once per grid step
        opened = []
        rows = GaussianSurrogate.rows

        def counted(self):
            opened.append(self)
            return rows(self)

        monkeypatch.setattr(GaussianSurrogate, "rows", counted)
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


class TestPathChecks:
    # each bad path breaks one match with setup_for(basis, ...): 50 steps on
    # [0, 1], d=1, one surrogate cell per grid interval (256)
    @pytest.mark.parametrize("T,n_steps,cells,dimension,msg", [
        (1.0, 50, 256, 2, "dimension"),
        (1.0, 40, 256, 1, "partition"),
        (2.0, 50, 256, 1, "partition"),
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


class TestCoefficientRule:
    """step synthesizes the grid field at most once, shared by the drift
    and the compensator, and no field for a coefficient that ignores its
    argument."""

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

    def test_surrogate_synthesizes_the_cells(self, basis, synthesized):
        self._paste(basis, "linear", STABLE, (1.0, 2.0, 4.0))
        assert synthesized == ["grid", "cells"] * 30


def _jump_step(d, preset, shapes, seed=3, n=2):
    """A state and one step n whose groups have shapes[i] = (jump count,
    rows) each, the rows of the groups interleaved, random accumulators and
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
    state = ModeState(n * setup.dt, *rng.normal(size=(5, rows, M)))
    radius = np.where(rng.uniform(size=rows) < 0.5, np.inf,
                      clamp_radius(1, setup.C_inf) * 0.05)
    new = step(state, row_groups(row_paths, setup), n, setup, radius, {})
    return setup, state, row_paths, radius, new


class TestJumpScatter:
    """step scatters the jumps of a bucket of groups, one (jump count, rows
    per group) pair, with one stacked product, and every row keeps the
    bytes of its own one-row products."""

    SHAPES = [(J, k) for J in (1, 2, 3) for k in (1, 3, 5)] + [(2, 3), (3, 5)]

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("preset", ["wave", "linear"])
    def test_rows_keep_their_one_row_products(self, d, preset):
        setup, state, row_paths, radius, new = _jump_step(d, preset,
                                                          self.SHAPES)
        n, Mc, Ms = 2, state.mart_cos.copy(), state.mart_sin.copy()
        clamped = False
        for i, path in enumerate(row_paths):
            lo, hi = path.jump_bounds()[n:n + 2]
            assert hi - lo == len(path.jump_times)
            modes = setup.basis.evaluate_modes(path.jump_positions[lo:hi])
            phase = np.outer(setup.omega, path.jump_times[lo:hi])
            cos_modes, sin_modes = np.cos(phase) * modes, np.sin(phase) * modes
            cols = slice(0, hi - lo)
            x = state.u[i] @ np.ascontiguousarray(modes[:, cols])
            clamped |= bool(np.any(np.abs(x) > radius[i]))
            x = np.minimum(np.maximum(x, -radius[i]), radius[i])
            w = setup.pair.sigma(x) * path.jump_sizes[lo:hi]
            Mc[i] += np.ascontiguousarray(cos_modes[:, cols]) @ w
            Ms[i] += np.ascontiguousarray(sin_modes[:, cols]) @ w
        assert new.mart_cos.tobytes() == Mc.tobytes()
        assert new.mart_sin.tobytes() == Ms.tobytes()
        # the clamp and the jumps both did work, beside unclamped rows
        assert clamped and np.any(np.isinf(radius))
        assert not np.array_equal(Mc, state.mart_cos)

    @pytest.mark.parametrize("shapes, buckets", [
        ([(1, 1)] * 16, 1),
        ([(1, 1)] * 8 + [(2, 1)] * 8, 2),
        ([(1, 1), (1, 3), (2, 1), (2, 3)] * 4, 4),
    ])
    def test_sigma_evaluated_once_per_bucket(self, monkeypatch, shapes,
                                             buckets):
        seen = []
        coefficient = fswe.solver._coefficient

        def counted(f, field, radius):
            seen.append(f)
            return coefficient(f, field, radius)

        monkeypatch.setattr(fswe.solver, "_coefficient", counted)
        _jump_step(1, "wave", shapes)
        # the drift reads b = sin once; symmetric atoms: no compensator
        assert seen.count(np.sin) == 1
        assert seen.count(np.cos) == buckets


class TestConstantProjections:
    """A coefficient that ignores its argument has a state-independent
    projection, computed once per setup and cached on it."""

    @staticmethod
    def fresh(setup, f, rows=3):
        # the stacked per-row projection of the coefficient's values
        basis = setup.basis
        points = basis.grid_size ** basis.dimension
        return basis.analyze(basis.quad_weights * f(np.zeros((rows, points))))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("preset", ["constant", "drift_only", "additive"])
    def test_cached_projections_are_fresh_analyze(self, d, preset):
        basis = build_basis(d, 8 if d == 1 else 12)
        setup = make_setup(basis, 1.0 + d, 0.5 + d / 2.0, 1.0, 10,
                           COEFFICIENT_PRESETS[preset])
        for cached, f in ((setup.drift_projection, setup.pair.b),
                          (setup.compensator_projection, setup.pair.sigma)):
            assert cached.shape == (basis.mode_count,)
            assert not cached.flags.writeable
            for row in self.fresh(setup, f):
                assert cached.tobytes() == row.tobytes()
        assert setup.drift_projection is setup.drift_projection

    def test_non_constant_coefficient_has_none(self, basis):
        setup = setup_for(basis, "wave")
        assert setup.drift_projection is None
        assert setup.compensator_projection is None

    @pytest.mark.parametrize("d", [1, 2])
    def test_steps_use_the_cache(self, d, monkeypatch):
        # constant pair, asymmetric atoms: the drift and the compensator
        # run on every step, and each projects the grid once per setup
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
        assert grid_projections == ["grid", "grid"]
        for a, b in zip(first, again):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert np.any(a.coeffs != 0.0)

    def test_setups_on_different_bases_never_share(self):
        pair = COEFFICIENT_PRESETS["constant"]
        setups = [make_setup(build_basis(d, M), 1.0 + d, 0.5 + d / 2.0,
                             1.0, 10, pair)
                  for d, M in ((1, 16), (1, 128), (2, 16), (2, 64))]
        for setup in setups:
            for cached in (setup.drift_projection,
                           setup.compensator_projection):
                assert cached.shape == (setup.basis.mode_count,)
                assert cached.tobytes() == self.fresh(setup, pair.b,
                                                      1)[0].tobytes()
        # a setup made right after another is freed, often at its address,
        # projects on its own basis
        bases = [build_basis(1, M) for M in (16, 128)]
        for i in range(20):
            setup = make_setup(bases[i % 2], 2.0, 1.0, 1.0, 10, pair,
                               C_inf=1.0)
            assert setup.drift_projection.shape == (bases[i % 2].mode_count,)
            del setup


class TestQuadratureOfConstants:
    """A constant coefficient's projection is the trapezoid sum of an odd
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
        projection = setup.drift_projection
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
        groups = row_groups([path], setup)
        for n in range(49):
            state = step(state, groups, n, setup, np.array([np.inf]), {})
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
    two jumps in the step and random accumulators, and the same step of
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
    accumulators = rng.normal(size=(4,) + u.shape)
    state = ModeState(n * setup.dt, *accumulators, u=u)
    new = step(state, row_groups([path] * len(u), setup), n, setup, radius,
               {})
    arguments = {name: list(calls) for name, calls in seen.items()}
    lone = [step(ModeState(n * setup.dt, *accumulators[:, i:i + 1],
                           u=u[i:i + 1]),
                 row_groups([path], setup), n, setup, radius[i:i + 1], {})
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
        for name in ("drift_cos", "drift_sin", "mart_cos", "mart_sin", "u"):
            batch = getattr(new, name)
            for i, alone in enumerate(lone):
                alone = getattr(alone, name)[0]
                assert batch[i].tobytes() == alone.tobytes(), (name, i)
        # the zero rows 0, 2, 3, 5 and 7 share one field; the nonzero rows
        # 1 and 4 and the -0.0 row 6 are their own
        assert [len(x) for x in arguments["b"]] == [4]
        if spec.m1 != 0.0:   # the compensator reads the same split field,
            # projected with the drift before the jumps
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
            assert new.mart_cos[i].tobytes() == alone.mart_cos[0].tobytes()
            assert new.drift_cos[i].tobytes() == alone.drift_cos[0].tobytes()
        assert np.isnan(new.mart_cos[6]).all()

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
