import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fswe.basis import build_basis
from fswe.noise import (SURROGATE_TILE_VALUES, LevyMeasureSpec, NoiseError,
                        first_large_jump, integrate_step_field, sample_path,
                        spec_from_dict, spec_to_dict, surrogate_tiles,
                        tile_height, truncate, zero_after)
from fswe.solver import COEFFICIENT_PRESETS, make_setup, solve_untruncated

RADEMACHER = LevyMeasureSpec(variant="atoms", atoms=((1.0, 0.5), (-1.0, 0.5)))
CAUCHY_LIKE = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)


class TestMoments:
    def test_atom_moments(self):
        spec = LevyMeasureSpec(variant="atoms",
                               atoms=((2.0, 0.25), (-1.0, 0.5)))
        assert spec.m1 == pytest.approx(2.0 * 0.25 - 1.0 * 0.5)
        assert spec.m2 == pytest.approx(4.0 * 0.25 + 1.0 * 0.5)
        assert spec.jump_rate == pytest.approx(0.75)

    def test_rademacher_symmetric(self):
        assert RADEMACHER.symmetric
        assert RADEMACHER.m1 == 0.0
        assert RADEMACHER.m2 == pytest.approx(1.0)

    def test_stable_tail_mass(self):
        # nu(|z| > a) = a^{-alpha} for the standard symmetric alpha-stable
        for a in (0.5, 1.0, 4.0):
            assert CAUCHY_LIKE.tail_mass(a) == pytest.approx(a**-1.0)

    def test_stable_truncated_second_moment_vs_quadrature(self):
        # m2(K) = int_{eps<|z|<=K} z^2 (alpha/2)|z|^{-alpha-1} dz
        spec = LevyMeasureSpec(variant="stable", alpha=1.5, cutoff=0.01)
        K = 2.0
        z = np.linspace(spec.cutoff, K, 200_001)
        dens = spec.alpha * z ** (-spec.alpha - 1.0)   # both signs folded in
        quad = np.trapezoid(z**2 * dens, z)
        closed = spec.alpha * K ** (2 - spec.alpha) / (2 - spec.alpha)
        assert spec.m2_truncated(K) == pytest.approx(closed, rel=1e-12)
        # quadrature covers cutoff..K; below the cutoff sits the surrogate mass
        assert quad + spec.small_jump_variance == pytest.approx(closed,
                                                                rel=1e-6)

    def test_stable_untruncated_second_moment_infinite(self):
        assert math.isinf(CAUCHY_LIKE.m2)

    def test_small_jump_variance(self):
        spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.04)
        expected = 1.0 * 0.04 / (2.0 - 1.0)
        assert spec.small_jump_variance == pytest.approx(expected)

    @pytest.mark.parametrize("spec", [
        RADEMACHER, CAUCHY_LIKE,
        LevyMeasureSpec(variant="atoms", atoms=((1.5, 1.0), (-0.5, 0.5))),
        LevyMeasureSpec(variant="atoms", atoms=((3.0, 2.0), (-3.0, 0.0))),
        LevyMeasureSpec(variant="stable", alpha=1.5, cutoff=0.2)])
    def test_derived_moments_have_one_formula(self, spec):
        # the rate, surrogate variance and m2 are tail_mass/m2_truncated at
        # the cutoff and at infinity, for both variants
        assert spec.jump_rate == spec.tail_mass(spec.cutoff)
        assert spec.small_jump_variance == spec.m2_truncated(spec.cutoff)
        assert spec.m2 == spec.m2_truncated(math.inf)
        if spec.variant == "atoms":
            assert spec.small_jump_variance == 0.0
            assert spec.jump_rate == sum(rho for _, rho in spec.atoms)


class TestSampling:
    def test_reproducible(self):
        a = sample_path(RADEMACHER, 1.0, 10, 123, cells_per_dim=8)
        b = sample_path(RADEMACHER, 1.0, 10, 123, cells_per_dim=8)
        np.testing.assert_array_equal(a.jump_times, b.jump_times)
        np.testing.assert_array_equal(a.jump_positions, b.jump_positions)
        np.testing.assert_array_equal(a.jump_sizes, b.jump_sizes)

    def test_seed_changes_path(self):
        a = sample_path(RADEMACHER, 1.0, 10, 1, cells_per_dim=8)
        b = sample_path(RADEMACHER, 1.0, 10, 2, cells_per_dim=8)
        assert len(a.jump_times) != len(b.jump_times) or not np.array_equal(
            a.jump_times, b.jump_times)

    def test_jump_count_distribution(self):
        # Poisson(rate * T): mean within 3 SE over many paths
        R, T = 4000, 2.0
        rate = RADEMACHER.jump_rate
        counts = np.array([
            len(sample_path(RADEMACHER, T, 4, s, cells_per_dim=4,
                            with_surrogate=False).jump_times)
            for s in range(R)])
        se = math.sqrt(rate * T / R)
        assert abs(counts.mean() - rate * T) <= 3 * se

    def test_positions_interior(self):
        p = sample_path(RADEMACHER, 1.0, 5, 3, cells_per_dim=8, dimension=2)
        assert p.jump_positions.shape[1] == 2
        assert np.all(p.jump_positions > 0) and np.all(p.jump_positions < 1)

    def test_stable_magnitudes_above_cutoff(self):
        p = sample_path(CAUCHY_LIKE, 0.2, 4, 9, cells_per_dim=4)
        assert np.all(np.abs(p.jump_sizes) >= CAUCHY_LIKE.cutoff)

    def test_stable_sign_symmetry(self):
        rng = np.random.default_rng(0)
        z = CAUCHY_LIKE.sample_jump_sizes(rng, 200_000)
        frac = np.mean(z > 0)
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / len(z))

    def test_stable_magnitude_law(self):
        # P(|z| > a) / P(|z| > cutoff) = (cutoff/a)^alpha
        rng = np.random.default_rng(7)
        z = np.abs(CAUCHY_LIKE.sample_jump_sizes(rng, 200_000))
        for a in (0.02, 0.1, 1.0):
            p_emp = np.mean(z > a)
            p_exact = (CAUCHY_LIKE.cutoff / a) ** CAUCHY_LIKE.alpha
            assert abs(p_emp - p_exact) <= 3 * math.sqrt(
                p_exact * (1 - p_exact) / len(z)) + 1e-12


class TestGaussianSurrogate:
    @pytest.mark.parametrize("d", [1, 2])
    def test_full_is_the_block_draw_after_the_jumps(self, d):
        T, n_steps, cells, seed = 1.0, 20, 8, 5
        path = sample_path(CAUCHY_LIKE, T, n_steps, seed, cells_per_dim=cells,
                           dimension=d)
        # replay sample_path's draws: count, times, positions, sizes
        rng = np.random.default_rng(seed)
        count = rng.poisson(CAUCHY_LIKE.jump_rate * T)
        times = np.sort(rng.uniform(0.0, T, size=count))
        positions = rng.uniform(0.0, 1.0, size=(count, d))
        sizes = CAUCHY_LIKE.sample_jump_sizes(rng, count)
        for drawn, replayed in ((path.jump_times, times),
                                (path.jump_positions, positions),
                                (path.jump_sizes, sizes)):
            assert drawn.tobytes() == replayed.tobytes()
        std = math.sqrt(CAUCHY_LIKE.small_jump_variance * (T / n_steps)
                        * (1.0 / cells) ** d)
        expected = std * rng.standard_normal((n_steps, cells**d))
        sur = path.surrogate
        assert sur.shape == expected.shape and sur.size == expected.size
        assert sur.full().tobytes() == expected.tobytes()
        # zero_after keeps the rows of the steps before the cut
        cut = zero_after(path, 0.5)
        assert cut.surrogate.live_steps == n_steps // 2
        assert cut.surrogate.full()[:10].tobytes() == expected[:10].tobytes()
        assert not cut.surrogate.full()[10:].any()

    @staticmethod
    def padded_draw(surrogate, height):
        """The surrogate's (n_steps, n_cells) draw written out, zero from
        live_steps on and padded with zero steps to whole tiles."""
        n_steps, cells = surrogate.shape
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = surrogate.state
        values = np.zeros((-(-n_steps // height) * height, cells))
        live = surrogate.live_steps
        values[:live] = surrogate.std * rng.standard_normal(
            surrogate.shape)[:live]
        return values

    def test_tiles_are_the_whole_path_draw(self):
        # 512 cells: tiles of 16 steps from step 0, the cut at step 20
        # inside the second; a surrogate is drawn only in the tiles where
        # it is live, and is zero from its live_steps on. Without out one
        # array holds every tile; with it, tile i is drawn into out[i].
        n_steps, cells = 40, 512
        height = tile_height(cells)
        assert height == SURROGATE_TILE_VALUES // cells == 16
        paths = [sample_path(CAUCHY_LIKE, 1.0, n_steps, s, cells_per_dim=cells)
                 for s in range(3)]
        surrogates = [paths[0].surrogate, zero_after(paths[1], 0.5).surrogate,
                      zero_after(paths[2], 0.0).surrogate]
        assert [s.live_steps for s in surrogates] == [40, 20, 0]
        expected = [self.padded_draw(s, height) for s in surrogates]
        for out in (None, np.empty((3, height, cells))):
            seen = []
            for lo, i, tile in surrogate_tiles(surrogates, out):
                seen.append((lo, i))
                assert tile.shape == (height, cells)
                assert tile.tobytes() == expected[i][lo:lo + height].tobytes()
                assert out is None or np.shares_memory(tile, out[i])
            assert seen == [(0, 0), (0, 1), (16, 0), (16, 1), (32, 0)]
        # each slot keeps its surrogate's last tile
        assert out[1].tobytes() == expected[1][16:32].tobytes()
        assert out[0].tobytes() == expected[0][32:48].tobytes()
        # d=2: 64 x 64 cells, tiles of two steps, the cut at step 3 inside
        # the second; 256 x 256 cells, tiles of one step
        height = tile_height(64 * 64)
        assert height == 2 and tile_height(256 * 256) == 1
        paths = [sample_path(CAUCHY_LIKE, 1.0, 5, s, cells_per_dim=64,
                             dimension=2) for s in range(2)]
        surrogates = [paths[0].surrogate, zero_after(paths[1], 0.5).surrogate]
        assert [s.live_steps for s in surrogates] == [5, 3]
        expected = [self.padded_draw(s, height) for s in surrogates]
        seen = []
        for lo, i, tile in surrogate_tiles(surrogates):
            seen.append((lo, i))
            assert tile.tobytes() == expected[i][lo:lo + height].tobytes()
        assert seen == [(0, 0), (0, 1), (2, 0), (2, 1), (4, 0)]

    def test_blocks_are_the_whole_path_draw(self):
        # 256 cells: tiles of 32 steps over 100 steps, the last tile only
        # partly inside the path; one surrogate is cut inside the first
        # tile and one at step 0, so it is never drawn
        n_steps, cells = 100, 256
        height = tile_height(cells)
        assert height == 32
        paths = [sample_path(CAUCHY_LIKE, 1.0, n_steps, s, cells_per_dim=cells)
                 for s in range(3)]
        surrogates = [paths[0].surrogate, zero_after(paths[1], 0.3).surrogate,
                      zero_after(paths[2], 0.0).surrogate]
        assert [s.live_steps for s in surrogates] == [100, 30, 0]
        expected = [self.padded_draw(s, height) for s in surrogates]
        seen = []
        for lo, i, tile in surrogate_tiles(surrogates):
            seen.append((lo, i))
            assert tile.tobytes() == expected[i][lo:lo + height].tobytes()
        assert seen == [(0, 0), (0, 1), (32, 0), (64, 0), (96, 0)]
        # d=2: 256 x 256 cells, one step per tile
        path = sample_path(CAUCHY_LIKE, 1.0, 5, 1, cells_per_dim=256,
                           dimension=2)
        expected = self.padded_draw(path.surrogate, 1)
        los = []
        for lo, _, tile in surrogate_tiles([path.surrogate]):
            los.append(lo)
            assert tile.tobytes() == expected[lo:lo + 1].tobytes()
        assert los == [0, 1, 2, 3, 4]

    def test_generator_is_the_stored_stream(self):
        # generator() seeds its bit generator from a fixed SeedSequence and
        # overwrites the state: its draws are those of any generator set
        # to the stored state, and each call starts the stream anew
        sur = sample_path(CAUCHY_LIKE, 1.0, 10, 4, cells_per_dim=8).surrogate
        reference = np.random.Generator(np.random.PCG64())
        reference.bit_generator.state = sur.state
        expected = reference.standard_normal(200)
        first, second = sur.generator(), sur.generator()
        assert first.bit_generator.state == sur.state
        assert first.standard_normal(200).tobytes() == expected.tobytes()
        assert second.standard_normal(200).tobytes() == expected.tobytes()

    def test_truncate_shares_the_surrogate(self):
        path = sample_path(CAUCHY_LIKE, 1.0, 10, 3, cells_per_dim=4)
        assert truncate(path, 0.05).surrogate is path.surrogate

    def test_d2_sample_path_draws_no_surrogate(self):
        # a 256 x 256 cell surrogate over 50 steps is 26 MB when drawn
        tracemalloc.start()
        try:
            path = sample_path(CAUCHY_LIKE, 1.0, 50, 9, cells_per_dim=256,
                               dimension=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.surrogate.size == 50 * 256**2
        assert peak < 2**20


class TestTruncation:
    def test_keeps_small_jumps_exactly(self):
        spec = LevyMeasureSpec(variant="atoms",
                               atoms=((0.5, 1.0), (-3.0, 0.2), (3.0, 0.2)))
        p = sample_path(spec, 1.0, 10, 5, cells_per_dim=8)
        q = truncate(p, 1.0)
        keep = np.abs(p.jump_sizes) <= 1.0
        np.testing.assert_array_equal(q.jump_times, p.jump_times[keep])
        np.testing.assert_array_equal(q.jump_sizes, p.jump_sizes[keep])

    def test_first_large_jump(self):
        spec = LevyMeasureSpec(variant="atoms",
                               atoms=((0.5, 1.0), (-3.0, 0.2), (3.0, 0.2)))
        p = sample_path(spec, 4.0, 10, 11, cells_per_dim=8)
        tau = first_large_jump(p, 1.0)
        big = np.abs(p.jump_sizes) > 1.0
        if big.any():
            assert tau == p.jump_times[big][0]
        else:
            assert math.isinf(tau)

    def test_zero_after_prefix_untouched(self):
        p = sample_path(RADEMACHER, 1.0, 10, 13, cells_per_dim=8)
        q = zero_after(p, 0.5)
        assert np.all(q.jump_times <= 0.5)
        keep = p.jump_times <= 0.5
        np.testing.assert_array_equal(q.jump_sizes, p.jump_sizes[keep])

    @given(K=st.floats(0.2, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_truncation_monotone_in_K(self, K):
        spec = LevyMeasureSpec(variant="atoms",
                               atoms=((0.5, 1.0), (-3.0, 0.2), (3.0, 0.2)))
        p = sample_path(spec, 2.0, 10, 17, cells_per_dim=8)
        assert len(truncate(p, K).jump_times) <= len(
            truncate(p, K + 1.0).jump_times)


class TestStepIntegral:
    def test_constant_integrand_sums_jumps(self):
        p = sample_path(RADEMACHER, 1.0, 10, 19, cells_per_dim=8)
        H = np.ones((10, 8))
        assert integrate_step_field(H, p) == pytest.approx(
            float(np.sum(p.jump_sizes)))

    @pytest.mark.parametrize("spec", [
        RADEMACHER, CAUCHY_LIKE,
        LevyMeasureSpec(variant="atoms", atoms=((1.5, 1.0), (-0.5, 0.5)))])
    def test_stacked_integrands_integrate_one_by_one(self, spec):
        # a stack of integrands gives each the bytes it has alone, and a
        # 2-D integrand gives a float
        p = sample_path(spec, 1.0, 10, 23, cells_per_dim=8)
        rng = np.random.default_rng(4)
        H = rng.standard_normal((2, 3, 10, 8))
        stacked = integrate_step_field(H, p)
        assert stacked.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                alone = integrate_step_field(H[i, j].copy(), p)
                assert type(alone) is float
                assert stacked[i, j] == alone

    def test_isometry_small_sample(self):
        # quick version of the second-moment identity: H = 1, expected m2 * T
        R = 20_000
        vals = np.array([
            integrate_step_field(np.ones((4, 4)),
                                 sample_path(RADEMACHER, 1.0, 4, s,
                                             cells_per_dim=4))
            for s in range(R)])
        se = vals.var(ddof=1) / math.sqrt(R)
        assert abs(np.mean(vals**2) - 1.0) <= 3 * np.std(vals**2) / math.sqrt(R)

    def test_compensator_removes_mean(self):
        # asymmetric atoms: the compensated integral has mean ~ 0
        spec = LevyMeasureSpec(variant="atoms", atoms=((1.0, 1.0),))
        R = 20_000
        vals = np.array([
            integrate_step_field(np.ones((4, 4)),
                                 sample_path(spec, 1.0, 4, s, cells_per_dim=4))
            for s in range(R)])
        assert abs(vals.mean()) <= 3 * vals.std(ddof=1) / math.sqrt(R)


def _path_with_jumps(times, n_steps, T=1.0):
    """A Rademacher path whose jumps sit at the given times, size 1, at the
    centre of the unit interval, with no surrogate."""
    p = sample_path(RADEMACHER, T, n_steps, 0, cells_per_dim=4)
    times = np.sort(np.asarray(times, dtype=float))
    return dataclasses.replace(
        p, jump_times=times, jump_positions=np.full((len(times), 1), 0.5),
        jump_sizes=np.ones(len(times)))


class TestStepAssignment:
    def test_grid_time_goes_to_the_step_it_starts(self):
        t = 29 * (1.0 / 100)
        p = _path_with_jumps([t], 100)
        assert p.step_edges[29] == t
        bounds = p.jump_bounds()
        assert (bounds[29], bounds[30]) == (0, 1)
        assert bounds[28] == bounds[29]

    def test_jump_below_T_in_the_last_step(self):
        # at T = 1 the 49th multiple of dt = 1/49 is one ulp below 1: a jump
        # there belongs to the last step, for the solver as for the integral
        t = np.nextafter(1.0, 0.0)
        assert 49 * (1.0 / 49) == t
        p = dataclasses.replace(_path_with_jumps([t], 49),
                                jump_positions=np.full((1, 1), 0.3))
        assert p.step_edges[-1] == 1.0
        assert p.jump_bounds()[-2:].tolist() == [0, 1]
        assert integrate_step_field(np.ones((49, 4)), p) == 1.0
        setup = make_setup(build_basis(1, 1, grid_size=5), 2.0, 1.0, 1.0, 49,
                           COEFFICIENT_PRESETS["additive"])
        # the path's only noise is that jump, so a final norm of 0 means
        # the solver dropped it
        assert solve_untruncated(p, setup).hr_norms[-1] > 0.0

    def test_jump_at_T_is_in_no_step(self):
        # a jump at exactly T enters neither the integral nor the solve,
        # which both follow jump_bounds
        p = dataclasses.replace(_path_with_jumps([1.0], 49),
                                jump_positions=np.full((1, 1), 0.3))
        assert p.jump_bounds().tolist() == [0] * 50
        assert integrate_step_field(np.ones((49, 4)), p) == 0.0
        setup = make_setup(build_basis(1, 4, grid_size=17), 2.0, 1.0, 1.0,
                           49, COEFFICIENT_PRESETS["additive"])
        inside = dataclasses.replace(_path_with_jumps([0.37, 1.0], 49),
                                     jump_positions=np.array([[0.3], [0.6]]))
        without = inside.keep_jumps(np.array([True, False]))
        H = np.arange(49 * 4, dtype=float).reshape(49, 4)
        assert integrate_step_field(H, inside) == integrate_step_field(
            H, without) == H[18, 1]
        with_T, alone = (solve_untruncated(q, setup) for q in (inside,
                                                                without))
        for name in ("hr_norms", "coeffs"):
            assert getattr(with_T, name).tobytes() == \
                getattr(alone, name).tobytes(), name
        assert with_T.hr_norms[-1] > 0.0

    @given(n_steps=st.integers(1, 200),
           picks=st.lists(st.tuples(st.integers(0, 10**6),
                                    st.sampled_from([-1, 0, 1])),
                          min_size=1, max_size=12),
           T=st.sampled_from([1.0, 0.3, 2.5]))
    @settings(max_examples=60, deadline=None)
    def test_one_rule_for_solver_and_integral(self, n_steps, picks, T):
        # jump times on step boundaries and one ulp to either side of them
        p = _path_with_jumps([], n_steps, T)
        times = []
        for k, side in picks:
            t = (k % n_steps) * p.dt
            if side:
                t = np.nextafter(t, side * math.inf)
            if 0.0 <= t < T:
                times.append(t)
        if not times:
            return
        p = _path_with_jumps(times, n_steps, T)
        # the jump bounds put every jump in [0, T) in one step, by the
        # rule n dt <= t < (n+1) dt
        bounds = p.jump_bounds()
        assert (bounds[0], bounds[-1]) == (0, len(times))
        steps = np.repeat(np.arange(n_steps), np.diff(bounds))
        for t, n in zip(p.jump_times, steps):
            assert n * p.dt <= t < (n + 1) * p.dt
        # the step-field integral uses it too: H = step index sums the steps
        H = np.repeat(np.arange(n_steps, dtype=float)[:, None], 4, axis=1)
        assert integrate_step_field(H, p) == float(np.sum(steps))
        # zero_after too: it keeps the surrogate of exactly the steps that
        # start before the cut
        p = dataclasses.replace(p, surrogate=sample_path(
            CAUCHY_LIKE, T, n_steps, 0, cells_per_dim=4).surrogate)
        starts = np.arange(n_steps) * p.dt
        for t in times:
            kept = zero_after(p, t).surrogate.full().any(axis=1)
            np.testing.assert_array_equal(kept, starts < t)


class TestSerialization:
    @pytest.mark.parametrize("spec", [RADEMACHER, CAUCHY_LIKE])
    def test_round_trip(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_bad_variant(self):
        with pytest.raises(NoiseError):
            spec_from_dict({"variant": "gaussian"})


def test_validation():
    with pytest.raises(NoiseError):
        LevyMeasureSpec(variant="atoms", atoms=((1.0, -0.5),))
    with pytest.raises(NoiseError):
        LevyMeasureSpec(variant="stable", alpha=2.5, cutoff=0.01)
    with pytest.raises(NoiseError):
        LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.0)
    # atoms are simulated exactly, so a cutoff would silently drop mass
    with pytest.raises(NoiseError, match="cutoff"):
        LevyMeasureSpec(variant="atoms", atoms=((1.0, 0.5), (-1.0, 0.5)),
                        cutoff=0.5)
    # a field of the other variant is an error, not ignored
    with pytest.raises(NoiseError, match="alpha"):
        LevyMeasureSpec(variant="atoms", atoms=((1.0, 0.5),), alpha=1.5)
    with pytest.raises(NoiseError, match="atoms"):
        LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01,
                        atoms=((5.0, 1.0),))
