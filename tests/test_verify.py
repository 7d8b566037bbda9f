import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import fswe.solver
import fswe.verify
from fswe.basis import build_basis
from fswe.noise import (LevyMeasureSpec, first_large_jump, sample_path,
                        truncate, zero_after)
from fswe.solver import (COEFFICIENT_PRESETS, CoefficientPair, make_setup,
                         paste_over_N, solve_truncated)
from fswe.verify import (additive_linear_suite, check_moment_bound,
                         check_tail_bound, consistency_suite, hatC,
                         isometry_suite, mode_variance_closed_form,
                         moment_growth_bound, replica_seed, survival_suite)

RADEMACHER = LevyMeasureSpec(variant="atoms", atoms=((1.0, 0.5), (-1.0, 0.5)))
STABLE = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
# atoms +-3 at rate 2 each: tau_1 is finite on most paths
PM3 = LevyMeasureSpec(variant="atoms", atoms=((3.0, 2.0), (-3.0, 2.0)))
WAVE = CoefficientPair(np.sin, np.cos, 1.0, 1.0, "wave")


@pytest.fixture(scope="module")
def setup():
    return make_setup(build_basis(1, 8), 2.0, 1.0, 1.0, 50, WAVE)


class TestConstants:
    def test_hatC_reference_value(self):
        # T=1, D_b=D_sigma=m2=1, gamma=2, r=1: 4(1+16) sum 1/lambda = 34/3
        basis = build_basis(1, 2000)
        c = hatC(1.0, 1.0, 1.0, 1.0, basis, 1.0, 2.0)
        assert c == pytest.approx(34.0 / 3.0, rel=1e-4)

    def test_hatC_linear_in_m2_for_pure_noise(self):
        basis = build_basis(1, 100)
        c1 = hatC(1.0, 0.0, 1.0, 1.0, basis, 1.0, 2.0)
        c3 = hatC(1.0, 0.0, 1.0, 3.0, basis, 1.0, 2.0)
        assert c3 == pytest.approx(3.0 * c1, rel=1e-12)

    def test_hatC_rejects_divergent_exponent(self):
        with pytest.raises(ValueError):
            hatC(1.0, 1.0, 1.0, 1.0, build_basis(1, 10), 1.6, 2.0)

    def test_moment_growth_bound_reference(self):
        # with C_inf = 1/2: (34/3) exp((34/3)/4) ~ 192.6
        basis = build_basis(1, 2000)
        setup = make_setup(basis, 2.0, 1.0, 1.0, 10, WAVE, C_inf=0.5)
        b = moment_growth_bound(setup, 1.0)
        c = 34.0 / 3.0
        assert b == pytest.approx(c * math.exp(c * 0.25), rel=1e-3)

    def test_mode_variance_small_time(self):
        # t/2 - sin(2wt)/(4w) = w^2 t^3/6 + O(t^5)
        lam, gamma, t = math.pi**2, 2.0, 1e-4
        w = lam
        v = mode_variance_closed_form(1.0, lam, gamma, t)
        assert v == pytest.approx(lam**-gamma * w**2 * t**3 / 6.0, rel=1e-4)

    def test_replica_seeds_disjoint(self):
        seeds = {replica_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestIsometrySuite:
    def test_passes(self):
        rep = isometry_suite(RADEMACHER, R=4000, base_seed=1)
        assert rep.passed, [str(v) for v in rep.verdicts]

    def test_corrupt_fails(self):
        rep = isometry_suite(RADEMACHER, R=4000, base_seed=1, corrupt=True)
        assert not rep.passed

    def test_rejects_infinite_variance(self):
        with pytest.raises(ValueError):
            isometry_suite(STABLE, R=10)


class TestAdditiveSuite:
    def test_passes(self):
        basis = build_basis(1, 4)
        rep = additive_linear_suite(basis, 2.0, 1.0, RADEMACHER, R=1500,
                                    base_seed=2, n_steps=20)
        assert rep.passed, [str(v) for v in rep.verdicts]

    def test_corrupt_fails(self):
        basis = build_basis(1, 4)
        rep = additive_linear_suite(basis, 2.0, 1.0, RADEMACHER, R=1500,
                                    base_seed=2, n_steps=20, corrupt=True)
        assert not rep.passed

    def test_rejects_infinite_variance(self):
        with pytest.raises(ValueError, match="finite-variance"):
            additive_linear_suite(build_basis(1, 4), 2.0, 1.0, STABLE, R=10)


    def test_report_does_not_depend_on_block_size(self, monkeypatch):
        # one block of 40 replicas against blocks of 7, each replica
        # solved as a row and summed in replica order
        basis = build_basis(1, 4)
        whole = additive_linear_suite(basis, 2.0, 1.0, RADEMACHER, R=40,
                                      base_seed=2, n_steps=20)
        setup = make_setup(basis, 2.0, 1.0, 1.0, 20,
                           fswe.solver.COEFFICIENT_PRESETS["additive"])
        assert len(fswe.solver.row_blocks(setup, 40, kept=1)) == 1
        monkeypatch.setattr(fswe.solver, "_BLOCK_VALUES",
                            7 * (basis.grid_size + 21 * 4))
        assert [len(b) for b in fswe.solver.row_blocks(setup, 40, kept=1)] \
            == [7] * 5 + [5]
        split = additive_linear_suite(basis, 2.0, 1.0, RADEMACHER, R=40,
                                      base_seed=2, n_steps=20)
        assert split.to_dict() == whole.to_dict()


class TestBoundSuites:
    def test_moment_bound_passes(self, setup):
        rep = check_moment_bound(setup, RADEMACHER, N_values=(1, 2), R=100,
                                 base_seed=3)
        assert rep.passed, [str(v) for v in rep.verdicts]

    def test_moment_bound_corrupt_fails(self, setup):
        rep = check_moment_bound(setup, RADEMACHER, N_values=(1, 2), R=100,
                                 base_seed=3, corrupt=True)
        assert not rep.passed

    def test_tail_bound_passes(self, setup):
        rep = check_tail_bound(setup, RADEMACHER, N_values=(1, 2, 4), R=100,
                               base_seed=4)
        assert rep.passed, [str(v) for v in rep.verdicts]

    def test_tail_bound_corrupt_fails(self, setup):
        rep = check_tail_bound(setup, RADEMACHER, N_values=(1,), R=300,
                               base_seed=4, corrupt=True)
        assert not rep.passed

    def test_tail_bound_steps_once_per_grid_step(self, setup, monkeypatch):
        # 20 replicas x 5 levels fit one block: one step call per grid step
        calls = []
        step = fswe.solver.step

        def counted(*args):
            calls.append(args[2])
            return step(*args)

        monkeypatch.setattr(fswe.solver, "step", counted)
        rep = check_tail_bound(setup, RADEMACHER, N_values=(1, 2, 4, 8, 16),
                               R=20, base_seed=4)
        assert len(rep.verdicts) == 7
        assert calls == list(range(setup.n_steps))

    def test_moment_bound_draws_each_path_once(self, setup, monkeypatch):
        seeds = []
        sample_path = fswe.verify.sample_path

        def counted(spec, T, n_steps, seed, **kw):
            seeds.append(seed)
            return sample_path(spec, T, n_steps, seed, **kw)

        monkeypatch.setattr(fswe.verify, "sample_path", counted)
        check_moment_bound(setup, RADEMACHER, N_values=(1, 2, 4), R=20,
                           base_seed=3)
        assert seeds == [replica_seed(3, i) for i in range(20)]

    @pytest.mark.parametrize("suite, rows, kept", [
        (lambda s: check_tail_bound(s, RADEMACHER, N_values=(1, 2), R=23,
                                    base_seed=9), 2, 0),
        (lambda s: check_moment_bound(s, RADEMACHER, N_values=(1, 2), R=23,
                                      base_seed=9), 2, 1),
        # corrupt, so the (K, K+1) count is neither 0 nor 23
        (lambda s: consistency_suite(s, PM3, stable_spec=STABLE, n_seeds=23,
                                     base_seed=9, corrupt=True), 3, 3),
    ], ids=["check_tail_bound", "check_moment_bound", "consistency_suite"])
    def test_reports_do_not_depend_on_block_size(self, setup, monkeypatch,
                                                 suite, rows, kept):
        # one block of 23 replicas against blocks of 3 and a last one of 2
        whole = suite(setup)
        assert len(fswe.solver.row_blocks(setup, 23, rows, kept)) == 1
        history = (setup.n_steps + 1) * setup.basis.mode_count
        monkeypatch.setattr(fswe.solver, "_BLOCK_VALUES",
                            3 * (rows * setup.basis.grid_size
                                 + kept * history))
        blocks = fswe.solver.row_blocks(setup, 23, rows, kept)
        assert [len(b) for b in blocks] == [3] * 7 + [2]
        split = suite(setup)
        assert split.to_dict() == whole.to_dict()

    def test_moment_block_stays_within_its_cap(self, monkeypatch):
        # blocks of 8 replicas x 2 levels, each keeping its first level's
        # history; a step holds a few rows x grid points temporaries at
        # once and the pointwise sup synthesizes one replica's history, so
        # the peak stays within 4 caps whatever the replica count. Blocks
        # sized without the histories would hold 58 replicas here.
        setup = make_setup(build_basis(1, 64), 2.0, 1.0, 1.0, 50, WAVE)
        per_replica = (2 * setup.basis.grid_size
                       + (setup.n_steps + 1) * setup.basis.mode_count)
        monkeypatch.setattr(fswe.solver, "_BLOCK_VALUES", 8 * per_replica)
        assert len(fswe.solver.row_blocks(setup, 60, 2, 1)[0]) == 8
        setup.phases  # tabulated once per setup
        tracemalloc.start()
        try:
            check_moment_bound(setup, RADEMACHER, N_values=(1, 2), R=60,
                               base_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * fswe.solver._BLOCK_VALUES

    def test_d2_moment_diagnostic_stays_within_the_cap(self, monkeypatch):
        # d=2 synthesizes the pointwise history in chunks of times within
        # the cap: one replica's whole (51, 257^2) history would be 27 MB.
        # The report has the bytes of the whole-history np.mean.
        setup = make_setup(build_basis(2, 64), 3.0, 1.5, 1.0, 50,
                           fswe.solver.COEFFICIENT_PRESETS["linear"])
        setup.phases  # tabulated once per setup
        tracemalloc.start()
        try:
            chunked = check_moment_bound(setup, RADEMACHER, N_values=(1,),
                                         R=2, base_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * fswe.solver._BLOCK_VALUES
        monkeypatch.setattr(
            fswe.verify, "_time_mean_square",
            lambda setup, c: np.mean(setup.basis.synthesize(c) ** 2, axis=0))
        whole = check_moment_bound(setup, RADEMACHER, N_values=(1,), R=2,
                                   base_seed=3)
        assert chunked.to_dict() == whole.to_dict()

    def test_d1_moment_diagnostic_matches_the_whole_history(self,
                                                            monkeypatch):
        # d=1 takes the same chunked rule: a 1031-time history is two
        # chunks, and the report has the bytes of the whole-history np.mean
        setup = make_setup(build_basis(1, 16), 2.0, 1.0, 1.0, 1030, WAVE)
        assert len(fswe.solver.row_blocks(setup, setup.n_steps + 1)) == 2
        chunked = check_moment_bound(setup, RADEMACHER, N_values=(1,), R=2,
                                     base_seed=3)
        monkeypatch.setattr(
            fswe.verify, "_time_mean_square",
            lambda setup, c: np.mean(setup.basis.synthesize(c) ** 2, axis=0))
        whole = check_moment_bound(setup, RADEMACHER, N_values=(1,), R=2,
                                   base_seed=3)
        assert chunked.to_dict() == whole.to_dict()

    @pytest.mark.parametrize("d,M,gamma,r,preset", [
        (1, 16, 2.0, 1.0, "linear"), (2, 64, 3.0, 1.5, "linear"),
        (1, 8, 2.0, 1.0, "wave")])
    def test_references_rebuild_from_their_inputs(self, d, M, gamma, r,
                                                  preset):
        # hatC = 4 (T D_b^2 + 16 m2 D_sigma^2) (lambda_sum + lambda_tail),
        # the moment reference T hatC exp(T hatC C_inf^2), the tail one
        # that over N^2: each from the verdict's own inputs alone
        pair = WAVE if preset == "wave" else COEFFICIENT_PRESETS[preset]
        basis = build_basis(d, M, grid_size=37 if d == 2 else None)
        setup = make_setup(basis, gamma, r, 1.0, 10, pair)
        reports = [check_moment_bound(setup, RADEMACHER, R=2),
                   check_tail_bound(setup, RADEMACHER, R=2)]
        checked = 0
        for report in reports:
            for v in report.verdicts:
                if not v.name.startswith(("moment bound", "tail bound")):
                    continue
                i = v.inputs
                c = (4.0 * (i["T"] * i["D_b"]**2
                            + 16.0 * i["m2"] * i["D_sigma"]**2)
                     * (i["lambda_sum"] + i["lambda_tail"]))
                bound = i["T"] * c * math.exp(i["T"] * c * i["C_inf"]**2)
                N = int(v.name.rsplit("=", 1)[1])
                if v.name.startswith("tail"):
                    bound /= N**2
                assert v.reference == pytest.approx(bound, rel=1e-12)
                checked += 1
        assert checked == 9

    def test_verdicts_cite_inputs(self, setup):
        rep = check_moment_bound(setup, RADEMACHER, N_values=(1,), R=20,
                                 base_seed=5)
        for key in ("T", "D_b", "D_sigma", "m2", "C_inf", "lambda_sum"):
            assert key in rep.verdicts[0].inputs


class TestSurvivalSuite:
    def test_passes(self):
        rep = survival_suite(STABLE, K=1.0, T=1.0, R=5000, base_seed=6)
        assert rep.passed, [str(v) for v in rep.verdicts]
        assert rep.verdicts[0].reference == pytest.approx(math.exp(-1.0))

    def test_corrupt_fails(self):
        rep = survival_suite(STABLE, K=1.0, T=1.0, R=5000, base_seed=6,
                             corrupt=True)
        assert not rep.passed


def _verdict(report, prefix):
    [v] = [v for v in report.verdicts if v.name.startswith(prefix)]
    return v


class TestConsistencySuite:
    def test_passes(self, setup):
        rep = consistency_suite(setup, RADEMACHER, stable_spec=STABLE,
                                n_seeds=10, base_seed=7)
        assert rep.passed, [str(v) for v in rep.verdicts]

    def test_corrupt_fails(self, setup):
        rep = consistency_suite(setup, RADEMACHER, n_seeds=10, base_seed=7,
                                corrupt=True)
        assert not rep.passed

    def test_corrupt_breaks_K_coupling(self, setup):
        rep = consistency_suite(setup, RADEMACHER, stable_spec=STABLE,
                                n_seeds=10, base_seed=7, corrupt=True)
        assert not _verdict(rep, "(K, K+1)").passed

    def test_2d_passes_and_corrupt_fails(self):
        # d=2 runs the separable transforms; the corrupted clamp must still
        # break the (N, N+1) coupling there
        setup2 = make_setup(build_basis(2, 9, grid_size=17), 3.0, 1.5, 1.0,
                            20, WAVE)
        rep = consistency_suite(setup2, RADEMACHER, stable_spec=STABLE,
                                n_seeds=6, base_seed=31)
        assert rep.passed, [str(v) for v in rep.verdicts]
        assert len(rep.verdicts) == 3
        bad = consistency_suite(setup2, RADEMACHER, stable_spec=STABLE,
                                n_seeds=6, base_seed=31, corrupt=True)
        assert not bad.passed
        assert not _verdict(bad, "(K, K+1)").passed

    def test_steps_twice_per_grid_step(self, setup, monkeypatch):
        # 10 replicas fit one block: one solve of their (N, N+1, cut) rows
        # and one paste of their (K, K+1) rows
        calls = []
        step = fswe.solver.step

        def counted(*args):
            calls.append(args[2])
            return step(*args)

        monkeypatch.setattr(fswe.solver, "step", counted)
        assert len(fswe.solver.row_blocks(setup, 10, 3, 3)) == 1
        rep = consistency_suite(setup, RADEMACHER, stable_spec=STABLE,
                                n_seeds=10, base_seed=7)
        assert rep.passed
        assert calls == list(range(setup.n_steps)) * 2

    def test_corrupt_counts_match_lone_solves(self, setup):
        # the counts of the batched suite, recomputed one seed at a time:
        # a suite that paired the wrong rows would count differently
        n, base, dt = 12, 41, setup.dt
        rep = consistency_suite(setup, PM3, stable_spec=STABLE, n_seeds=n,
                                base_seed=base, corrupt=True)
        # level N clamped at a twentieth of its radius
        small = dataclasses.replace(setup, C_inf=0.05 * setup.C_inf)
        rng = np.random.default_rng(base)
        cells = setup.basis.grid_size - 1
        counts, taus = [0, 0, 0], []
        for i in range(n):
            seed = replica_seed(base, i)
            path = sample_path(PM3, 1.0, setup.n_steps, seed,
                               cells_per_dim=cells)
            traj_N = solve_truncated(1, path, small)
            traj_N1 = solve_truncated(2, path, setup)
            taus.append(traj_N.stopping.tau_by_N[1])
            upto = (setup.n_steps + 1 if math.isinf(taus[-1])
                    else int(round(taus[-1] / dt)))
            # up to and including tau_N's grid index
            counts[0] += np.array_equal(traj_N.coeffs[:upto + 1],
                                        traj_N1.coeffs[:upto + 1])
            cut = int(rng.integers(1, setup.n_steps))
            traj_cut = solve_truncated(2, zero_after(path, cut * dt), setup)
            counts[1] += np.array_equal(traj_N1.coeffs[:cut + 1],
                                        traj_cut.coeffs[:cut + 1])
            spath = sample_path(STABLE, 1.0, setup.n_steps, seed,
                                cells_per_dim=cells)
            path_K1 = truncate(spath, 2.0)
            z = np.abs(path_K1.jump_sizes)
            keep = (z <= 0.5) | (z > 1.0)
            path_K1 = dataclasses.replace(
                path_K1, jump_times=path_K1.jump_times[keep],
                jump_positions=path_K1.jump_positions[keep],
                jump_sizes=path_K1.jump_sizes[keep])
            upto_K = int(np.searchsorted(setup.times,
                                         first_large_jump(spath, 1.0)))
            counts[2] += np.array_equal(
                paste_over_N(truncate(spath, 1.0), setup).coeffs[:upto_K],
                paste_over_N(path_K1, setup).coeffs[:upto_K])
        assert any(math.isfinite(t) for t in taus)
        assert [v.observed for v in rep.verdicts] == counts
        assert counts[0] < n and counts[2] < n

    def test_N_coupling_covers_tau_N(self, setup, monkeypatch):
        # a level-(N+1) row that differs from level N only at tau_N's grid
        # index breaks the identity paste_rows relies on: the verdict must
        # fail, though every index before tau_N agrees
        solve_rows = fswe.verify.solve_rows
        hit = []

        def perturbed(paths, setup, radius, keep=slice(0)):
            norms, histories = solve_rows(paths, setup, radius, keep)
            at = np.searchsorted(setup.times, fswe.solver.stop_times(
                setup.times, norms[::3], [1] * (len(paths) // 3)))
            for row, n in zip(histories[1::3], at):
                if n <= setup.n_steps:
                    row[n] = np.nextafter(row[n], np.inf)
                    hit.append(n)
            return norms, histories

        name = "(N, N+1) coupling bit-exact up to and including tau_N"
        rep = consistency_suite(setup, PM3, n_seeds=6, base_seed=41)
        assert _verdict(rep, name).passed
        monkeypatch.setattr(fswe.verify, "solve_rows", perturbed)
        rep = consistency_suite(setup, PM3, n_seeds=6, base_seed=41)
        assert hit
        assert _verdict(rep, name).observed == 6 - len(hit)
        assert not _verdict(rep, name).passed

    def test_report_serializes(self, setup):
        rep = consistency_suite(setup, RADEMACHER, n_seeds=3, base_seed=8)
        d = rep.to_dict()
        assert d["suite"] == "consistency"
        assert isinstance(d["passed"], bool)


_SUITES_AT_TINY_R = {
    "isometry_suite": lambda s: isometry_suite(RADEMACHER, R=5, base_seed=6),
    "additive_linear_suite": lambda s: additive_linear_suite(
        build_basis(1, 2), 2.0, 1.0, RADEMACHER, R=5, base_seed=6),
    "check_moment_bound": lambda s: check_moment_bound(
        s, RADEMACHER, N_values=(1, 2), R=5, base_seed=6),
    "check_tail_bound": lambda s: check_tail_bound(
        s, RADEMACHER, N_values=(1, 2), R=5, base_seed=6),
    "survival_suite": lambda s: survival_suite(STABLE, R=5, base_seed=6),
    "consistency_suite": lambda s: consistency_suite(
        s, PM3, stable_spec=STABLE, n_seeds=5, base_seed=6),
}


@pytest.mark.parametrize("suite", list(_SUITES_AT_TINY_R))
def test_every_path_comes_from_the_replica_rule(setup, monkeypatch, suite):
    # each sample_path call runs inside _replica_paths, and each measure's
    # seeds are replica_seed(6, i) for i = 0 .. R-1, in replica order
    rule = fswe.verify._replica_paths.__code__
    sample_path = fswe.verify.sample_path
    seeds, outside = {}, []

    def recorded(spec, T, n_steps, seed, **kw):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not rule:
            frame = frame.f_back
        if frame is None:
            outside.append(seed)
        seeds.setdefault(spec, []).append(seed)
        return sample_path(spec, T, n_steps, seed, **kw)

    monkeypatch.setattr(fswe.verify, "sample_path", recorded)
    _SUITES_AT_TINY_R[suite](setup)
    assert outside == []
    assert seeds
    for drawn in seeds.values():
        assert drawn == [replica_seed(6, i) for i in range(5)]
