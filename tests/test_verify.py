import math
import tracemalloc

import numpy as np
import pytest

import fswe.solver
import fswe.verify
from fswe.basis import build_basis
from fswe.noise import LevyMeasureSpec
from fswe.solver import CoefficientPair, make_setup
from fswe.verify import (additive_linear_suite, check_moment_bound,
                         check_tail_bound, consistency_suite, hatC,
                         isometry_suite, mode_variance_closed_form,
                         moment_growth_bound, replica_seed, survival_suite)

RADEMACHER = LevyMeasureSpec(variant="atoms", atoms=((1.0, 0.5), (-1.0, 0.5)))
STABLE = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
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

    @pytest.mark.parametrize("suite, kept", [(check_tail_bound, 0),
                                             (check_moment_bound, 1)],
                             ids=["check_tail_bound", "check_moment_bound"])
    def test_reports_do_not_depend_on_block_size(self, setup, monkeypatch,
                                                 suite, kept):
        # one block of 23 replicas against blocks of 3 and a last one of 2
        whole = suite(setup, RADEMACHER, N_values=(1, 2), R=23, base_seed=9)
        assert len(fswe.verify._replica_blocks(setup, 23, 2, kept)) == 1
        history = (setup.n_steps + 1) * setup.basis.mode_count
        monkeypatch.setattr(fswe.verify, "_BLOCK_VALUES",
                            3 * (2 * setup.basis.grid_size + kept * history))
        blocks = fswe.verify._replica_blocks(setup, 23, 2, kept)
        assert [len(b) for b in blocks] == [3] * 7 + [2]
        split = suite(setup, RADEMACHER, N_values=(1, 2), R=23, base_seed=9)
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
        monkeypatch.setattr(fswe.verify, "_BLOCK_VALUES", 8 * per_replica)
        assert len(fswe.verify._replica_blocks(setup, 60, 2, 1)[0]) == 8
        setup.phases  # tabulated once per setup
        tracemalloc.start()
        try:
            check_moment_bound(setup, RADEMACHER, N_values=(1, 2), R=60,
                               base_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * fswe.verify._BLOCK_VALUES

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

    def test_report_serializes(self, setup):
        rep = consistency_suite(setup, RADEMACHER, n_seeds=3, base_seed=8)
        d = rep.to_dict()
        assert d["suite"] == "consistency"
        assert isinstance(d["passed"], bool)
