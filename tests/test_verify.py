import math

import numpy as np
import pytest

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
