"""End-to-end acceptance gate.

Ten criteria, each one test, each printing a single PASS/FAIL line. The
criteria pin down: the supremum-embedding constant, the second-moment
isometry, the additive closed-form variances, first-order deterministic
convergence, bitwise consistency of the truncation hierarchy in N and K,
the Poisson survival law of the jump-truncation time, monotonicity plus
the Chebyshev tail bound for the blow-up detector, the exponential moment
bound, localization in time, and stability of the kernel functional.
"""

import math

import numpy as np
import pytest

from fswe.basis import build_basis, embedding_constant
from fswe.green import GreenParams, time_integrated_sup
from fswe.noise import (LevyMeasureSpec, first_large_jump, sample_path,
                        zero_after)
from fswe.solver import (COEFFICIENT_PRESETS, CoefficientPair, make_setup,
                         solve_truncated, solve_untruncated)
from fswe.verify import (additive_linear_suite, check_moment_bound,
                         check_tail_bound, consistency_suite, isometry_suite,
                         replica_seed, survival_suite)

RADEMACHER = LevyMeasureSpec(variant="atoms", atoms=((1.0, 0.5), (-1.0, 0.5)))
STABLE = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
WAVE = CoefficientPair(np.sin, np.cos, 1.0, 1.0, "wave")


def _verdict(name: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


@pytest.fixture(scope="module")
def wave_setup():
    return make_setup(build_basis(1, 16), 2.0, 1.0, 1.0, 100, WAVE)


def test_criterion_01_embedding_constant():
    # C_inf(M) -> 1/2 in d=1 at r=1 (kernel sup = sup x(1-x) = 1/4)
    C_inf = embedding_constant(build_basis(1, 2000, grid_size=8001), 1.0)
    err = abs(C_inf - 0.5)
    _verdict(f"embedding constant 1/2 within 1e-3 (err={err:.2e})",
             err <= 1e-3)


def test_criterion_02_isometry():
    rep = isometry_suite(RADEMACHER, R=100_000, base_seed=101 << 32)
    detail = "; ".join(f"{v.name} {'ok' if v.passed else 'BAD'}"
                       for v in rep.verdicts)
    _verdict(f"second-moment isometry, 3 integrands, 1e5 samples ({detail})",
             rep.passed)


def test_criterion_03_additive_variances():
    basis = build_basis(1, 8)
    rep = additive_linear_suite(basis, 2.0, 1.0, RADEMACHER, R=10_000,
                                base_seed=103 << 32, n_steps=20,
                                t_checks=(0.25, 0.5, 1.0))
    bad = [v.name for v in rep.verdicts if not v.passed]
    _verdict("additive per-mode variances, 8 modes x 3 times, 3 SE "
             f"(failures: {bad or 'none'})", rep.passed)


def test_criterion_04_duhamel_order():
    basis = build_basis(1, 8)
    lam1 = basis.eigenvalues[0]
    exact = lam1**-2.0 * (1.0 - math.cos(lam1)) * 2.0 * math.sqrt(2.0) / math.pi
    errs = []
    for n_steps in (100, 200, 400, 800):
        setup = make_setup(basis, 2.0, 1.0, 1.0, n_steps,
                           COEFFICIENT_PRESETS["drift_only"])
        path = zero_after(
            sample_path(RADEMACHER, 1.0, n_steps, 0,
                        cells_per_dim=basis.grid_size - 1), 0.0)
        traj = solve_untruncated(path, setup)
        errs.append(abs(traj.coeffs[-1, 0] - exact))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    _verdict(f"deterministic convergence order >= 1 (rates={np.round(rates, 2)})",
             bool(np.all(rates >= 1.0 - 0.1)))


def test_criterion_05_N_consistency(wave_setup):
    rep = consistency_suite(wave_setup, RADEMACHER, n_seeds=100,
                            base_seed=105 << 32)
    good = rep.verdicts[0].passed
    bad_rep = consistency_suite(wave_setup, RADEMACHER, n_seeds=10,
                                base_seed=105 << 32, corrupt=True)
    control = not bad_rep.verdicts[0].passed
    _verdict("(N, N+1) coupling bit-exact on 100 seeds and mutated clamp "
             f"control fails (control_failed={control})", good and control)


def test_criterion_06_K_consistency_and_survival(wave_setup):
    rep = consistency_suite(wave_setup, RADEMACHER, stable_spec=STABLE,
                            n_seeds=100, base_seed=106 << 32)
    k_verdict = [v for v in rep.verdicts if "(K, K+1)" in v.name][0]
    surv = survival_suite(STABLE, K=1.0, T=1.0, R=100_000, base_seed=106 << 32)
    v = surv.verdicts[0]
    _verdict("(K, K+1) coupling bit-exact on 100 seeds; P(tau^K > 1) = "
             f"{v.observed:.4f} vs e^-1 = {v.reference:.4f} within 3 SE",
             k_verdict.passed and surv.passed)


def test_criterion_07_tau_monotone_tail(wave_setup):
    rep = check_tail_bound(wave_setup, RADEMACHER,
                           N_values=(1, 2, 4, 8, 16), R=1000, base_seed=107 << 32)
    bad = [v.name for v in rep.verdicts if not v.passed]
    _verdict("tau_N monotone on coupled replicas and Chebyshev tail bound "
             f"for N in (1,2,4,8,16) (failures: {bad or 'none'})", rep.passed)


def test_criterion_08_moment_bound(wave_setup):
    rep = check_moment_bound(wave_setup, RADEMACHER, N_values=(1, 2, 4, 8),
                             R=1000, base_seed=108 << 32)
    bad = [v.name for v in rep.verdicts if not v.passed]
    _verdict("exponential moment bound at every truncation level "
             f"(failures: {bad or 'none'})", rep.passed)


def test_criterion_09_localization(wave_setup):
    # zeroing the noise after a random cutoff leaves the past byte-identical
    rng = np.random.default_rng(109)
    setup = wave_setup
    ok = 0
    for i in range(50):
        seed = replica_seed(109 << 32, i)
        path = sample_path(RADEMACHER, setup.T, setup.n_steps, seed,
                           cells_per_dim=setup.basis.grid_size - 1)
        cut_idx = int(rng.integers(1, setup.n_steps))
        full = solve_truncated(2, path, setup)
        cut = solve_truncated(2, zero_after(path, cut_idx * setup.dt), setup)
        if (full.coeffs[:cut_idx + 1].tobytes()
                == cut.coeffs[:cut_idx + 1].tobytes()):
            ok += 1
    _verdict(f"localization byte-identical on {ok}/50 randomized "
             "(seed, cutoff) pairs", ok == 50)


def test_criterion_10_kernel_functional_stable():
    v1 = time_integrated_sup(GreenParams(2.0, build_basis(1, 128)), 1.0)
    v2 = time_integrated_sup(GreenParams(2.0, build_basis(1, 256)), 1.0)
    rel = abs(v2 - v1) / v2
    _verdict(f"time-integrated kernel sup stable under mode refinement "
             f"(rel change {rel:.2e} < 1e-3)", rel < 1e-3)
