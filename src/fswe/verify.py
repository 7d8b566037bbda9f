"""Monte Carlo ensemble driver: the quantitative bounds of the theory as
executable checks with 3-standard-error margins.

Every suite is a deterministic function of (config, base seed, replica
count). Verdicts carry the formula inputs they used so a report can be
audited offline. Each suite accepts a corrupt flag that deliberately breaks
one ingredient; tests assert the corrupted run fails, guarding against
vacuous passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import EigenBasis, lambda_power_sum, lambda_power_tail
from .noise import (LevyMeasureSpec, NoisePath, first_large_jump,
                    integrate_step_field, sample_path, truncate, zero_after)
from .solver import (COEFFICIENT_PRESETS, SolveSetup, clamp_radius,
                     make_setup, paste_over_N, solve_rows, solve_truncated,
                     solve_untruncated, stop_times)

# Float64 values one batched solve of a bound suite may hold: its rows
# times the grid points, the size of a step's largest temporaries, plus
# the coefficient histories it keeps. About 2 MB per array, whatever the
# replica count, unless one replica's rows alone exceed it (d=2).
_BLOCK_VALUES = 1 << 18


def replica_seed(base: int, index: int) -> int:
    """Deterministic per-replica seed: base XOR replica index.

    XOR only touches the low bits, so two ensembles share paths unless their
    base seeds differ above the replica-count bit range. Callers who need
    genuinely disjoint streams should separate bases in the high bits
    (e.g. base = run_id << 32).
    """
    return base ^ index


@dataclass
class Verdict:
    name: str
    passed: bool
    observed: float
    reference: float
    margin: float
    inputs: dict = field(default_factory=dict)

    def __str__(self):
        state = "PASS" if self.passed else "FAIL"
        return (f"[{state}] {self.name}: observed={self.observed:.6g} "
                f"reference={self.reference:.6g} margin={self.margin:.3g}")


@dataclass
class EnsembleReport:
    suite: str
    replicas: int
    base_seed: int
    verdicts: list

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "replicas": self.replicas,
            "base_seed": self.base_seed,
            "passed": self.passed,
            "verdicts": [vars(v) for v in self.verdicts],
        }


# ---------------------------------------------------------------------------
# the exponential-bound constant

def hatC(T: float, D_b: float, D_sigma: float, m2: float,
         basis: EigenBasis, r: float, gamma: float) -> float:
    """4 (T |D| D_b^2 + 16 m2 D_sigma^2) sum_k lambda_k^{r-gamma}.

    The series is the partial sum over the M modes plus the analytic bound
    on the modes beyond M, so it bounds the infinite series from above
    (|D| = 1 on the unit box).
    """
    d = basis.dimension
    if r >= gamma - d / 2.0:
        raise ValueError(
            f"sum of lambda^(r-gamma) diverges: need r < gamma - d/2, "
            f"got r={r}, gamma={gamma}, d={d}"
        )
    s = (lambda_power_sum(basis, r - gamma)
         + lambda_power_tail(basis, r - gamma))
    return 4.0 * (T * D_b**2 + 16.0 * m2 * D_sigma**2) * s


def moment_growth_bound(setup: SolveSetup, m2: float) -> float:
    """T * hatC_T * exp(T * hatC_T * C_inf^2), the N-uniform second-moment
    bound on sup_t of the squared H_r norm."""
    c = hatC(setup.T, setup.pair.D_b, setup.pair.D_sigma, m2,
             setup.basis, setup.r, setup.gamma)
    return setup.T * c * math.exp(setup.T * c * setup.C_inf**2)


# ---------------------------------------------------------------------------
# suites

def isometry_suite(spec: LevyMeasureSpec, R: int = 100_000,
                   base_seed: int = 2024, n_steps: int = 20,
                   n_cells: int = 16, T: float = 1.0,
                   corrupt: bool = False) -> EnsembleReport:
    """Second-moment identity E[(int H dL)^2] = m2 int H^2 for a menu of
    deterministic step integrands."""
    if not spec.has_finite_variance:
        raise ValueError("isometry checks need a finite-variance measure")
    m2 = spec.m2 * (4.0 if corrupt else 1.0)
    dt = T / n_steps
    cell_vol = 1.0 / n_cells
    t_left = np.arange(n_steps)[:, None] * dt
    x_mid = ((np.arange(n_cells) + 0.5) / n_cells)[None, :]
    menu = {
        "H=1": np.ones((n_steps, n_cells)),
        "H=t": np.broadcast_to(t_left, (n_steps, n_cells)).copy(),
        "H=t*x": t_left * x_mid,
    }
    sums = {name: np.zeros(2) for name in menu}  # running sum, sum of squares
    for i in range(R):
        path = sample_path(spec, T, n_steps, replica_seed(base_seed, i),
                           cells_per_dim=n_cells)
        for name, H in menu.items():
            v = integrate_step_field(H, path) ** 2
            sums[name] += (v, v * v)
    verdicts = []
    for name, H in menu.items():
        mean = sums[name][0] / R
        var = max(sums[name][1] / R - mean**2, 0.0)
        se = math.sqrt(var / R)
        expected = m2 * float(np.sum(H**2)) * dt * cell_vol
        verdicts.append(Verdict(
            name=f"isometry {name}", passed=abs(mean - expected) <= 3 * se,
            observed=mean, reference=expected, margin=3 * se,
            inputs={"m2": m2, "T": T, "R": R},
        ))
    return EnsembleReport("isometry", R, base_seed, verdicts)


def mode_variance_closed_form(m2: float, lam: float, gamma: float,
                              t: float) -> float:
    """Exact variance of one mode of the additive (b=0, sigma=1) solution."""
    w = lam ** (gamma / 2.0)
    return m2 * lam ** (-gamma) * (t / 2.0 - math.sin(2.0 * w * t) / (4.0 * w))


def additive_linear_suite(basis: EigenBasis, gamma: float, r: float,
                          spec: LevyMeasureSpec, R: int = 10_000,
                          base_seed: int = 7, T: float = 1.0,
                          n_steps: int = 20,
                          t_checks: tuple[float, ...] = (0.25, 0.5, 1.0),
                          corrupt: bool = False) -> EnsembleReport:
    """Per-mode variances of the additive solution against the closed form,
    plus statistically-zero cross-mode covariances."""
    setup = make_setup(basis, gamma, r, T, n_steps,
                       COEFFICIENT_PRESETS["additive"])
    m2 = spec.m2 * (2.0 if corrupt else 1.0)
    times = np.linspace(0.0, T, n_steps + 1)
    idx = [int(round(t / setup.dt)) for t in t_checks]
    M = basis.mode_count
    acc = np.zeros((len(idx), M, 2))       # sums of u^2 and u^4 per (time, mode)
    cross = np.zeros(2)                    # u_1 u_2 at final time
    for i in range(R):
        path = sample_path(spec, T, n_steps, replica_seed(base_seed, i),
                           cells_per_dim=basis.grid_size - 1,
                           dimension=basis.dimension)
        traj = solve_untruncated(path, setup)
        u = traj.coeffs[idx]               # (n_checks, M)
        acc[:, :, 0] += u**2
        acc[:, :, 1] += u**4
        if M >= 2:
            prod = traj.coeffs[-1, 0] * traj.coeffs[-1, 1]
            cross += (prod, prod * prod)
    verdicts = []
    for j, t in enumerate(t_checks):
        for k in range(M):
            mean = acc[j, k, 0] / R
            var = max(acc[j, k, 1] / R - mean**2, 0.0)
            se = math.sqrt(var / R)
            expected = mode_variance_closed_form(
                m2, basis.eigenvalues[k], gamma, times[idx[j]])
            verdicts.append(Verdict(
                name=f"mode {k + 1} variance at t={t}",
                passed=abs(mean - expected) <= 3 * se,
                observed=mean, reference=expected, margin=3 * se,
                inputs={"m2": m2, "gamma": gamma, "T": T},
            ))
    if M >= 2:
        mean = cross[0] / R
        se = math.sqrt(max(cross[1] / R - mean**2, 0.0) / R)
        verdicts.append(Verdict(
            name="cross-mode covariance (1,2)", passed=abs(mean) <= 3 * se,
            observed=mean, reference=0.0, margin=3 * se,
            inputs={"m2": m2},
        ))
    return EnsembleReport("additive_linear", R, base_seed, verdicts)


def _replica_blocks(setup: SolveSetup, R: int, levels: int,
                    kept: int = 0) -> list[range]:
    """Consecutive replica ranges, each small enough that its rows (one per
    replica and level) times the grid points, plus ``kept`` coefficient
    histories per replica, stay within _BLOCK_VALUES."""
    points = setup.basis.grid_size ** setup.basis.dimension
    history = (setup.n_steps + 1) * setup.basis.mode_count
    size = max(1, _BLOCK_VALUES // (levels * points + kept * history))
    return [range(lo, min(lo + size, R)) for lo in range(0, R, size)]


def _solve_levels(setup: SolveSetup, spec: LevyMeasureSpec, base_seed: int,
                  block: range, N_values: tuple[int, ...],
                  keep: slice = slice(0)) -> tuple[np.ndarray, np.ndarray]:
    """Draw each replica's path of the block once and solve it at every
    level N in one batch: row i*len(N_values) + j is replica block[i] at
    level N_values[j], solved from t=0 on its own row. Returns solve_rows'
    norms and kept coefficient histories."""
    paths = [sample_path(spec, setup.T, setup.n_steps,
                         replica_seed(base_seed, i),
                         cells_per_dim=setup.basis.grid_size - 1,
                         dimension=setup.basis.dimension)
             for i in block]
    radius = np.tile([clamp_radius(N, setup.C_inf) for N in N_values],
                     len(paths))
    return solve_rows([p for p in paths for _ in N_values], setup, radius,
                      keep)


def check_moment_bound(setup: SolveSetup, spec: LevyMeasureSpec,
                       N_values: tuple[int, ...] = (1, 2, 4, 8),
                       R: int = 1000, base_seed: int = 11,
                       corrupt: bool = False) -> EnsembleReport:
    """Ensemble mean of sup_t ||u_N||^2_{H_r} against the exponential bound,
    per truncation level N; also reports the pointwise second-moment sup.

    Each replica's path is drawn once, and a block of replicas solves all
    its (replica, N) rows with one step call per grid step; every row has
    the bytes solve_truncated(N, path, setup) gives it. Only the first
    level's coefficient histories are kept, for the pointwise sup, and the
    block size counts them.
    """
    if not spec.has_finite_variance:
        raise ValueError("the moment bound applies to finite-variance noise")
    bound = moment_growth_bound(setup, spec.m2)
    if corrupt:
        bound *= 1e-3
    inputs = {
        "T": setup.T, "D_b": setup.pair.D_b, "D_sigma": setup.pair.D_sigma,
        "m2": spec.m2, "C_inf": setup.C_inf,
        "lambda_sum": lambda_power_sum(setup.basis, setup.r - setup.gamma),
    }
    L = len(N_values)
    sums = np.zeros((L, 2))   # per level: running sum, sum of squares
    sq_field_mean = np.zeros(setup.basis.grid_size**setup.basis.dimension)
    for block in _replica_blocks(setup, R, L, kept=1):
        norms, first_level = _solve_levels(setup, spec, base_seed, block,
                                           N_values, keep=slice(0, None, L))
        peaks = np.max(norms**2, axis=1).reshape(len(block), L)
        for replica_peaks, coeffs in zip(peaks.tolist(), first_level):
            for j, v in enumerate(replica_peaks):
                sums[j] += (v, v * v)
            # a plain 2-D product over the history, as for one trajectory
            sq_field_mean += np.mean(setup.basis.synthesize(coeffs) ** 2,
                                     axis=0)
    verdicts = []
    for N, (total, total_sq) in zip(N_values, sums):
        mean = total / R
        se = math.sqrt(max(total_sq / R - mean**2, 0.0) / R)
        verdicts.append(Verdict(
            name=f"moment bound at N={N}", passed=mean + 3 * se <= bound,
            observed=mean, reference=bound, margin=3 * se, inputs=inputs,
        ))
    # K_T-style diagnostic: grid max of time-averaged pointwise second moments
    k_t = float(np.max(sq_field_mean / max(R, 1)))
    verdicts.append(Verdict(
        name="pointwise second-moment sup (finite)",
        passed=math.isfinite(k_t), observed=k_t, reference=math.inf,
        margin=0.0, inputs=inputs,
    ))
    return EnsembleReport("moment_bound", R, base_seed, verdicts)


def check_tail_bound(setup: SolveSetup, spec: LevyMeasureSpec,
                     N_values: tuple[int, ...] = (1, 2, 4, 8, 16),
                     R: int = 1000, base_seed: int = 13,
                     corrupt: bool = False) -> EnsembleReport:
    """Chebyshev tail P(tau_N <= T) <= N^-2 T hatC exp(T hatC C_inf^2) and
    monotonicity of tau_N across coupled replicas.

    Each replica's path is drawn once, and a block of replicas solves all
    its (replica, N) rows with one step call per grid step. Every row has
    the bytes solve_truncated(N, path, setup) gives it: each level is
    solved from t=0 on its own row, none is derived from another, so the
    monotonicity verdict still tests the coupling.
    """
    bound_base = moment_growth_bound(setup, spec.m2)
    if corrupt:
        bound_base *= 1e-6
    inputs = {
        "T": setup.T, "D_b": setup.pair.D_b, "D_sigma": setup.pair.D_sigma,
        "m2": spec.m2, "C_inf": setup.C_inf,
        "lambda_sum": lambda_power_sum(setup.basis, setup.r - setup.gamma),
    }
    L = len(N_values)
    # corrupt mode sabotages the detector so the tail check must trip
    levels = [1e-6 * N if corrupt else N for N in N_values]
    times = np.linspace(0.0, setup.T, setup.n_steps + 1)
    taus = np.zeros((L, R))
    for block in _replica_blocks(setup, R, L):
        norms, _ = _solve_levels(setup, spec, base_seed, block, N_values)
        taus[:, block.start:block.stop] = stop_times(
            times, norms, levels * len(block)).reshape(len(block), L).T
    verdicts = []
    probs = (taus <= setup.T).mean(axis=1)
    # cap at T + dt so inf - inf never pollutes the monotonicity diffs
    taus = np.minimum(taus, setup.T + setup.dt)
    for j, N in enumerate(N_values):
        p = probs[j]
        se = math.sqrt(p * (1.0 - p) / R)
        bound = bound_base / N**2
        verdicts.append(Verdict(
            name=f"tail bound at N={N}", passed=p <= bound + 3 * se,
            observed=p, reference=bound, margin=3 * se, inputs=inputs,
        ))
    mono = bool(np.all(np.diff(taus, axis=0) >= 0.0))
    verdicts.append(Verdict(
        name="tau_N monotone in N on all coupled replicas", passed=mono,
        observed=float(mono), reference=1.0, margin=0.0, inputs=inputs,
    ))
    decr = bool(np.all(np.diff(probs) <= 1e-12))
    verdicts.append(Verdict(
        name="empirical P(tau_N <= T) non-increasing in N", passed=decr,
        observed=float(decr), reference=1.0, margin=0.0, inputs=inputs,
    ))
    return EnsembleReport("tail_bound", R, base_seed, verdicts)


def survival_suite(spec: LevyMeasureSpec, K: float = 1.0, T: float = 1.0,
                   R: int = 100_000, base_seed: int = 17,
                   corrupt: bool = False) -> EnsembleReport:
    """Empirical P(tau^K > T) against the Poisson survival law
    exp(-T |D| nu(|z|>K))."""
    rate = spec.tail_mass(K) * (2.0 if corrupt else 1.0)
    expected = math.exp(-T * rate)
    hits = 0
    for i in range(R):
        path = sample_path(spec, T, 1, replica_seed(base_seed, i),
                           cells_per_dim=2, with_surrogate=False)
        if first_large_jump(path, K) > T:
            hits += 1
    p = hits / R
    se = math.sqrt(p * (1.0 - p) / R)
    v = Verdict(
        name=f"P(tau^K > T) at K={K}", passed=abs(p - expected) <= 3 * se,
        observed=p, reference=expected, margin=3 * se,
        inputs={"T": T, "K": K, "tail_mass": rate},
    )
    return EnsembleReport("survival", R, base_seed, [v])


def _prefix_equal(a: np.ndarray, b: np.ndarray, upto: int) -> bool:
    """Bitwise equality of trajectory coefficients on grid indices < upto."""
    return bool(np.array_equal(a[:upto], b[:upto]))


def consistency_suite(setup: SolveSetup, spec: LevyMeasureSpec,
                      stable_spec: LevyMeasureSpec | None = None,
                      n_seeds: int = 100, base_seed: int = 23,
                      N: int = 1, K: float = 1.0,
                      corrupt: bool = False) -> EnsembleReport:
    """Coupled-run identities: (N, N+1) agreement before tau_N, (K, K+1)
    agreement before tau^K, and the zero-the-future localization test."""
    dt = setup.dt
    times = np.linspace(0.0, setup.T, setup.n_steps + 1)
    n_ok = k_ok = loc_ok = 0
    k_total = 0
    rng = np.random.default_rng(base_seed)
    for i in range(n_seeds):
        seed = replica_seed(base_seed, i)
        path = sample_path(spec, setup.T, setup.n_steps, seed,
                           cells_per_dim=setup.basis.grid_size - 1,
                           dimension=setup.basis.dimension)
        if corrupt:
            # level N clamped at a twentieth of its radius
            norms, coeffs = solve_rows(
                [path], setup, np.array([clamp_radius(N, 0.05 * setup.C_inf)]),
                keep=slice(None))
            coeffs_N, tau = coeffs[0], float(stop_times(times, norms, [N])[0])
        else:
            traj_N = solve_truncated(N, path, setup)
            coeffs_N, tau = traj_N.coeffs, traj_N.stopping.tau_by_N[N]
        traj_N1 = solve_truncated(N + 1, path, setup)
        upto = setup.n_steps + 1 if math.isinf(tau) else int(round(tau / dt))
        if _prefix_equal(coeffs_N, traj_N1.coeffs, upto):
            n_ok += 1

        # localization: zeroing the future never changes the past
        cut_idx = int(rng.integers(1, setup.n_steps))
        path_cut = zero_after(path, cut_idx * dt)
        traj_cut = solve_truncated(N + 1, path_cut, setup)
        if _prefix_equal(traj_N1.coeffs, traj_cut.coeffs, cut_idx + 1):
            loc_ok += 1

        if stable_spec is not None:
            spath = sample_path(stable_spec, setup.T, setup.n_steps, seed,
                                cells_per_dim=setup.basis.grid_size - 1,
                                dimension=setup.basis.dimension)
            tau_K = first_large_jump(spath, K)
            traj_K = paste_over_N(truncate(spath, K), setup)
            spath_K1 = truncate(spath, K + 1.0)
            if corrupt:
                # level K+1 alone loses the jumps in (K/2, K]; the (K, K+1)
                # verdict must notice
                z = np.abs(spath_K1.jump_sizes)
                keep = (z <= K / 2.0) | (z > K)
                spath_K1 = replace(spath_K1,
                                   jump_times=spath_K1.jump_times[keep],
                                   jump_positions=spath_K1.jump_positions[keep],
                                   jump_sizes=spath_K1.jump_sizes[keep])
            traj_K1 = paste_over_N(spath_K1, setup)
            upto_K = (setup.n_steps + 1 if math.isinf(tau_K)
                      else int(np.searchsorted(times, tau_K, side="left")))
            k_total += 1
            if _prefix_equal(traj_K.coeffs, traj_K1.coeffs, upto_K):
                k_ok += 1

    verdicts = [
        Verdict(name="(N, N+1) coupling bit-exact before tau_N",
                passed=n_ok == n_seeds, observed=n_ok, reference=n_seeds,
                margin=0.0, inputs={"N": N, "C_inf": setup.C_inf}),
        Verdict(name="localization: zeroed future leaves past bit-identical",
                passed=loc_ok == n_seeds, observed=loc_ok, reference=n_seeds,
                margin=0.0, inputs={}),
    ]
    if stable_spec is not None:
        verdicts.append(Verdict(
            name="(K, K+1) coupling bit-exact before tau^K",
            passed=k_ok == k_total, observed=k_ok, reference=k_total,
            margin=0.0, inputs={"K": K, "alpha": stable_spec.alpha,
                                "cutoff": stable_spec.cutoff}))
    return EnsembleReport("consistency", n_seeds, base_seed, verdicts)
