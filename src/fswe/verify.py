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
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .basis import EigenBasis, lambda_power_sum, lambda_power_tail
from .noise import (LevyMeasureSpec, NoisePath, first_large_jump,
                    grid_times, integrate_step_field, sample_path, truncate,
                    zero_after)
from .solver import (COEFFICIENT_PRESETS, SolveSetup, clamp_radius,
                     make_setup, paste_rows, row_blocks, solve_rows,
                     stop_times)
# not called here: perfbench's tracer wraps fswe.verify.solve_truncated
from .solver import solve_truncated  # noqa: F401


def replica_seed(base: int, index: int) -> int:
    """Deterministic per-replica seed: base XOR replica index.

    XOR only touches the low bits, so two ensembles share paths unless their
    base seeds differ above the replica-count bit range. Callers who need
    genuinely disjoint streams should separate bases in the high bits
    (e.g. base = run_id << 32).
    """
    return base ^ index


def _replica_paths(spec: LevyMeasureSpec,
                   partition: SolveSetup | tuple[float, int, int, int],
                   base_seed: int, block: range,
                   with_surrogate: bool = True) -> Iterator[NoisePath]:
    """The block's noise paths, one at a time and in order: replica i draws
    from seed replica_seed(base_seed, i). This is the one place a suite
    turns a replica index into a path. The partition is a setup's (its T,
    n_steps and the basis's surrogate cells) or an explicit
    (T, n_steps, cells_per_dim, dimension)."""
    if isinstance(partition, SolveSetup):
        basis = partition.basis
        partition = (partition.T, partition.n_steps, basis.cells_per_dim,
                     basis.dimension)
    T, n_steps, cells, dimension = partition
    for i in block:
        yield sample_path(spec, T, n_steps, replica_seed(base_seed, i),
                          cells_per_dim=cells, dimension=dimension,
                          with_surrogate=with_surrogate)


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


def _mean_se(total: float, total_sq: float, R: int) -> tuple[float, float]:
    """Sample mean over R replicas and its standard error, from the running
    sum of a value and of its square."""
    mean = total / R
    return mean, math.sqrt(max(total_sq / R - mean**2, 0.0) / R)


def _proportion_se(p: float, R: int) -> float:
    """Standard error of an empirical proportion p over R replicas."""
    return math.sqrt(p * (1.0 - p) / R)


def _within_3se(name: str, estimate: tuple[float, float], reference: float,
                inputs: dict) -> Verdict:
    """The verdict |observed - reference| <= 3 se on (observed, se)."""
    observed, se = estimate
    return Verdict(name=name, passed=abs(observed - reference) <= 3 * se,
                   observed=observed, reference=reference, margin=3 * se,
                   inputs=inputs)


# ---------------------------------------------------------------------------
# the exponential-bound constant

def hatC(T: float, D_b: float, D_sigma: float, m2: float,
         basis: EigenBasis, r: float, gamma: float) -> float:
    """4 (T |D| D_b^2 + 16 m2 D_sigma^2) sum_k lambda_k^{r-gamma}.

    The series is the partial sum over the M modes plus the analytic bound
    on the modes beyond M, so it bounds the infinite series from above
    (|D| = 1 on the unit box); the tail bound raises unless r < gamma - d/2.
    """
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
    t_left = grid_times(T, n_steps)[:-1, None]
    x_mid = ((np.arange(n_cells) + 0.5) / n_cells)[None, :]
    names = ("H=1", "H=t", "H=t*x")
    menu = np.stack([np.ones((n_steps, n_cells)),
                     np.broadcast_to(t_left, (n_steps, n_cells)),
                     t_left * x_mid])
    sums = np.zeros((2, len(names)))  # running sums and sums of squares
    for path in _replica_paths(spec, (T, n_steps, n_cells, 1), base_seed,
                               range(R)):
        v = integrate_step_field(menu, path) ** 2
        sums += (v, v * v)
    verdicts = [_within_3se(f"isometry {name}", _mean_se(total, total_sq, R),
                            m2 * float(np.sum(H**2)) * dt * cell_vol,
                            {"m2": m2, "T": T, "R": R})
                for name, H, total, total_sq in zip(names, menu, *sums)]
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
    plus statistically-zero cross-mode covariances.

    Blocks of replicas are solved as the rows of one batch, unclamped; each
    row has the bytes solve_untruncated gives it, and the sums run in
    replica order.
    """
    if not spec.has_finite_variance:
        raise ValueError("the additive closed form needs a finite-variance "
                         "measure")
    setup = make_setup(basis, gamma, r, T, n_steps,
                       COEFFICIENT_PRESETS["additive"])
    m2 = spec.m2 * (2.0 if corrupt else 1.0)
    idx = [int(round(t / setup.dt)) for t in t_checks]
    M = basis.mode_count
    acc = np.zeros((len(idx), M, 2))       # sums of u^2 and u^4 per (time, mode)
    cross = np.zeros(2)                    # u_1 u_2 at final time
    for block in row_blocks(setup, R, kept=1):
        paths = list(_replica_paths(spec, setup, base_seed, block))
        _, histories = solve_rows(paths, setup, None, keep=slice(None))
        for coeffs in histories:           # in replica order
            u = coeffs[idx]                # (n_checks, M)
            acc[:, :, 0] += u**2
            acc[:, :, 1] += u**4
            if M >= 2:
                prod = coeffs[-1, 0] * coeffs[-1, 1]
                cross += (prod, prod * prod)
    verdicts = [_within_3se(f"mode {k + 1} variance at t={t}",
                            _mean_se(*acc[j, k], R),
                            mode_variance_closed_form(
                                m2, basis.eigenvalues[k], gamma,
                                setup.times[idx[j]]),
                            {"m2": m2, "gamma": gamma, "T": T})
                for j, t in enumerate(t_checks) for k in range(M)]
    if M >= 2:
        verdicts.append(_within_3se("cross-mode covariance (1,2)",
                                    _mean_se(*cross, R), 0.0, {"m2": m2}))
    return EnsembleReport("additive_linear", R, base_seed, verdicts)


def _solve_levels(setup: SolveSetup, spec: LevyMeasureSpec, base_seed: int,
                  block: range, N_values: tuple[int, ...],
                  keep: slice = slice(0)) -> tuple[np.ndarray, np.ndarray]:
    """Draw each replica's path of the block once and solve it at every
    level N in one batch: row i*len(N_values) + j is replica block[i] at
    level N_values[j], solved from t=0 on its own row. Returns solve_rows'
    norms and kept coefficient histories."""
    paths = list(_replica_paths(spec, setup, base_seed, block))
    radius = np.tile([clamp_radius(N, setup.C_inf) for N in N_values],
                     len(paths))
    return solve_rows([p for p in paths for _ in N_values], setup, radius,
                      keep)


def _time_mean_square(setup: SolveSetup, coeffs: np.ndarray) -> np.ndarray:
    """Time mean of the squared field of one coefficient history, shape
    (n_points,).

    The history is synthesized in chunks of times within the block cap, and
    the squares are summed in time order into one running sum, the order of
    np.mean's reduction over the whole history.
    """
    basis = setup.basis
    total = np.zeros(basis.grid_size**basis.dimension)
    for chunk in row_blocks(setup, len(coeffs)):
        for square in basis.synthesize(coeffs[chunk.start:chunk.stop]) ** 2:
            total += square
    return total / len(coeffs)


def _bound_inputs(setup: SolveSetup, spec: LevyMeasureSpec) -> dict:
    """The formula inputs every verdict of the two bound suites cites."""
    return {
        "T": setup.T, "D_b": setup.pair.D_b, "D_sigma": setup.pair.D_sigma,
        "m2": spec.m2, "C_inf": setup.C_inf,
        "lambda_sum": lambda_power_sum(setup.basis, setup.r - setup.gamma),
        "lambda_tail": lambda_power_tail(setup.basis, setup.r - setup.gamma),
    }


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
    inputs = _bound_inputs(setup, spec)
    L = len(N_values)
    sums = np.zeros((2, L))   # per level: running sum, sum of squares
    sq_field_mean = np.zeros(setup.basis.grid_size**setup.basis.dimension)
    for block in row_blocks(setup, R, L, kept=1):
        norms, first_level = _solve_levels(setup, spec, base_seed, block,
                                           N_values, keep=slice(0, None, L))
        peaks = np.max(norms**2, axis=1).reshape(len(block), L)
        for v, coeffs in zip(peaks, first_level):     # in replica order
            sums += (v, v * v)
            sq_field_mean += _time_mean_square(setup, coeffs)
    verdicts = []
    for N, total, total_sq in zip(N_values, *sums):
        mean, se = _mean_se(total, total_sq, R)
        verdicts.append(Verdict(
            name=f"moment bound at N={N}", passed=mean + 3 * se <= bound,
            observed=mean, reference=bound, margin=3 * se, inputs=inputs))
    # K_T-style diagnostic: grid max of time-averaged pointwise second moments
    k_t = float(np.max(sq_field_mean / max(R, 1)))
    verdicts.append(Verdict(
        name="pointwise second-moment sup (finite)",
        passed=math.isfinite(k_t), observed=k_t, reference=math.inf,
        margin=0.0, inputs=inputs))
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
    solved from t=0 on its own row, and no row's state is derived from
    another's, so the monotonicity verdict still tests the coupling. Rows
    share only step's grid field of the all-zero rows (solver._field_rows),
    and a zero row has norm 0, so it never carries a tau_N.
    """
    bound_base = moment_growth_bound(setup, spec.m2)
    if corrupt:
        bound_base *= 1e-6
    inputs = _bound_inputs(setup, spec)
    L = len(N_values)
    # corrupt mode sabotages the detector so the tail check must trip
    levels = [1e-6 * N if corrupt else N for N in N_values]
    taus = np.zeros((L, R))
    for block in row_blocks(setup, R, L):
        norms, _ = _solve_levels(setup, spec, base_seed, block, N_values)
        taus[:, block.start:block.stop] = stop_times(
            setup.times, norms, levels * len(block)).reshape(len(block), L).T
    verdicts = []
    probs = (taus <= setup.T).mean(axis=1)
    # cap at T + dt so inf - inf never pollutes the monotonicity diffs
    taus = np.minimum(taus, setup.T + setup.dt)
    for N, p in zip(N_values, probs):
        se, bound = _proportion_se(p, R), bound_base / N**2
        verdicts.append(Verdict(
            name=f"tail bound at N={N}", passed=p <= bound + 3 * se,
            observed=p, reference=bound, margin=3 * se, inputs=inputs))
    mono = bool(np.all(np.diff(taus, axis=0) >= 0.0))
    verdicts.append(Verdict(
        name="tau_N monotone in N on all coupled replicas", passed=mono,
        observed=float(mono), reference=1.0, margin=0.0, inputs=inputs))
    decr = bool(np.all(np.diff(probs) <= 1e-12))
    verdicts.append(Verdict(
        name="empirical P(tau_N <= T) non-increasing in N", passed=decr,
        observed=float(decr), reference=1.0, margin=0.0, inputs=inputs))
    return EnsembleReport("tail_bound", R, base_seed, verdicts)


def survival_suite(spec: LevyMeasureSpec, K: float = 1.0, T: float = 1.0,
                   R: int = 100_000, base_seed: int = 17,
                   corrupt: bool = False) -> EnsembleReport:
    """Empirical P(tau^K > T) against the Poisson survival law
    exp(-T |D| nu(|z|>K))."""
    rate = spec.tail_mass(K) * (2.0 if corrupt else 1.0)
    expected = math.exp(-T * rate)
    hits = sum(first_large_jump(path, K) > T for path in _replica_paths(
        spec, (T, 1, 2, 1), base_seed, range(R), with_surrogate=False))
    p = hits / R
    v = _within_3se(f"P(tau^K > T) at K={K}", (p, _proportion_se(p, R)),
                    expected, {"T": T, "K": K, "tail_mass": rate})
    return EnsembleReport("survival", R, base_seed, [v])


def _prefix_equal(a: np.ndarray, b: np.ndarray, upto: int) -> bool:
    """Bitwise equality of trajectory coefficients on grid indices < upto."""
    return bool(np.array_equal(a[:upto], b[:upto]))


def _level_K1_path(spath: NoisePath, K: float, corrupt: bool) -> NoisePath:
    """spath truncated at K + 1; corrupt mode also drops its jumps in
    (K/2, K], and the (K, K+1) verdict must notice."""
    path = truncate(spath, K + 1.0)
    if not corrupt:
        return path
    z = np.abs(path.jump_sizes)
    return path.keep_jumps((z <= K / 2.0) | (z > K))


def consistency_suite(setup: SolveSetup, spec: LevyMeasureSpec,
                      stable_spec: LevyMeasureSpec | None = None,
                      n_seeds: int = 100, base_seed: int = 23,
                      N: int = 1, K: float = 1.0,
                      corrupt: bool = False) -> EnsembleReport:
    """Coupled-run identities: (N, N+1) agreement up to and including
    tau_N (the identity paste_rows relies on), (K, K+1) agreement before
    tau^K, and the zero-the-future localization test.

    A block of replicas solves three rows per replica in one batch, each
    from t=0: the path at level N, at level N+1, and zeroed after a random
    cut at level N+1. Its stable paths truncated at K and at K+1 are rows
    of one paste_rows pass. No row is derived from another.
    """
    times, n_steps = setup.times, setup.n_steps
    rng = np.random.default_rng(base_seed)
    cuts = [int(rng.integers(1, n_steps)) for _ in range(n_seeds)]
    # corrupt mode clamps level N at a twentieth of its radius
    C_N = 0.05 * setup.C_inf if corrupt else setup.C_inf
    radius = [clamp_radius(N, C_N)] + [clamp_radius(N + 1, setup.C_inf)] * 2
    n_ok = k_ok = loc_ok = 0
    for block in row_blocks(setup, n_seeds, rows=3, kept=3):
        paths = _replica_paths(spec, setup, base_seed, block)
        norms, histories = solve_rows(
            [p for i, path in zip(block, paths)
             for p in (path, path, zero_after(path, times[cuts[i]]))],
            setup, np.tile(radius, len(block)), keep=slice(None))
        # the grid index of each tau_N, n_steps + 1 where it is infinite
        ends = np.searchsorted(times, stop_times(times, norms[::3],
                                                 [N] * len(block)))
        for i, upto, coeffs_N, coeffs_N1, coeffs_cut in zip(
                block, ends, histories[::3], histories[1::3],
                histories[2::3]):
            n_ok += _prefix_equal(coeffs_N, coeffs_N1, upto + 1)
            # localization: zeroing the future never changes the past
            loc_ok += _prefix_equal(coeffs_N1, coeffs_cut, cuts[i] + 1)
        if stable_spec is not None:
            spaths = list(_replica_paths(stable_spec, setup, base_seed,
                                         block))
            pasted = paste_rows([p for spath in spaths
                                 for p in (truncate(spath, K),
                                           _level_K1_path(spath, K, corrupt))],
                                setup)
            for spath, traj_K, traj_K1 in zip(spaths, pasted[::2],
                                              pasted[1::2]):
                upto_K = np.searchsorted(times, first_large_jump(spath, K))
                k_ok += _prefix_equal(traj_K.coeffs, traj_K1.coeffs, upto_K)

    verdicts = [
        Verdict(name="(N, N+1) coupling bit-exact up to and including tau_N",
                passed=n_ok == n_seeds, observed=n_ok, reference=n_seeds,
                margin=0.0, inputs={"N": N, "C_inf": setup.C_inf}),
        Verdict(name="localization: zeroed future leaves past bit-identical",
                passed=loc_ok == n_seeds, observed=loc_ok, reference=n_seeds,
                margin=0.0, inputs={}),
    ]
    if stable_spec is not None:
        verdicts.append(Verdict(
            name="(K, K+1) coupling bit-exact before tau^K",
            passed=k_ok == n_seeds, observed=k_ok, reference=n_seeds,
            margin=0.0, inputs={"K": K, "alpha": stable_spec.alpha,
                                "cutoff": stable_spec.cutoff}))
    return EnsembleReport("consistency", n_seeds, base_seed, verdicts)
