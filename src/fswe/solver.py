"""Mode-wise time stepping of the mild solution, coefficient truncation,
stopping-time detection, and the two pasting constructions.

The field is advanced through four accumulators per mode: drift accumulators
A, B and martingale accumulators Mc, Ms, with the identity

    u_k(t) = omega_k^{-1} [ sin(omega_k t) (A_k + Mc_k)
                          - cos(omega_k t) (B_k + Ms_k) ],

omega_k = lambda_k^{gamma/2}. Expanding sin(omega (t-s)) turns the Duhamel
convolution into running integrals against cos(omega s) and sin(omega s), so
a step costs O(M) with no history. Drift and diffusion are evaluated at the
step start (left-point rule), the discrete counterpart of predictability.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .basis import EigenBasis, embedding_constant
from .noise import NoisePath, first_large_jump, truncate


class SolverError(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficients

@dataclass(frozen=True)
class CoefficientPair:
    """Drift b and diffusion sigma with their linear-growth constants."""

    b: object                 # vectorized callable
    sigma: object
    D_b: float
    D_sigma: float
    name: str = "custom"


def _zero(x):
    return np.broadcast_to(0.0, np.shape(x))


def _one(x):
    return np.broadcast_to(1.0, np.shape(x))


def _identity(x):
    return np.asarray(x, dtype=float)


def _damped_cubic(x):
    x = np.asarray(x, dtype=float)
    return x**3 / (1.0 + x**2)


def _sine(x):
    return np.sin(np.asarray(x, dtype=float))


COEFFICIENT_PRESETS = {
    "zero": CoefficientPair(_zero, _zero, 0.0, 0.0, "zero"),
    "constant": CoefficientPair(_one, _one, 1.0, 1.0, "constant"),
    "drift_only": CoefficientPair(_one, _zero, 1.0, 0.0, "drift_only"),
    "additive": CoefficientPair(_zero, _one, 0.0, 1.0, "additive"),
    "linear": CoefficientPair(_identity, _identity, 1.0, 1.0, "linear"),
    "clamped_cubic": CoefficientPair(_damped_cubic, _damped_cubic, 1.0, 1.0,
                                     "clamped_cubic"),
    "sine": CoefficientPair(_sine, _sine, 1.0, 1.0, "sine"),
}


def clamp_radius(N: int, C_inf: float) -> float:
    """C_inf*N, the radius at which level N clamps the argument of b and
    sigma; the clamped pair is globally Lipschitz and keeps the same
    linear-growth constants."""
    if N < 1 or C_inf <= 0:
        raise SolverError(f"need N >= 1 and C_inf > 0, got N={N}, C_inf={C_inf}")
    return C_inf * N


def _clamped(f, x: np.ndarray, radius: np.ndarray | None) -> np.ndarray:
    """f at x clamped to [-radius, radius]; radius None clamps nothing. The
    constant presets ignore their argument, so they skip the clip."""
    if radius is None or f is _zero or f is _one:
        return f(x)
    # np.clip's values, in half its time for per-row radii
    x = np.maximum(x, -radius)
    return f(np.minimum(x, radius, out=x))


# ---------------------------------------------------------------------------
# solver setup and state

def check_exponents(d: int, gamma: float, r: float,
                    error: type[ValueError] = SolverError) -> None:
    """Raise ``error`` unless gamma > d and d/2 < r < gamma - d/2, the window
    in which C_inf and the moment-bound series are finite."""
    if gamma <= d:
        raise error(f"gamma > d required: gamma={gamma}, d={d}")
    if not r > d / 2.0:
        raise error(f"r > d/2 required (d/2 < r < gamma - d/2): "
                    f"r={r}, d={d}")
    if not r < gamma - d / 2.0:
        raise error(f"r < gamma - d/2 required (d/2 < r < gamma - d/2): "
                    f"r={r}, gamma={gamma}, d={d}")


def check_K_schedule(ks, cutoff: float,
                     error: type[ValueError] = SolverError) -> None:
    """Raise ``error`` unless the noise truncation levels K are a non-empty
    strictly increasing sequence starting at or above the noise cutoff."""
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise error(
            "K schedule must be a non-empty strictly increasing sequence")
    if ks[0] < cutoff:
        raise error(f"K schedule starts at {ks[0]}, below the noise "
                    f"cutoff {cutoff}")


@dataclass(frozen=True)
class SolveSetup:
    """Immutable precomputed data shared by every solve on one configuration."""

    basis: EigenBasis
    gamma: float
    r: float
    T: float
    n_steps: int
    pair: CoefficientPair
    C_inf: float
    omega: np.ndarray = field(init=False)
    lam_r: np.ndarray = field(init=False)

    def __post_init__(self):
        check_exponents(self.basis.dimension, self.gamma, self.r)
        if self.n_steps < 1 or self.T <= 0:
            raise SolverError("need T > 0 and n_steps >= 1")
        lam = self.basis.eigenvalues
        object.__setattr__(self, "omega", lam ** (self.gamma / 2.0))
        object.__setattr__(self, "lam_r", lam**self.r)

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @functools.cached_property
    def phases(self) -> tuple[np.ndarray, np.ndarray]:
        """cos(omega t_n) and sin(omega t_n) at the grid times t_n = n dt,
        each of shape (n_steps + 1, M); tabulated on first use."""
        wt = (np.arange(self.n_steps + 1) * self.dt)[:, None] * self.omega
        return np.cos(wt), np.sin(wt)


def make_setup(basis: EigenBasis, gamma: float, r: float, T: float,
               n_steps: int, pair: CoefficientPair,
               C_inf: float | None = None) -> SolveSetup:
    # checked here too: embedding_constant below needs r > d/2
    check_exponents(basis.dimension, gamma, r)
    if C_inf is None:
        C_inf = embedding_constant(basis, r)
    return SolveSetup(basis=basis, gamma=gamma, r=r, T=T, n_steps=n_steps,
                      pair=pair, C_inf=C_inf)


@dataclass
class ModeState:
    """Accumulators and current coefficients at one grid time.

    The arrays have shape (M,) for one field, or (rows, M) for the batch of
    rows that step advances together.
    """

    t: float
    drift_cos: np.ndarray   # A_k
    drift_sin: np.ndarray   # B_k
    mart_cos: np.ndarray    # Mc_k
    mart_sin: np.ndarray    # Ms_k
    u: np.ndarray           # current mode coefficients

    @classmethod
    def zero(cls, shape: int | tuple[int, int]) -> "ModeState":
        """The zero state at t=0; shape is M or (rows, M)."""
        return cls(t=0.0, drift_cos=np.zeros(shape), drift_sin=np.zeros(shape),
                   mart_cos=np.zeros(shape), mart_sin=np.zeros(shape),
                   u=np.zeros(shape))

    def rebuild_u(self, omega: np.ndarray, cos_t: np.ndarray | None = None,
                  sin_t: np.ndarray | None = None) -> np.ndarray:
        """Coefficients implied by the accumulator identity at time t.

        cos_t and sin_t are cos(omega t) and sin(omega t); they are computed
        here when the caller does not pass them."""
        if cos_t is None:
            cos_t, sin_t = np.cos(omega * self.t), np.sin(omega * self.t)
        return (sin_t * (self.drift_cos + self.mart_cos)
                - cos_t * (self.drift_sin + self.mart_sin)) / omega


def hr_norm_at(state: ModeState, setup: SolveSetup):
    """H_r norm of the coefficients: a scalar for one field, shape (rows,)
    for a batch."""
    return np.sqrt(np.sum(setup.lam_r * state.u**2, axis=-1))


def _check_path(path: NoisePath, setup: SolveSetup) -> None:
    b = setup.basis
    if path.dimension != b.dimension:
        raise SolverError("path dimension does not match the basis")
    if path.n_steps != setup.n_steps or abs(path.T - setup.T) > 1e-12:
        raise SolverError("path partition does not match the solver partition")
    if path.surrogate is not None and path.cells_per_dim != b.grid_size - 1:
        raise SolverError("path surrogate cells do not match the quadrature grid")


@dataclass(frozen=True)
class RowGroup:
    """The rows of a batch that one noise path drives."""

    path: NoisePath
    rows: slice | np.ndarray
    jump_bounds: list[int]  # index of the first jump at or after each step edge


def row_groups(paths: Sequence[NoisePath],
               setup: SolveSetup) -> list[RowGroup]:
    """Group the rows of a batch by path: row i is driven by paths[i].

    Rows given the same path object share a group. Every path must match
    the setup, and all of them one Levy measure.
    """
    rows_of: dict[int, tuple[NoisePath, list[int]]] = {}
    for i, path in enumerate(paths):
        rows_of.setdefault(id(path), (path, []))[1].append(i)
    groups = []
    for path, rows in rows_of.values():
        _check_path(path, setup)
        if path.spec != paths[0].spec:
            raise SolverError("the rows of a batch must share one Levy measure")
        contiguous = rows[-1] - rows[0] + 1 == len(rows)
        groups.append(RowGroup(
            path=path,
            rows=slice(rows[0], rows[-1] + 1) if contiguous else np.array(rows),
            jump_bounds=path.jump_bounds().tolist()))
    return groups


def step(state: ModeState, groups: Sequence[RowGroup], n: int,
         setup: SolveSetup, radius: np.ndarray | None) -> ModeState:
    """Advance every row one step [n dt, (n+1) dt) with left-point evaluation.

    The state arrays have shape (rows, M), and each group's path drives the
    group's rows. Row i clamps the argument of b and sigma at +-radius[i];
    radius None clamps nothing. Every product is a stack of one-row
    products, so a row gets the same bytes in any batch, alone included.
    """
    bas = setup.basis
    pair = setup.pair
    omega = setup.omega
    dt = setup.dt
    cos_t, sin_t = setup.phases
    u = state.u
    r = None if radius is None else radius[:, None]
    A, B = state.drift_cos, state.drift_sin
    Mc, Ms = state.mart_cos.copy(), state.mart_sin.copy()

    m1 = groups[0].path.spec.m1
    need_compensator = m1 != 0.0 and pair.D_sigma != 0.0
    if pair.D_b != 0.0 or need_compensator:
        u_grid = bas.synthesize(u[:, None])[:, 0]
    if pair.D_b != 0.0:
        beta = bas.analyze(bas.quad_weights * _clamped(pair.b, u_grid, r))
        A = A + dt * cos_t[n] * beta
        B = B + dt * sin_t[n] * beta

    for g in groups:
        lo, hi = g.jump_bounds[n], g.jump_bounds[n + 1]
        if hi > lo:
            rows = g.rows
            modes_j = bas.evaluate_modes(g.path.jump_positions[lo:hi])
            u_at_j = (u[rows, None] @ modes_j)[:, 0]    # field frozen at t0
            w = (_clamped(pair.sigma, u_at_j, None if r is None else r[rows])
                 * g.path.jump_sizes[lo:hi])[:, :, None]
            phase = np.outer(omega, g.path.jump_times[lo:hi])
            Mc[rows] += ((np.cos(phase) * modes_j) @ w)[:, :, 0]
            Ms[rows] += ((np.sin(phase) * modes_j) @ w)[:, :, 0]

    if need_compensator:
        # compensator of asymmetric finite-activity jumps, left-point rule
        comp = bas.analyze(bas.quad_weights * _clamped(pair.sigma, u_grid, r))
        Mc -= m1 * dt * cos_t[n] * comp
        Ms -= m1 * dt * sin_t[n] * comp

    for g in groups:
        if g.path.surrogate is None:
            continue
        noise = g.path.surrogate[n]   # a view: whole-path surrogates are big
        if np.any(noise):
            rows = g.rows
            u_cells = bas.synthesize(u[rows, None], "cells")[:, 0]
            sig = _clamped(pair.sigma, u_cells, None if r is None else r[rows])
            proj = bas.analyze(sig * noise, "cells")
            Mc[rows] += cos_t[n] * proj
            Ms[rows] += sin_t[n] * proj

    new = ModeState(t=(n + 1) * dt, drift_cos=A, drift_sin=B, mart_cos=Mc,
                    mart_sin=Ms, u=u)
    new.u = new.rebuild_u(omega, cos_t[n + 1], sin_t[n + 1])
    return new


def solve_rows(paths: Sequence[NoisePath], setup: SolveSetup,
               radius: np.ndarray | None,
               keep: slice = slice(0)) -> tuple[np.ndarray, np.ndarray]:
    """Solve a batch of rows from zero over the whole grid, one step call
    per grid step: row i is driven by paths[i] and clamped at radius[i]
    (radius None clamps no row).

    Returns the H_r norms, shape (rows, n_steps + 1), and the coefficient
    histories of the rows that ``keep`` selects, shape
    (kept, n_steps + 1, M); no other row's history is stored.
    """
    groups = row_groups(paths, setup)
    rows = len(paths)
    M = setup.basis.mode_count
    state = ModeState.zero((rows, M))
    norms = np.zeros((rows, setup.n_steps + 1))
    coeffs = np.zeros((len(range(rows)[keep]), setup.n_steps + 1, M))
    for n in range(setup.n_steps):
        state = step(state, groups, n, setup, radius)
        norms[:, n + 1] = hr_norm_at(state, setup)
        coeffs[:, n + 1] = state.u[keep]
    return norms, coeffs


# ---------------------------------------------------------------------------
# trajectories

@dataclass
class StoppingRecord:
    tau_by_N: dict = field(default_factory=dict)       # level -> grid time or inf
    tau_brackets: dict = field(default_factory=dict)   # level -> (t_prev, t_hit)
    tau_by_K: dict = field(default_factory=dict)       # K -> first large jump
    cap_reached: bool = False


@dataclass
class Trajectory:
    times: np.ndarray       # (n_steps+1,)
    hr_norms: np.ndarray
    coeffs: np.ndarray      # (n_steps+1, M)
    active_N: np.ndarray    # truncation level used on each grid time
    active_K: np.ndarray    # noise truncation level (inf when untruncated)
    stopping: StoppingRecord


def _run(path: NoisePath, setup: SolveSetup,
         radius: float | None) -> Trajectory:
    """One row of the batched kernel: path clamped at radius (None: not at
    all)."""
    norms, coeffs = solve_rows(
        [path], setup, None if radius is None else np.array([radius]),
        keep=slice(None))
    n_steps = setup.n_steps
    return Trajectory(times=np.linspace(0.0, setup.T, n_steps + 1),
                      hr_norms=norms[0], coeffs=coeffs[0],
                      active_N=np.zeros(n_steps + 1, dtype=int),
                      active_K=np.full(n_steps + 1, math.inf),
                      stopping=StoppingRecord())


def solve_untruncated(path: NoisePath, setup: SolveSetup) -> Trajectory:
    """Solve with the raw coefficient pair (linear/additive oracles)."""
    return _run(path, setup, None)


def stop_times(times: np.ndarray, norms: np.ndarray,
               levels) -> np.ndarray:
    """First grid time at which each row of norms, shape (rows, n_times),
    exceeds its level, or +inf."""
    over = norms > np.asarray(levels)[:, None]
    return np.where(over.any(axis=1), times[over.argmax(axis=1)], math.inf)


def detect_stop(trajectory: Trajectory, N: float) -> float:
    """First grid time with H_r norm > N, or +inf."""
    return float(stop_times(trajectory.times, trajectory.hr_norms[None],
                            [N])[0])


def solve_truncated(N: int, path: NoisePath, setup: SolveSetup) -> Trajectory:
    """Solve with coefficients clamped at +-C_inf*N and record tau_N."""
    traj = _run(path, setup, clamp_radius(N, setup.C_inf))
    traj.active_N[:] = N
    tau = detect_stop(traj, N)
    traj.stopping.tau_by_N[N] = tau
    if math.isfinite(tau):
        traj.stopping.tau_brackets[N] = (max(tau - setup.dt, 0.0), tau)
    return traj


def _paste(path: NoisePath, setup: SolveSetup, K_schedule: tuple[float, ...],
           N_max: int) -> Trajectory:
    """Paste over N and K in one forward pass.

    By the coupling identity level N equals level N+1 bitwise up to and
    including the grid time tau_N, and level K equals every higher K level
    at the grid times before tau^K. So N rises right after the step whose
    norm first exceeds N, K rises right before the first step into a grid
    time at or after tau^K, and no level is solved twice. Past N_max, or
    past a finite tau^K of the last K, the run stays at that level and is
    cap_reached.
    """
    _check_path(path, setup)
    if N_max < 1:
        raise SolverError(f"need N_max >= 1, got {N_max}")
    n_steps = setup.n_steps
    times = np.linspace(0.0, setup.T, n_steps + 1)
    coeffs = np.zeros((n_steps + 1, setup.basis.mode_count))
    norms = np.zeros(n_steps + 1)
    active_N = np.zeros(n_steps + 1, dtype=int)
    active_K = np.zeros(n_steps + 1)
    record = StoppingRecord()
    state = ModeState.zero((1, setup.basis.mode_count))
    N = 1
    radius = np.array([clamp_radius(N, setup.C_inf)])
    k, tau_K = -1, -math.inf  # the first K level is entered at grid index 0
    for n in range(n_steps + 1):
        while times[n] >= tau_K and k + 1 < len(K_schedule):
            k += 1
            K = K_schedule[k]
            groups = row_groups([truncate(path, K)], setup)
            tau_K = record.tau_by_K[K] = first_large_jump(path, K)
        if n:
            state = step(state, groups, n - 1, setup, radius)
            coeffs[n] = state.u[0]
            norms[n] = hr_norm_at(state, setup)[0]
        while not record.cap_reached and norms[n] > N:
            tau = float(times[n])
            record.tau_by_N[N] = tau
            record.tau_brackets[N] = (max(tau - setup.dt, 0.0), tau)
            if N == N_max:
                record.cap_reached = True
            else:
                N += 1
                radius = np.array([clamp_radius(N, setup.C_inf)])
        active_N[n] = N
        active_K[n] = K
    record.tau_by_N.setdefault(N, math.inf)
    record.cap_reached = record.cap_reached or math.isfinite(tau_K)
    return Trajectory(times=times, hr_norms=norms, coeffs=coeffs,
                      active_N=active_N, active_K=active_K, stopping=record)


def paste_over_N(path: NoisePath, setup: SolveSetup,
                 N_max: int = 8) -> Trajectory:
    """Global solution by pasting level-N solves on [tau_{N-1}, tau_N).

    Levels run 1, 2, ... on the same path and the same forward pass. If
    tau_{N_max} <= T the trajectory is flagged cap_reached (theory
    guarantees tau_N -> inf, so raising N_max always clears the flag
    eventually).
    """
    traj = _paste(path, setup, (math.inf,), N_max)
    traj.stopping.tau_by_K.clear()  # pasting over N alone keeps no K record
    return traj


def paste_over_K(path: NoisePath, setup: SolveSetup,
                 K_schedule: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
                 N_max: int = 8) -> Trajectory:
    """Heavy-tailed solution by pasting noise-truncated solves on
    [tau^{K-1}, tau^K), tau^K the first jump exceeding K, each pasted over
    N as in paste_over_N.

    cap_reached is set when the returned trajectory's norm exceeds N_max or
    the last level's tau^K is finite.
    """
    if not path.spec.symmetric:
        raise SolverError(
            "the heavy-tailed driver requires a symmetric Levy measure"
        )
    check_K_schedule(K_schedule, path.spec.cutoff)
    return _paste(path, setup, tuple(K_schedule), N_max)
