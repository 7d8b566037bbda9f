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
from .noise import NoisePath, first_large_jump, grid_times, truncate


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


# the value of each coefficient that ignores its argument
_CONSTANTS = {f: float(f(0.0)) for f in (_zero, _one)}


def _coefficient(f, field, radius: np.ndarray) -> np.ndarray | float:
    """f at the field clamped to [-radius, radius]; radius inf leaves every
    float unchanged, inf and NaN included. ``field`` is a callable that
    returns the field. A coefficient that ignores its argument (_zero,
    _one) is its value as a Python float, which broadcasts against any
    operand; the field is never built and no array is made."""
    if f is _zero or f is _one:
        return _CONSTANTS[f]
    x = field()
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
    def times(self) -> np.ndarray:
        """The grid times (noise.grid_times), read-only."""
        times = grid_times(self.T, self.n_steps)
        times.flags.writeable = False
        return times

    def _constant_projection(self, f) -> np.ndarray | None:
        """analyze(quad_weights * f), shape (M,) and read-only, when f
        ignores its argument (_zero, _one); None otherwise."""
        if f is not _zero and f is not _one:
            return None
        projection = self.basis.analyze(self.basis.quad_weights
                                        * _CONSTANTS[f])
        projection.flags.writeable = False
        return projection

    @functools.cached_property
    def drift_projection(self) -> np.ndarray | None:
        """The drift's projection when b ignores the state, computed once
        per setup: every row of every step gets these bytes."""
        return self._constant_projection(self.pair.b)

    @functools.cached_property
    def compensator_projection(self) -> np.ndarray | None:
        """The compensator's projection when sigma ignores the state,
        computed once per setup like drift_projection."""
        return self._constant_projection(self.pair.sigma)

    @functools.cached_property
    def phases(self) -> tuple[np.ndarray, np.ndarray]:
        """cos(omega t_n) and sin(omega t_n) at the grid times t_n, each of
        shape (n_steps + 1, M); tabulated on first use."""
        wt = self.times[:, None] * self.omega
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
    if path.surrogate is not None and path.cells_per_dim != b.cells_per_dim:
        raise SolverError("path surrogate cells do not match the quadrature grid")


@dataclass(frozen=True)
class RowGroup:
    """The rows of a batch that one noise path drives."""

    path: NoisePath
    rows: slice | np.ndarray
    index: np.ndarray       # the same rows as an index array
    jump_bounds: list[int]  # index of the first jump at or after each step edge


def row_groups(paths: Sequence[NoisePath],
               setup: SolveSetup) -> list[RowGroup]:
    """Group the rows of a batch by path: row i is driven by paths[i].

    Rows given the same path object share a group. Every path must match
    the setup, and all of them one Levy measure.
    """
    if not paths:
        raise SolverError("a batch needs at least one path")
    rows_of: dict[int, tuple[NoisePath, list[int]]] = {}
    for i, path in enumerate(paths):
        rows_of.setdefault(id(path), (path, []))[1].append(i)
    groups = []
    for path, rows in rows_of.values():
        _check_path(path, setup)
        if path.spec != paths[0].spec:
            raise SolverError("the rows of a batch must share one Levy measure")
        index = np.array(rows)
        contiguous = rows[-1] - rows[0] + 1 == len(rows)
        groups.append(RowGroup(
            path=path,
            rows=slice(rows[0], rows[-1] + 1) if contiguous else index,
            index=index, jump_bounds=path.jump_bounds().tolist()))
    return groups


def _open_streams(paths: Sequence[NoisePath]) -> dict:
    """One row stream per distinct surrogate object of the paths, keyed on
    the object: truncate shares a path's surrogate, so every K level of a
    path reads the same stream."""
    streams = {}
    for p in paths:
        if p.surrogate is not None and p.surrogate not in streams:
            streams[p.surrogate] = p.surrogate.rows()
    return streams


def _draw(streams: dict) -> dict:
    """Advance every stream one grid step: the live surrogates' rows."""
    rows = {}
    for surrogate, stream in streams.items():
        row = next(stream, None)
        if row is not None:
            rows[surrogate] = row
    return rows


_EVERY_ROW = slice(None), slice(None)


def _field_rows(u: np.ndarray, radius: np.ndarray) -> tuple:
    """The rows of u to evaluate the grid field on, and each row's item
    among them: (rows, item), with row i reading item[i].

    The rows bitwise equal to the first all-zero row, sign of every zero
    included, share that row's item when their radius is > 0: equal bytes
    give equal field bytes, and clamping a +-0 field at a radius > 0, inf
    included, changes nothing. Every other row is its own item, and when
    fewer than two rows would share, every row is evaluated in place.
    """
    positive = radius > 0
    zero = ~u.any(axis=1) & positive
    first = int(zero.argmax())
    if not zero[first]:
        return _EVERY_ROW
    bits = u.view(np.int64)   # the float64 bytes, -0.0 apart from +0.0
    shared = (bits == bits[first]).all(axis=1) & positive
    if np.count_nonzero(shared) < 2:
        return _EVERY_ROW
    keep = ~shared
    keep[first] = True
    item = np.cumsum(keep) - 1
    item[shared] = item[first]
    return np.flatnonzero(keep), item


def step(state: ModeState, groups: Sequence[RowGroup], n: int,
         setup: SolveSetup, radius: np.ndarray,
         noise: dict) -> ModeState:
    """Advance every row from grid time t_n to t_n+1 (setup.times) with
    left-point evaluation.

    The state arrays have shape (rows, M), and each group's path drives the
    group's rows with the jumps jump_bounds assigns to step n. Row i clamps
    the argument of b and sigma at +-radius[i] (inf: not at all).
    ``noise`` maps each live surrogate to its step-n row (see _draw); a row
    whose path's surrogate is absent gets no surrogate term. Every product
    is a stack of one-row products, so a row gets the same bytes in any
    batch, alone included.

    Every coefficient is evaluated through _coefficient. One that ignores
    its argument reads no field: its drift or compensator projection is
    the setup's drift_projection or compensator_projection. When the drift
    or the compensator reads the state, the grid field is synthesized once,
    before the drift, for both, on the rows _field_rows picks: the all-zero
    rows bitwise equal to the first one, as every row is until its path's
    first jump when b(0) = 0, share one evaluation, and each reads the
    bytes it computes alone. A zero row has norm 0, so no tau_N rests on
    the sharing. The groups with jumps in the step are bucketed by (jump
    count, rows per group): each bucket evaluates sigma at its jumps and
    scatters them into Mc and Ms with one stacked product each, whose items
    are the one-row products a row gets alone, a group's jump tables
    broadcast over its rows.
    """
    bas = setup.basis
    pair = setup.pair
    omega = setup.omega
    dt = setup.dt
    cos_t, sin_t = setup.phases
    u = state.u
    r = radius[:, None]
    A, B = state.drift_cos, state.drift_sin
    Mc, Ms = state.mart_cos.copy(), state.mart_sin.copy()
    m1 = groups[0].path.spec.m1
    drifts, compensates = pair.D_b != 0.0, m1 != 0.0 and pair.D_sigma != 0.0
    beta, comp = setup.drift_projection, setup.compensator_projection
    if (drifts and beta is None) or (compensates and comp is None):
        # the grid field, synthesized once for the drift and the compensator
        rows, item = _field_rows(u, radius)
        grid = bas.synthesize(u[rows, None])[:, 0]
        if drifts and beta is None:
            beta = bas.analyze(bas.quad_weights * _coefficient(
                pair.b, lambda: grid, r[rows]))[item]
        if compensates and comp is None:
            comp = bas.analyze(bas.quad_weights * _coefficient(
                pair.sigma, lambda: grid, r[rows]))[item]

    if drifts:
        A = A + dt * cos_t[n] * beta
        B = B + dt * sin_t[n] * beta

    # the step's jumps of every group, bucketed by (jump count, rows)
    buckets: dict[tuple[int, int], list] = {}
    for g in groups:
        lo, hi = g.jump_bounds[n], g.jump_bounds[n + 1]
        if hi > lo:
            buckets.setdefault((hi - lo, len(g.index)), []).append(
                (g, lo, hi))
    if buckets:
        # one mode and phase table for every jump, a bucket's columns
        # consecutive and group by group
        spans = [span for bucket in buckets.values() for span in bucket]
        modes = bas.evaluate_modes(np.concatenate(
            [g.path.jump_positions[lo:hi] for g, lo, hi in spans]))
        phase = np.outer(omega, np.concatenate(
            [g.path.jump_times[lo:hi] for g, lo, hi in spans]))
        cos_modes, sin_modes = np.cos(phase) * modes, np.sin(phase) * modes
        end = 0
        M = bas.mode_count
        for (J, k), bucket in buckets.items():
            G = len(bucket)
            cols = slice(end, end + J * G)
            end = cols.stop

            def blocks(table):
                # (groups, 1, M, J): each group's own contiguous (M, J)
                # block, as a strided operand can change a product's bytes
                return np.ascontiguousarray(
                    table[:, cols].reshape(M, G, J).transpose(1, 0, 2))[:, None]

            # the bucket's rows, group by group; a lone group indexes its
            # rows as a view when they are contiguous, not by a gather
            rows = (bucket[0][0].rows if G == 1
                    else np.concatenate([g.index for g, _, _ in bucket]))
            sig = _coefficient(   # field frozen at t0, shape (rows, J)
                pair.sigma,
                lambda: (u[rows].reshape(G, k, 1, M)
                         @ blocks(modes)).reshape(-1, J),
                r[rows])
            sizes = np.concatenate(
                [g.path.jump_sizes[lo:hi] for g, lo, hi in bucket])
            w = (sig * np.repeat(sizes.reshape(G, J), k, axis=0)
                 ).reshape(G, k, J, 1)
            Mc[rows] += (blocks(cos_modes) @ w).reshape(-1, M)
            Ms[rows] += (blocks(sin_modes) @ w).reshape(-1, M)

    if compensates:
        # compensator of asymmetric finite-activity jumps, left-point rule
        Mc -= m1 * dt * cos_t[n] * comp
        Ms -= m1 * dt * sin_t[n] * comp

    live = [g for g in groups if g.path.surrogate in noise]
    if live:
        # every surrogate-driven row in one stacked projection
        if len(live) == 1:
            rows, dW = live[0].rows, noise[live[0].path.surrogate]
        else:
            rows = np.concatenate([g.index for g in live])
            dW = np.repeat(np.stack([noise[g.path.surrogate] for g in live]),
                           [len(g.index) for g in live], axis=0)
        sig = _coefficient(
            pair.sigma, lambda: bas.synthesize(u[rows, None], "cells")[:, 0],
            r[rows])
        proj = bas.analyze(sig * dW, "cells")
        Mc[rows] += cos_t[n] * proj
        Ms[rows] += sin_t[n] * proj

    new = ModeState(t=float(setup.times[n + 1]), drift_cos=A, drift_sin=B,
                    mart_cos=Mc, mart_sin=Ms, u=u)
    new.u = new.rebuild_u(omega, cos_t[n + 1], sin_t[n + 1])
    return new


# Float64 values one batched solve may hold: its rows times the grid
# points, the size of a step's largest temporaries, plus the coefficient
# histories it keeps. About 2 MB per array, whatever the replica count,
# unless one replica's rows alone exceed it (d=2).
_BLOCK_VALUES = 1 << 18


def row_blocks(setup: SolveSetup, count: int, rows: int = 1,
               kept: int = 0) -> list[range]:
    """Consecutive ranges of ``count`` items (replicas, say), each small
    enough that its rows (``rows`` per item) times the grid points, plus
    ``kept`` coefficient histories per item, stay within _BLOCK_VALUES."""
    points = setup.basis.grid_size ** setup.basis.dimension
    history = (setup.n_steps + 1) * setup.basis.mode_count
    size = max(1, _BLOCK_VALUES // (rows * points + kept * history))
    return [range(lo, min(lo + size, count)) for lo in range(0, count, size)]


def solve_rows(paths: Sequence[NoisePath], setup: SolveSetup,
               radius: np.ndarray | None,
               keep: slice = slice(0)) -> tuple[np.ndarray, np.ndarray]:
    """Solve a batch of rows from zero over the whole grid, one step call
    per grid step: row i is driven by paths[i] and clamped at radius[i]
    (radius None clamps no row: every radius is inf).

    Returns the H_r norms, shape (rows, n_steps + 1), and the coefficient
    histories of the rows that ``keep`` selects, shape
    (kept, n_steps + 1, M); no other row's history is stored.
    """
    groups = row_groups(paths, setup)
    streams = _open_streams(paths)
    rows = len(paths)
    if radius is None:
        radius = np.full(rows, np.inf)
    M = setup.basis.mode_count
    state = ModeState.zero((rows, M))
    norms = np.zeros((rows, setup.n_steps + 1))
    coeffs = np.zeros((len(range(rows)[keep]), setup.n_steps + 1, M))
    for n in range(setup.n_steps):
        state = step(state, groups, n, setup, radius, _draw(streams))
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

    def stop_N(self, N: int, tau: float, times: np.ndarray) -> None:
        """Record tau_N and, when finite, its bracket of grid times."""
        self.tau_by_N[N] = tau
        if math.isfinite(tau):
            n = int(np.searchsorted(times, tau))
            self.tau_brackets[N] = (float(times[max(n - 1, 0)]), tau)


@dataclass
class Trajectory:
    times: np.ndarray       # (n_steps+1,)
    hr_norms: np.ndarray
    coeffs: np.ndarray      # (n_steps+1, M)
    active_N: np.ndarray    # truncation level used on each grid time
    active_K: np.ndarray    # noise truncation level (inf when untruncated)
    stopping: StoppingRecord


def _run(path: NoisePath, setup: SolveSetup, radius: float) -> Trajectory:
    """One row of the batched kernel: path clamped at radius (inf: not at
    all)."""
    norms, coeffs = solve_rows([path], setup, np.array([radius]),
                               keep=slice(None))
    return Trajectory(times=setup.times, hr_norms=norms[0], coeffs=coeffs[0],
                      active_N=np.zeros(len(setup.times), dtype=int),
                      active_K=np.full(len(setup.times), math.inf),
                      stopping=StoppingRecord())


def solve_untruncated(path: NoisePath, setup: SolveSetup) -> Trajectory:
    """Solve with the raw coefficient pair (linear/additive oracles)."""
    return _run(path, setup, math.inf)


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
    traj.stopping.stop_N(N, detect_stop(traj, N), setup.times)
    return traj


def _K_entries(path: NoisePath, times: np.ndarray,
               K_schedule: Sequence[float],
               record: StoppingRecord) -> tuple[list, bool]:
    """The K levels a path enters, as (grid index, K, truncated path) in
    order, and whether the last one's tau^K is finite.

    The first level is entered at grid index 0, and level k+1 at the first
    grid time at or after tau^K of level k; tau^K of each level entered is
    recorded.
    """
    entries, at = [], 0
    for K in K_schedule:
        entries.append((at, K, truncate(path, K)))
        tau = record.tau_by_K[K] = first_large_jump(path, K)
        if math.isinf(tau) or K == K_schedule[-1]:
            break
        at = max(at, int(np.searchsorted(times, tau, side="left")))
        if at == len(times):
            break
    return entries, math.isfinite(tau)


def paste_rows(paths: Sequence[NoisePath], setup: SolveSetup,
               K_schedule: Sequence[float] | None = None,
               N_max: int = 8) -> list[Trajectory]:
    """Paste a batch of paths, one row each, in one forward pass: over N
    alone when K_schedule is None (paste_over_N), otherwise over K and N
    (paste_over_K). Row i's trajectory has the bytes the one-path call
    gives paths[i].

    By the coupling identity level N equals level N+1 bitwise up to and
    including the grid time tau_N, and level K equals every higher K level
    at the grid times before tau^K. So a row's N rises right after the step
    whose norm first exceeds N, its K rises right before the first step
    into a grid time at or after tau^K, and no level is solved twice. Each
    row keeps its own levels, clamp radius and record; the row groups are
    rebuilt only at steps where some row changes K. Past N_max, or past a
    finite tau^K of the last K, a row stays at that level and is
    cap_reached.
    """
    if not paths:
        raise SolverError("a batch needs at least one path")
    if K_schedule is not None:
        # row_groups holds every row to this one measure, and checks every
        # row's path against the setup at grid index 0, where each row
        # enters its first level
        spec = paths[0].spec
        if not spec.symmetric:
            raise SolverError(
                "the heavy-tailed driver requires a symmetric Levy measure")
        check_K_schedule(K_schedule, spec.cutoff)
    if N_max < 1:
        raise SolverError(f"need N_max >= 1, got {N_max}")
    n_steps, rows, times = setup.n_steps, len(paths), setup.times
    coeffs = np.zeros((rows, n_steps + 1, setup.basis.mode_count))
    norms = np.zeros((rows, n_steps + 1))
    active_N = np.zeros((rows, n_steps + 1), dtype=int)
    active_K = np.zeros((rows, n_steps + 1))
    records = [StoppingRecord() for _ in paths]
    entering: dict[int, list] = {}   # grid index -> (row, K, driving path)
    capped_K = []
    for i, (path, record) in enumerate(zip(paths, records)):
        if K_schedule is None:  # over N alone: one level, entered at 0
            entries, capped = [(0, math.inf, path)], False
        else:
            entries, capped = _K_entries(path, times, K_schedule, record)
        for at, K, driver in entries:
            entering.setdefault(at, []).append((i, K, driver))
        capped_K.append(capped)
    drivers = list(paths)
    level_K = np.zeros(rows)
    level_N = np.ones(rows, dtype=int)
    radius = np.full(rows, clamp_radius(1, setup.C_inf))
    streams = _open_streams(paths)
    state = ModeState.zero((rows, setup.basis.mode_count))
    for n in range(n_steps + 1):
        if n in entering:
            for i, K, driver in entering[n]:
                drivers[i], level_K[i] = driver, K
            groups = row_groups(drivers, setup)
        if n:
            state = step(state, groups, n - 1, setup, radius, _draw(streams))
            coeffs[:, n] = state.u
            norms[:, n] = hr_norm_at(state, setup)
        over = norms[:, n] > level_N
        for i in np.flatnonzero(over) if over.any() else ():
            record = records[i]
            while not record.cap_reached and norms[i, n] > level_N[i]:
                N = int(level_N[i])
                record.stop_N(N, float(times[n]), times)
                if N == N_max:
                    record.cap_reached = True
                else:
                    level_N[i] = N + 1
                    radius[i] = clamp_radius(N + 1, setup.C_inf)
        active_N[:, n] = level_N
        active_K[:, n] = level_K
    trajectories = []
    for i, record in enumerate(records):
        record.tau_by_N.setdefault(int(level_N[i]), math.inf)
        record.cap_reached = record.cap_reached or capped_K[i]
        trajectories.append(Trajectory(
            times=times, hr_norms=norms[i], coeffs=coeffs[i],
            active_N=active_N[i], active_K=active_K[i], stopping=record))
    return trajectories


def paste_over_N(path: NoisePath, setup: SolveSetup,
                 N_max: int = 8) -> Trajectory:
    """Global solution by pasting level-N solves on [tau_{N-1}, tau_N).

    Levels run 1, 2, ... on the same path and the same forward pass. If
    tau_{N_max} <= T the trajectory is flagged cap_reached (theory
    guarantees tau_N -> inf, so raising N_max always clears the flag
    eventually). The one-row case of paste_rows.
    """
    return paste_rows([path], setup, None, N_max)[0]


def paste_over_K(path: NoisePath, setup: SolveSetup,
                 K_schedule: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
                 N_max: int = 8) -> Trajectory:
    """Heavy-tailed solution by pasting noise-truncated solves on
    [tau^{K-1}, tau^K), tau^K the first jump exceeding K, each pasted over
    N as in paste_over_N. The one-row case of paste_rows.

    cap_reached is set when the returned trajectory's norm exceeds N_max or
    the last level's tau^K is finite.
    """
    return paste_rows([path], setup, K_schedule, N_max)[0]
