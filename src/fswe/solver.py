"""Mode-wise time stepping of the mild solution, coefficient truncation,
stopping-time detection, and the two pasting constructions.

Each mode k keeps two Duhamel sums, C_k and S_k: the integrals of
cos(omega_k s) and sin(omega_k s) against its forcing (b - m1 sigma) ds and
its martingale sigma dN (jumps and Gaussian surrogate), with

    u_k(t) = omega_k^{-1} [ sin(omega_k t) C_k - cos(omega_k t) S_k ],

omega_k = lambda_k^{gamma/2}. Expanding sin(omega (t-s)) turns the Duhamel
convolution into these running sums, so a step costs O(M) with no history.
The forcing and sigma are evaluated at the step start (left-point rule),
the discrete counterpart of predictability.
"""

from __future__ import annotations

import functools
import itertools
import math
import queue
import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .basis import EigenBasis, embedding_constant
from .noise import (GaussianSurrogate, LevyMeasureSpec, NoisePath,
                    first_large_jump, grid_times, surrogate_tiles,
                    tile_height, truncate)


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


def _constant(f) -> float | None:
    """The value of a coefficient that ignores its argument (_zero, _one)
    as a Python float; None for one that reads it."""
    return _CONSTANTS[f] if f is _zero or f is _one else None


def _coefficient(f, field: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """f at the field clamped to [-radius, radius]; radius inf leaves every
    float unchanged, inf and NaN included. The field is clamped in place,
    so no copy of it is held while f runs, and clamping it again at the
    same radius changes nothing. Only a coefficient that reads its
    argument comes here: one that ignores it (_constant) enters by its
    value, with no field made for it (_forcing, _add_jumps)."""
    # np.clip's values, in half its time for per-row radii
    np.maximum(field, -radius, out=field)
    return f(np.minimum(field, radius, out=field))


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

    @functools.cached_property
    def unit_projection(self) -> np.ndarray:
        """analyze(quad_weights), the projection of the field 1, shape (M,)
        and read-only, computed once per setup: a forcing that ignores the
        state is its value times these bytes (_forcing)."""
        projection = self.basis.analyze(self.basis.quad_weights)
        projection.flags.writeable = False
        return projection

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
    """The two Duhamel sums and the current coefficients at one grid time.

    The arrays have shape (M,) for one field, or (rows, M) for the batch of
    rows that step advances together.
    """

    t: float
    cos_sum: np.ndarray     # C_k
    sin_sum: np.ndarray     # S_k
    u: np.ndarray           # current mode coefficients

    @classmethod
    def zero(cls, shape: int | tuple[int, int]) -> "ModeState":
        """The zero state at t=0; shape is M or (rows, M)."""
        return cls(t=0.0, cos_sum=np.zeros(shape), sin_sum=np.zeros(shape),
                   u=np.zeros(shape))

    def rebuild_u(self, omega: np.ndarray, cos_t: np.ndarray | None = None,
                  sin_t: np.ndarray | None = None) -> np.ndarray:
        """Coefficients implied by the two sums at time t.

        cos_t and sin_t are cos(omega t) and sin(omega t); they are computed
        here when the caller does not pass them."""
        if cos_t is None:
            cos_t, sin_t = np.cos(omega * self.t), np.sin(omega * self.t)
        return (sin_t * self.cos_sum - cos_t * self.sin_sum) / omega


def hr_norm_at(state: ModeState, setup: SolveSetup):
    """H_r norm of the coefficients: a scalar for one field, shape (rows,)
    for a batch."""
    return np.sqrt(np.sum(setup.lam_r * state.u**2, axis=-1))


def _check_batch(paths: Sequence[NoisePath], setup: SolveSetup) -> None:
    """Raise SolverError unless the batch has a path and every path matches
    the setup and the first path's Levy measure, with its jumps in the
    closed unit box: step evaluates the modes at them unchecked."""
    if not paths:
        raise SolverError("a batch needs at least one path")
    b = setup.basis
    for path in {id(p): p for p in paths}.values():
        if path.dimension != b.dimension:
            raise SolverError("path dimension does not match the basis")
        if path.n_steps != setup.n_steps or path.T != setup.T:
            raise SolverError(
                "path partition does not match the solver partition")
        if (path.surrogate is not None
                and path.cells_per_dim != b.cells_per_dim):
            raise SolverError(
                "path surrogate cells do not match the quadrature grid")
        if path.spec != paths[0].spec:
            raise SolverError("the rows of a batch must share one Levy measure")
        positions = path.jump_positions
        if np.any(positions < 0.0) or np.any(positions > 1.0):
            raise SolverError("jump positions must lie in the closed unit box")


@dataclass(frozen=True)
class JumpTable:
    """The jumps of every row of a batch, one line each, ordered by step,
    then row, then time: step n holds lines edges[n] .. edges[n + 1] - 1
    (NoisePath.jump_bounds), line j belongs to row rows[j], and first[j]
    marks the first line of a row in a step. Rows driven by one path each
    hold a copy of its jumps; a jump in no step has no line."""

    times: np.ndarray       # (lines,)
    positions: np.ndarray   # (lines, d)
    sizes: np.ndarray       # (lines,)
    rows: np.ndarray        # (lines,)
    first: np.ndarray       # (lines,) bool
    edges: list[int]        # n_steps + 1 line indices
    m1: float               # the batch's compensator rate (LevyMeasureSpec.m1)


def jump_table(paths: Sequence[NoisePath], setup: SolveSetup) -> JumpTable:
    """The jump table of the batch whose row i paths[i] drives; see
    _check_batch for the paths a batch takes."""
    _check_batch(paths, setup)
    slot = {}   # each distinct path's index among them
    of = np.array([slot.setdefault(id(p), len(slot)) for p in paths])
    distinct = list({id(p): p for p in paths}.values())
    bounds = np.array([p.jump_bounds() for p in distinct])
    # the distinct paths' stepped jumps, path by path, and their steps
    step = np.repeat(np.tile(np.arange(setup.n_steps), len(distinct)),
                     np.diff(bounds, axis=1).ravel())
    counts = bounds[:, -1] - bounds[:, 0]
    # each row's copy of its path's jumps, row by row, then sorted by step:
    # a stable sort keeps a step's lines in row order, a row's in time order
    per_row = counts[of]
    line = np.arange(per_row.sum()) + np.repeat(
        (np.cumsum(counts) - counts)[of] - (np.cumsum(per_row) - per_row),
        per_row)
    order = np.argsort(step[line], kind="stable")
    line, rows = line[order], np.repeat(np.arange(len(paths)), per_row)[order]
    step = step[line]
    first = (np.diff(rows, prepend=-1) != 0) | (np.diff(step, prepend=-1) != 0)

    def column(name):
        return np.concatenate([getattr(p, name)[b[0]:b[-1]]
                               for p, b in zip(distinct, bounds)])[line]

    return JumpTable(
        times=column("jump_times"), positions=column("jump_positions"),
        sizes=column("jump_sizes"), rows=rows, first=first,
        edges=np.searchsorted(step, np.arange(setup.n_steps + 1)).tolist(),
        m1=paths[0].spec.m1)


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


def step(state: ModeState, table: JumpTable, n: int,
         setup: SolveSetup, radius: np.ndarray,
         surrogate: tuple | None) -> ModeState:
    """Advance every row, state arrays of shape (rows, M), from grid time
    t_n to t_n+1 (setup.times) with left-point evaluation.

    Row i is driven by its jumps of step n in ``table`` and clamps the
    argument of b and sigma at +-radius[i] (inf: not at all).
    ``surrogate`` is None or (rows, values), the rows a surrogate drives in
    step n and one value row each (_surrogate_rows). Three increments go
    into the two sums, in this order: the forcing b - m1 sigma (_forcing),
    the jumps (_add_jumps) and the surrogate. Every product is a stack of
    one-row products or a product of one surrogate's tile of fixed height,
    and _add_jumps sums each row's own jumps, so a row gets the same bytes
    in any batch, alone included.
    """
    bas = setup.basis
    cos_t, sin_t = setup.phases
    u = state.u
    C, S = state.cos_sum.copy(), state.sin_sum.copy()
    forcing = _forcing(u, radius, table.m1, setup)
    if forcing is not None:
        C += setup.dt * cos_t[n] * forcing
        S += setup.dt * sin_t[n] * forcing

    sigma = _constant(setup.pair.sigma)
    if sigma != 0.0:
        # sigma = 0: its jumps would add +-0, which leaves the +0 of C and
        # S in a solve as it is
        _add_jumps(C, S, u, radius, table, n, setup, sigma)

    if surrogate is not None:
        # every surrogate-driven row in one stacked projection, unless
        # _surrogate_rows projected the increments already
        rows, proj = surrogate
        if sigma is None:   # proj holds the increments dW
            grid = bas.synthesize(u[rows, None], "cells")[:, 0]
            sig = _coefficient(setup.pair.sigma, grid, radius[rows, None])
            proj = bas.analyze(sig * proj, "cells")
        C[rows] += cos_t[n] * proj
        S[rows] += sin_t[n] * proj

    new = ModeState(t=float(setup.times[n + 1]), cos_sum=C, sin_sum=S, u=u)
    new.u = new.rebuild_u(setup.omega, cos_t[n + 1], sin_t[n + 1])
    return new


def _forcing(u: np.ndarray, radius: np.ndarray, m1: float,
             setup: SolveSetup) -> np.ndarray | None:
    """The projected left-point forcing analyze(quad_weights (b - m1 sigma))
    of every row, clamped at +-radius; None when it is 0. A coefficient
    whose growth constant is 0 adds nothing, nor does sigma when m1 is 0.

    When b and sigma both ignore the state (_constant) the forcing is
    (b0 - m1 sigma0) setup.unit_projection, shape (M,). Otherwise both are
    evaluated on one clamped grid field, made on the rows _field_rows picks
    (the zero rows share one); a zero row has norm 0, so no tau_N rests on
    the sharing.
    """
    pair = setup.pair
    b = pair.b if pair.D_b != 0.0 else _zero
    sigma = pair.sigma if m1 != 0.0 and pair.D_sigma != 0.0 else _zero
    b0, sigma0 = _constant(b), _constant(sigma)
    if b0 is not None and sigma0 is not None:
        value = b0 - m1 * sigma0
        return value * setup.unit_projection if value != 0.0 else None
    bas = setup.basis
    rows, item = _field_rows(u, radius)
    grid = bas.synthesize(u[rows, None])[:, 0]
    r = radius[rows, None]
    # b's _coefficient clamps the field in place; sigma's clamps it again
    # at the same radius, which changes nothing
    f = _coefficient(b, grid, r) if b0 is None else b0
    if sigma is not _zero:
        f = f - m1 * (_coefficient(sigma, grid, r) if sigma0 is None
                      else sigma0)
    return bas.analyze(bas.quad_weights * f)[item]


def _add_jumps(C: np.ndarray, S: np.ndarray, u: np.ndarray,
               radius: np.ndarray, table: JumpTable, n: int,
               setup: SolveSetup, sigma: float | None) -> None:
    """Add every row's jumps of step n to C and S in place: line j, a
    jump of row i, gives (cos(omega t_j) e(x_j)) w_j and the same with sin,
    w_j = sigma z_j for the constant ``sigma`` and otherwise
    sigma(u_i(x_j)) z_j, the field u_i(x_j) = sum_k u_ik e_k(x_j) frozen at
    t_n and clamped at +-radius[i]. np.add.reduceat sums a row's lines in
    an order set by their count alone, so they depend on its jumps only.
    """
    lines = slice(table.edges[n], table.edges[n + 1])
    if lines.start == lines.stop:
        return
    of = table.rows[lines]   # each line's row
    starts = np.flatnonzero(table.first[lines])
    rows = of[starts]
    # positions checked once per batch by _check_batch; one row per line
    modes = setup.basis.modes_at(table.positions[lines]).T
    phase = np.outer(table.times[lines], setup.omega)
    if sigma is None:   # sigma at each line's field
        sigma = _coefficient(setup.pair.sigma, np.sum(u[of] * modes, axis=1),
                             radius[of])
    w = (sigma * table.sizes[lines])[:, None]
    for acc, trig in ((C, np.cos), (S, np.sin)):
        acc[rows] += np.add.reduceat(trig(phase) * modes * w, starts, axis=0)


# Float64 values one batched solve may hold: its rows times the grid
# points, the size of a step's largest temporaries, plus the coefficient
# histories it keeps and the raw surrogate feed. About 2 MB per array,
# whatever the replica count, unless one replica's rows alone exceed it
# (d=2).
_BLOCK_VALUES = 1 << 18


def row_blocks(setup: SolveSetup, count: int, rows: int = 1,
               kept: int = 0, spec: LevyMeasureSpec | None = None,
               surrogates: int = 1) -> list[range]:
    """Consecutive ranges of ``count`` items (replicas, say), each small
    enough that its rows (``rows`` per item) times the grid points, plus
    ``kept`` coefficient histories and the raw tiles of ``surrogates``
    surrogates per item (_surrogate_rows: sigma reads the state, noise
    ``spec`` has a surrogate), stay within _BLOCK_VALUES."""
    bas = setup.basis
    points = bas.grid_size ** bas.dimension
    history = (setup.n_steps + 1) * bas.mode_count
    feed = 0
    if (spec is not None and spec.small_jump_variance > 0.0
            and _constant(setup.pair.sigma) is None):
        feed = surrogates * tile_height(bas.cell_count) * bas.cell_count
    size = max(1, _BLOCK_VALUES // (rows * points + kept * history + feed))
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
    rows = len(paths)
    if radius is None:
        radius = np.full(rows, np.inf)
    norms = np.zeros((rows, setup.n_steps + 1))
    coeffs = np.zeros((len(range(rows)[keep]), setup.n_steps + 1,
                       setup.basis.mode_count))
    for n, state in enumerate(_forward(paths, setup, radius), 1):
        norms[:, n] = hr_norm_at(state, setup)
        coeffs[:, n] = state.u[keep]
    return norms, coeffs


def _forward(paths: Sequence[NoisePath], setup: SolveSetup,
             radius: np.ndarray) -> Iterator[ModeState]:
    """Solve a batch from zero, yielding the state after each grid step:
    the one forward loop of solve_rows and paste_rows. Row i is driven by
    paths[i] and clamped at radius[i]; radius is read at every step, so
    the caller may raise a row's radius between yields. The batch's jump
    table is built once, before the first step. Finished, failed or
    closed, it closes its _surrogate_rows, which stops their helper thread.
    """
    table = jump_table(paths, setup)
    state = ModeState.zero((len(paths), setup.basis.mode_count))
    feed = _surrogate_rows(paths, setup)
    try:
        for n, surrogate in enumerate(feed):
            state = step(state, table, n, setup, radius, surrogate)
            yield state
    finally:
        feed.close()


def _surrogate_rows(paths: Sequence[NoisePath],
                    setup: SolveSetup) -> Iterator[tuple | None]:
    """step's surrogate argument at each grid step: (rows, values), the
    rows whose surrogate is live, in row order, and one value row each;
    None when no surrogate is live. The value rows are views of one feed
    that the next window's draws overwrite: each stays valid until the
    next item is taken.

    Each distinct surrogate object is drawn once by noise.surrogate_tiles,
    whatever rows it drives: truncate and _K_driver share a path's
    surrogate, so every K level of a path reads one stream. Each tile
    fills the surrogate's slot of one (surrogates, height, width) feed,
    a window of tile_height steps at a time (_window_fills).
    When sigma reads the state, the slot is the tile itself, the
    increments dW, one (n_cells,) row per step. When it does not
    (_constant), the slot is sigma times the tile's projection, one
    basis.analyze_block product with (M,) rows; the tile height follows
    from the cell count alone, so a row's bytes do not depend on the
    batch. sigma = 0 draws nothing and yields None at every step.

    The streams split into two fixed halves: this thread draws (and
    projects) the first ceil(s/2) of the s surrogates, and one helper
    thread the rest, at the same time; both finish a window before its
    steps are yielded. Each stream is drawn by one thread in step order,
    so every value is the one a lone draw gives. With one surrogate the
    second half is empty and no helper is started; otherwise the helper
    starts at the first window and is stopped and joined when this
    generator finishes, fails or is closed.
    """
    surrogates = list(dict.fromkeys(
        p.surrogate for p in paths if p.surrogate is not None))
    sigma = _constant(setup.pair.sigma)
    last = 0
    if surrogates and sigma != 0.0:
        slot_of = {s: i for i, s in enumerate(surrogates)}
        slots = np.array([slot_of.get(p.surrogate, -1) for p in paths])
        lives = np.array([s.live_steps for s in surrogates])
        ends, last = set(lives.tolist()), int(lives.max())
        basis = setup.basis
        height = tile_height(basis.cell_count)
        feed = np.empty((len(surrogates), height, basis.cell_count
                         if sigma is None else basis.mode_count))
        half = -(-len(surrogates) // 2)
        mine = _window_fills(surrogates[:half], feed[:half], basis, sigma)
        theirs = (_window_fills(surrogates[half:], feed[half:], basis, sigma)
                  if half < len(surrogates) else None)
        my_last, their_last = lives[:half].max(), lives[half:].max(initial=0)
        windows, done, helper = queue.SimpleQueue(), queue.SimpleQueue(), None
        try:
            for lo in range(0, last, height):
                helped = their_last > lo
                if helped:
                    if helper is None:
                        helper = threading.Thread(
                            target=_helper_loop, args=(windows, done),
                            name="fswe-surrogate-draws", daemon=True)
                        helper.start()
                    windows.put(theirs)
                try:
                    if my_last > lo:
                        next(mine)
                finally:
                    # the helper's window is done before any step runs
                    error = done.get() if helped else None
                if error is not None:
                    raise error
                for n in range(lo, min(lo + height, last)):
                    if n == 0 or n in ends:   # the live set changes only here
                        # slot -1, a row with no surrogate, reads a live
                        # flag it discards
                        rows = np.flatnonzero((slots >= 0)
                                              & (lives[slots] > n))
                        which = slots[rows]
                        gather = which.tolist() != list(
                            range(len(surrogates)))
                        if rows[-1] - rows[0] + 1 == len(rows):
                            rows = slice(rows[0], rows[-1] + 1)
                    values = feed[:, n - lo]
                    yield rows, values[which] if gather else values
        finally:
            if helper is not None:
                windows.put(None)
                helper.join()
    for _ in range(last, setup.n_steps):
        yield None


def _window_fills(surrogates: Sequence[GaussianSurrogate], feed: np.ndarray,
                  basis: EigenBasis, sigma: float | None) -> Iterator[None]:
    """Fill feed[i] with surrogates[i]'s tile of each window of
    tile_height steps, one window per next(), for the windows up to the
    last live step: the raw tile drawn in place when sigma is None,
    otherwise sigma times its projection, drawn into one scratch tile.
    Only the surrogates live at a window's first step are drawn, so no
    draw of the next window's happens."""
    raw = sigma is None
    tiles = surrogate_tiles(surrogates, feed if raw else None)
    lives = np.array([s.live_steps for s in surrogates])
    for lo in range(0, int(lives.max()), feed.shape[1]):
        for _, i, tile in itertools.islice(tiles,
                                           np.count_nonzero(lives > lo)):
            if not raw:
                basis.analyze_block(tile, "cells", out=feed[i])
                if sigma != 1.0:
                    feed[i] *= sigma
        yield


def _helper_loop(windows: queue.SimpleQueue, done: queue.SimpleQueue) -> None:
    """The helper thread of one _surrogate_rows: advance each window
    filler it is handed by one window and put None, or the error raised,
    on done; return at None."""
    for fills in iter(windows.get, None):
        try:
            next(fills)
        except BaseException as exc:   # re-raised on the solver thread
            done.put(exc)
        else:
            done.put(None)


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


def _K_driver(path: NoisePath, times: np.ndarray,
              K_schedule: Sequence[float],
              record: StoppingRecord) -> tuple[NoisePath, np.ndarray, bool]:
    """The path that drives one row pasted over K, the row's K level at
    each grid index, and whether the last level's tau^K is finite.

    The first level is entered at grid index 0, and level k+1 at the first
    grid time at or after tau^K of level k; tau^K of each level entered is
    recorded. The step into grid index n runs at the level of index n, so
    the driver keeps a jump of step s when |z| <= the level at index s + 1:
    each step holds the jumps truncate(path, K) gives it at its level. The
    driver shares the path's surrogate.
    """
    levels, at = np.empty(len(times)), 0
    for K in K_schedule:
        levels[at:] = K
        tau = record.tau_by_K[K] = first_large_jump(path, K)
        if math.isinf(tau) or K == K_schedule[-1]:
            break
        at = max(at, int(np.searchsorted(times, tau, side="left")))
        if at == len(times):
            break
    driver = truncate(path, K)
    bounds = driver.jump_bounds()
    stepped = slice(bounds[0], bounds[-1])   # a jump in no step is dropped
    keep = np.zeros(len(driver.jump_sizes), dtype=bool)
    keep[stepped] = (np.abs(driver.jump_sizes[stepped])
                     <= np.repeat(levels[1:], np.diff(bounds)))
    if not keep.all():
        driver = driver.keep_jumps(keep)
    return driver, levels, math.isfinite(tau)


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
    row keeps its own levels, clamp radius and record. Over K, each row's
    driver is built once, before the pass (_K_driver), so the rows go
    through _forward with their drivers fixed and only their radii raised.
    Past N_max, or past a finite tau^K of the last K, a row stays at that
    level and is cap_reached.
    """
    # every path is checked against the setup before a driver is built
    _check_batch(paths, setup)
    if K_schedule is not None:
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
    active_N = np.ones((rows, n_steps + 1), dtype=int)
    active_K = np.full((rows, n_steps + 1), math.inf)  # over N alone
    records = [StoppingRecord() for _ in paths]
    drivers, capped_K = list(paths), [False] * rows
    if K_schedule is not None:
        for i, path in enumerate(paths):
            drivers[i], active_K[i], capped_K[i] = _K_driver(
                path, times, K_schedule, records[i])
    level_N = np.ones(rows, dtype=int)
    radius = np.full(rows, clamp_radius(1, setup.C_inf))
    for n, state in enumerate(_forward(drivers, setup, radius), 1):
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
