"""Levy measures, Poisson-random-measure sampling, noise truncation, and
stochastic integration of step fields.

Two families of Levy measures are supported: finite-activity atom lists and
the symmetric alpha-stable density (alpha/2) |z|^(-alpha-1) dz. Jumps above
the cutoff eps are simulated exactly; the compensated small-jump part of an
infinite-activity measure is replaced by a cell-wise Gaussian white-noise
surrogate with matched variance sigma_eps^2 = int_{|z|<=eps} z^2 nu(dz) per
unit space-time.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_STABLE_CUTOFF = 0.01


class NoiseError(ValueError):
    pass


def grid_times(T: float, n_steps: int) -> np.ndarray:
    """The one time grid: n T / n_steps, n = 0..n_steps, the last T."""
    return np.linspace(0.0, T, n_steps + 1)


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Declarative Levy measure: either a finite list of atoms (z_i, rho_i)
    or the symmetric alpha-stable density.

    The stable variant has infinite activity and (for alpha < 2) infinite
    second moment; only eps/K-truncated moments exist for it.
    """

    variant: str  # "atoms" | "stable"
    atoms: tuple[tuple[float, float], ...] = ()
    alpha: float | None = None
    cutoff: float = 0.0  # eps: jumps below are surrogate-approximated

    def __post_init__(self):
        if self.variant == "atoms":
            for z, rho in self.atoms:
                if z == 0.0:
                    raise NoiseError("atom at z=0 is not a jump")
                if rho < 0.0:
                    raise NoiseError(f"negative rate {rho}")
            if self.cutoff != 0.0:
                raise NoiseError("atoms are all simulated exactly; an atom "
                                 "measure takes no jump cutoff")
        elif self.variant == "stable":
            if self.alpha is None or not 0.0 < self.alpha < 2.0:
                raise NoiseError(f"stable index must be in (0,2), got {self.alpha}")
            if self.cutoff <= 0.0:
                raise NoiseError("stable variant needs a positive jump cutoff")
        else:
            raise NoiseError(f"unknown variant {self.variant!r}")

    # ---- structural properties ----

    @property
    def symmetric(self) -> bool:
        if self.variant == "stable":
            return True
        pos = sorted((z, r) for z, r in self.atoms if z > 0 and r > 0)
        neg = sorted((-z, r) for z, r in self.atoms if z < 0 and r > 0)
        return pos == neg

    @property
    def has_finite_variance(self) -> bool:
        return self.variant == "atoms"

    # ---- moments ----

    @property
    def m1(self) -> float:
        """First moment int z nu(dz) of the simulated (above-cutoff) jumps."""
        if self.variant == "stable":
            return 0.0
        return float(sum(rho * z for z, rho in self.atoms))

    @property
    def m2(self) -> float:
        return self.m2_truncated(math.inf)

    def m2_truncated(self, K: float) -> float:
        """int_{|z|<=K} z^2 nu(dz)."""
        if self.variant == "stable":
            a = self.alpha
            return float(a / (2.0 - a) * K ** (2.0 - a))
        return float(sum(rho * z * z for z, rho in self.atoms if abs(z) <= K))

    def tail_mass(self, K: float) -> float:
        """nu(|z| > K)."""
        if self.variant == "stable":
            return float(K ** (-self.alpha))
        return float(sum(rho for z, rho in self.atoms if abs(z) > K))

    @property
    def small_jump_variance(self) -> float:
        """sigma_eps^2 = int_{|z|<=eps} z^2 nu(dz), the surrogate intensity
        (zero for atoms, whose cutoff is zero)."""
        return self.m2_truncated(self.cutoff)

    @property
    def jump_rate(self) -> float:
        """Total rate nu(|z| > eps) of exactly-simulated jumps per unit
        space-time."""
        return self.tail_mass(self.cutoff)

    def sample_jump_sizes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n sizes from nu restricted to {|z| > cutoff}, normalized."""
        if n == 0:
            return np.empty(0)
        if self.variant == "stable":
            # P(|Z| > z) = (z/eps)^(-alpha) above the cutoff
            mags = self.cutoff * rng.uniform(size=n) ** (-1.0 / self.alpha)
            signs = rng.choice([-1.0, 1.0], size=n)
            return mags * signs
        zs = np.array([z for z, _ in self.atoms])
        rates = np.array([r for _, r in self.atoms])
        return rng.choice(zs, size=n, p=rates / rates.sum())


@dataclass(frozen=True, eq=False)
class GaussianSurrogate:
    """The cell-wise Gaussian surrogate of one path, drawn on demand.

    Its values are std * standard_normal((n_steps, n_cells)) drawn from the
    path's generator right after the jump draws; the increments of the
    steps from live_steps on are zero (see zero_after). Only the generator
    state is held, so no whole-path array exists unless full() builds it.
    Equality and hashing are by identity: a solve keys the one row stream
    it opens per surrogate on the object.
    """

    state: dict               # bit-generator state after the jump draws
    std: float                # sqrt(sigma_eps^2 * dt * cell_volume)
    shape: tuple[int, int]    # (n_steps, n_cells)
    live_steps: int

    @property
    def size(self) -> int:
        """Number of values drawn for the whole path."""
        return self.shape[0] * self.shape[1]

    def rows(self) -> Iterator[np.ndarray]:
        """The increments of steps 0 .. live_steps - 1, one (n_cells,) row
        per step, each drawn when it is asked for."""
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = self.state
        for _ in range(self.live_steps):
            yield self.std * rng.standard_normal(self.shape[1])

    def full(self) -> np.ndarray:
        """The whole (n_steps, n_cells) array of rows(), zero after them."""
        out = np.zeros(self.shape)
        for n, row in enumerate(self.rows()):
            out[n] = row
        return out


@dataclass(frozen=True)
class NoisePath:
    """One realized space-time noise on [0,T] x unit box.

    Jump events are sorted by time. The Gaussian surrogate of increments
    with per-entry variance sigma_eps^2 * dt * cell_volume on the
    (n_steps, n_cells) step-cell partition is a GaussianSurrogate, or None
    when sigma_eps = 0.
    """

    spec: LevyMeasureSpec
    T: float
    n_steps: int
    dimension: int
    cells_per_dim: int
    jump_times: np.ndarray      # (J,)
    jump_positions: np.ndarray  # (J, d)
    jump_sizes: np.ndarray      # (J,)
    surrogate: GaussianSurrogate | None
    seed: int

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def n_cells(self) -> int:
        return self.cells_per_dim**self.dimension

    @functools.cached_property
    def step_edges(self) -> np.ndarray:
        """The grid times (grid_times), step n being the half-open
        [step_edges[n], step_edges[n+1])."""
        return grid_times(self.T, self.n_steps)

    def jump_bounds(self) -> np.ndarray:
        """The one step rule for jumps: step n holds jumps bounds[n] ..
        bounds[n+1] - 1, bounds[n] the first at or after step_edges[n]."""
        return np.searchsorted(self.jump_times, self.step_edges)

    def cell_index(self, positions: np.ndarray) -> np.ndarray:
        """Flattened cell index of each position, shape (J,)."""
        idx = np.minimum((positions * self.cells_per_dim).astype(int),
                         self.cells_per_dim - 1)
        if self.dimension == 1:
            return idx[:, 0]
        return idx[:, 0] * self.cells_per_dim + idx[:, 1]

    def keep_jumps(self, keep: np.ndarray, **changes) -> "NoisePath":
        """This path with only the jumps where ``keep`` is True, and
        ``changes`` to its other fields."""
        return replace(self, jump_times=self.jump_times[keep],
                       jump_positions=self.jump_positions[keep],
                       jump_sizes=self.jump_sizes[keep], **changes)


def sample_path(spec: LevyMeasureSpec, T: float, n_steps: int, seed: int,
                cells_per_dim: int = 256, dimension: int = 1,
                with_surrogate: bool = True) -> NoisePath:
    """Sample a noise path: Poisson jump events plus Gaussian surrogates.

    Fully reproducible from the seed; the draw order is fixed (count, times,
    positions, sizes, surrogate).
    """
    if T <= 0:
        raise NoiseError(f"horizon must be positive, got {T}")
    rng = np.random.default_rng(seed)
    rate = spec.jump_rate  # |D| = 1
    count = rng.poisson(rate * T) if rate > 0 else 0
    times = np.sort(rng.uniform(0.0, T, size=count))
    positions = rng.uniform(0.0, 1.0, size=(count, dimension))
    # boundary draws have measure zero but would break the Dirichlet pairing
    while positions.size and (np.any(positions <= 0.0) or np.any(positions >= 1.0)):
        bad = np.any((positions <= 0.0) | (positions >= 1.0), axis=1)
        positions[bad] = rng.uniform(0.0, 1.0, size=(bad.sum(), dimension))
    sizes = spec.sample_jump_sizes(rng, count)

    surrogate = None
    sig2 = spec.small_jump_variance
    if with_surrogate and sig2 > 0.0:
        dt = T / n_steps
        cell_vol = (1.0 / cells_per_dim) ** dimension
        # the surrogate is drawn last, so the generator state here is all
        # it needs to draw its rows later
        surrogate = GaussianSurrogate(
            state=rng.bit_generator.state,
            std=math.sqrt(sig2 * dt * cell_vol),
            shape=(n_steps, cells_per_dim**dimension), live_steps=n_steps)

    return NoisePath(spec=spec, T=T, n_steps=n_steps, dimension=dimension,
                     cells_per_dim=cells_per_dim, jump_times=times,
                     jump_positions=positions, jump_sizes=sizes,
                     surrogate=surrogate, seed=seed)


def truncate(path: NoisePath, K: float) -> NoisePath:
    """Drop jumps with |z| > K; Gaussian surrogates are shared unchanged.

    No drift compensation is added: the truncated driver is only defined for
    symmetric measures, whose large-jump compensator vanishes.
    """
    if math.isinf(K):
        return path
    if K < path.spec.cutoff:
        raise NoiseError(
            f"truncation level {K} below the simulation cutoff {path.spec.cutoff}"
        )
    keep = np.abs(path.jump_sizes) <= K
    return path if keep.all() else path.keep_jumps(keep)


def first_large_jump(path: NoisePath, K: float) -> float:
    """First time a jump exceeds K in magnitude, or +inf."""
    big = np.abs(path.jump_sizes) > K
    if not big.any():
        return math.inf
    return float(path.jump_times[big][0])  # times are sorted


def zero_after(path: NoisePath, t_cut: float) -> NoisePath:
    """Remove all noise strictly after t_cut: jumps with t > t_cut and the
    surrogate of every step starting at or after t_cut."""
    keep = path.jump_times <= t_cut
    surrogate = path.surrogate
    if surrogate is not None:
        n_first = int(np.searchsorted(path.step_edges, t_cut, side="left"))
        surrogate = replace(surrogate,
                            live_steps=min(surrogate.live_steps, n_first))
    return path.keep_jumps(keep, surrogate=surrogate)


def integrate_step_field(H: np.ndarray,
                         path: NoisePath) -> float | np.ndarray:
    """Ito integral of a predictable step field against the (compensated)
    noise: jump sums minus the compensator plus the surrogate contribution.

    H has shape (..., n_steps, n_cells), constant on each (step, cell); each
    leading index is one integrand, integrated on its own. The result has
    shape (...), a float for a 2-D H. A jump enters in the step that
    NoisePath.jump_bounds assigns it; one at or after T enters nowhere.
    """
    H = np.asarray(H, dtype=float)
    if H.shape[-2:] != (path.n_steps, path.n_cells):
        raise NoiseError(
            f"step field shape {H.shape} does not match partition "
            f"(..., {path.n_steps}, {path.n_cells})"
        )
    total = np.zeros(H.shape[:-2])
    bounds = path.jump_bounds()
    if bounds[-1] > bounds[0]:
        jumps = slice(bounds[0], bounds[-1])
        steps = np.repeat(np.arange(path.n_steps), np.diff(bounds))
        cells = path.cell_index(path.jump_positions[jumps])
        # contiguous jump values: np.sum then adds each integrand's terms
        # in the order of the 1-D sum
        at_jumps = np.ascontiguousarray(H[..., steps, cells])
        total += np.sum(at_jumps * path.jump_sizes[jumps], axis=-1)
    # compensator of the exactly-simulated jumps (zero for symmetric specs)
    m1 = path.spec.m1
    if m1 != 0.0:
        cell_vol = (1.0 / path.cells_per_dim) ** path.dimension
        total -= m1 * path.dt * cell_vol * np.sum(H, axis=(-2, -1))
    if path.surrogate is not None:
        total += np.sum(H * path.surrogate.full(), axis=(-2, -1))
    return float(total) if H.ndim == 2 else total


# ---- persistence ----

def export_path(path: NoisePath, csv_path, json_path) -> None:
    """Write jump events as CSV and the path header as JSON."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i}" for i in range(path.dimension)]
                        + ["z"])
        for t, x, z in zip(path.jump_times, path.jump_positions,
                           path.jump_sizes):
            writer.writerow([repr(t)] + [repr(xi) for xi in x] + [repr(z)])
    header = {
        "spec": spec_to_dict(path.spec),
        "T": path.T,
        "n_steps": path.n_steps,
        "dimension": path.dimension,
        "cells_per_dim": path.cells_per_dim,
        "seed": path.seed,
        "cutoff": path.spec.cutoff,
        "small_jump_variance": path.spec.small_jump_variance,
        "jump_count": int(len(path.jump_times)),
    }
    with open(json_path, "w") as fh:
        json.dump(header, fh, indent=2)


def spec_to_dict(spec: LevyMeasureSpec) -> dict:
    d = {"variant": spec.variant}
    if spec.variant == "atoms":
        d["atoms"] = [list(a) for a in spec.atoms]
    else:
        d["alpha"] = spec.alpha
        d["cutoff"] = spec.cutoff
    return d


def spec_from_dict(d: dict) -> LevyMeasureSpec:
    if d.get("variant") == "atoms":
        return LevyMeasureSpec(variant="atoms",
                               atoms=tuple(tuple(a) for a in d["atoms"]))
    if d.get("variant") == "stable":
        return LevyMeasureSpec(variant="stable", alpha=d["alpha"],
                               cutoff=d.get("cutoff", DEFAULT_STABLE_CUTOFF))
    raise NoiseError(f"unknown noise variant {d.get('variant')!r}")
