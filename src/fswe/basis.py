"""Dirichlet eigenbasis of the Laplacian on the unit box, eigenvalue power
sums, and the L-infinity embedding constant.

Only the unit interval (d=1) and unit square (d=2) are supported: the sine
eigenpairs are explicit there, so no eigensolver is needed. Eigenfunctions
are e_k(x) = sqrt(2) sin(k pi x) in 1d and products of two such factors in 2d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_MIN_GRID = 257

# Modes per product of EigenBasis.analyze_block in d=1. On a 16 x 512 tile
# at M=128, two 64-mode products took 58 us against 67 us for one, and
# touched about 0.3 MB less of OpenBLAS's buffers (2 threads).
PANEL_MODES = 64


class BasisError(ValueError):
    pass


@dataclass(frozen=True)
class EigenBasis:
    """Sorted Dirichlet eigenpairs of -Laplace on the unit box.

    eigenvalues are non-decreasing; ties in 2d are broken lexicographically
    on the generating multi-indices so that mode ordering is deterministic.
    """

    dimension: int
    eigenvalues: np.ndarray          # (M,)
    multi_indices: np.ndarray        # (M, dimension), int
    grid_size: int                   # quadrature nodes per dimension

    @property
    def mode_count(self) -> int:
        return len(self.eigenvalues)

    # ---- quadrature grid (composite trapezoid on a closed uniform grid) ----

    @property
    def grid_1d(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_size)

    @property
    def grid_points(self) -> np.ndarray:
        """All quadrature nodes, shape (n_nodes, d)."""
        return self._box_points(self.grid_1d)

    def _box_points(self, x: np.ndarray) -> np.ndarray:
        """The points with coordinates x on every axis, shape (len(x)**d, d)."""
        if self.dimension == 1:
            return x[:, None]
        xx, yy = np.meshgrid(x, x, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    @property
    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights matching grid_points, shape (n_nodes,).

        Built once per basis and returned read-only."""
        if "weights" not in self._grid_cache:
            h = 1.0 / self.cells_per_dim
            w = np.full(self.grid_size, h)
            w[0] = w[-1] = h / 2.0
            if self.dimension == 2:
                w = np.outer(w, w).ravel()
            w.flags.writeable = False
            self._grid_cache["weights"] = w
        return self._grid_cache["weights"]

    def evaluate_modes(self, points: np.ndarray) -> np.ndarray:
        """Values e_k(x) for all modes, shape (M, n_points).

        points: (n_points, d) array inside the closed unit box. In d=1 this
        is sine_table itself, in d=2 the product of its rows k1 and k2.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise BasisError(
                f"points have dimension {pts.shape[1]}, basis has {self.dimension}"
            )
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise BasisError("points must lie in the closed unit box")
        return self.modes_at(pts)

    def modes_at(self, points: np.ndarray) -> np.ndarray:
        """evaluate_modes without its checks: points is a float array of
        shape (n_points, d) whose rows the caller has checked to lie in
        the closed unit box (the solver checks a batch's jumps once)."""
        if self.dimension == 1:
            return sine_table(self.kmax, points[:, 0])
        i1, i2 = self._pair_index
        return (sine_table(self.kmax, points[:, 0])[i1]
                * sine_table(self.kmax, points[:, 1])[i2])

    # quadrature weights and the 1-D sine tables on nodes and cell centres
    _grid_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def kmax(self) -> int:
        """Largest 1-D wave number among the modes."""
        return int(self.multi_indices.max())

    @property
    def _pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(k1-1, k2-1) per mode: its entry of a (kmax, kmax) matrix (d=2)."""
        return self.multi_indices[:, 0] - 1, self.multi_indices[:, 1] - 1

    def _sine_table(self, where: str) -> np.ndarray:
        """(kmax, n1) values sqrt(2) sin(k pi x) on the 1-D grid nodes
        (where="grid") or cell centres (where="cells"); in d=1 this is the
        full mode table."""
        if where not in self._grid_cache:
            if where == "grid":
                x = self.grid_1d
            elif where == "cells":
                x = self.cell_centers_1d
            else:
                raise BasisError(f"unknown location {where!r}")
            table = sine_table(self.kmax, x)
            table.flags.writeable = False
            self._grid_cache[where] = table
        return self._grid_cache[where]

    def synthesize(self, u: np.ndarray, where: str = "grid") -> np.ndarray:
        """Field values sum_k u_k e_k at every node or cell centre, in the
        flattened order of grid_points / cell_centers.

        u has shape (..., M); the result has shape (..., n_points). In d=1
        this is the table product u @ S with matmul broadcasting: a 2-D u
        is one matrix product, whose row bytes depend on the other rows,
        while a stack of 1-row matrices, shape (rows, 1, M), gives each row
        the bytes it has alone. In d=2 the sum runs as S.T @ C @ S over the
        (kmax, kmax) coefficient matrix C of each leading index, so no
        (M, n_points) table is formed.
        """
        S = self._sine_table(where)
        if self.dimension == 1:
            return u @ S
        u = np.asarray(u)
        C = np.zeros(u.shape[:-1] + (len(S), len(S)))
        i1, i2 = self._pair_index
        C[..., i1, i2] = u
        return (S.T @ C @ S).reshape(u.shape[:-1] + (-1,))

    def analyze(self, v: np.ndarray, where: str = "grid") -> np.ndarray:
        """Transpose of synthesize: sum_x e_k(x) v(x) over the nodes or cell
        centres. Quadrature weights are the caller's to apply.

        v has shape (..., n_points) and the result (..., M); each leading
        index is transformed on its own and gets the bytes it has alone. In
        d=1 that is a stack of products S @ v; in d=2 it reads the mode
        entries of S @ V @ S.T, V the values reshaped to (..., n1, n1).
        """
        S = self._sine_table(where)
        v = np.asarray(v)
        if self.dimension == 1:
            return (S @ v[..., None])[..., 0]
        n1 = S.shape[1]
        V = np.reshape(v, v.shape[:-1] + (n1, n1))
        return (S @ V @ S.T)[(...,) + self._pair_index]

    def analyze_block(self, v: np.ndarray, where: str,
                      out: np.ndarray) -> np.ndarray:
        """analyze of the rows of a 2-D v, written into out, shape (rows,
        M). In d=1 this is one matrix product v @ S.T per panel of
        PANEL_MODES modes, whose row bytes differ from analyze's and can
        depend on the row count: a caller that needs bytes independent of
        the batch fixes the count. In d=2 it is analyze itself."""
        if self.dimension == 1:
            ST = self._sine_table(where).T
            for k in range(0, self.mode_count, PANEL_MODES):
                panel = slice(k, k + PANEL_MODES)
                np.matmul(v, ST[:, panel], out=out[:, panel])
            return out
        out[...] = self.analyze(v, where)
        return out

    # ---- cells (between grid nodes), used for the Gaussian noise surrogate ----

    @property
    def cells_per_dim(self) -> int:
        """One surrogate cell per grid interval."""
        return self.grid_size - 1

    @property
    def cell_count(self) -> int:
        return self.cells_per_dim ** self.dimension

    @property
    def cell_centers_1d(self) -> np.ndarray:
        """Midpoints of the cells_per_dim cells of [0, 1]."""
        g = self.grid_1d
        return 0.5 * (g[:-1] + g[1:])

    @property
    def cell_centers(self) -> np.ndarray:
        return self._box_points(self.cell_centers_1d)


def sine_table(kmax: int, x: np.ndarray) -> np.ndarray:
    """Values sqrt(2) sin(k pi x) for k = 1..kmax, shape (kmax, len(x)).

    Built in place, so a table costs one table of temporaries."""
    table = np.outer(np.arange(1, kmax + 1), x)
    table *= np.pi
    np.sin(table, out=table)
    table *= math.sqrt(2.0)
    return table


def build_basis(d: int, M: int, grid_size: int | None = None) -> EigenBasis:
    """Enumerate the M smallest Dirichlet eigenpairs on the unit box."""
    if d not in (1, 2):
        raise BasisError(f"unsupported dimension d={d}; only d=1 and d=2 have "
                         "explicit sine eigenpairs on the unit box")
    if M < 1:
        raise BasisError(f"mode count must be >= 1, got {M}")

    if d == 1:
        ks = np.arange(1, M + 1)
        lams = (ks * np.pi) ** 2
        indices = ks[:, None]
    else:
        # enumerate a lattice square guaranteed to contain the M smallest modes
        R = int(math.ceil(math.sqrt(2.0 * M))) + 2
        k1, k2 = np.meshgrid(np.arange(1, R + 1), np.arange(1, R + 1),
                             indexing="ij")
        pairs = np.column_stack([k1.ravel(), k2.ravel()])
        lam_all = (pairs[:, 0] ** 2 + pairs[:, 1] ** 2) * np.pi**2
        order = np.lexsort((pairs[:, 1], pairs[:, 0], lam_all))
        indices = pairs[order][:M]
        lams = lam_all[order][:M]

    kmax = int(indices.max())
    if grid_size is None:
        grid_size = max(4 * kmax + 1, DEFAULT_MIN_GRID)
    if grid_size < 4 * kmax + 1:
        raise BasisError(
            f"grid_size={grid_size} too coarse for mode index {kmax}; "
            f"need at least {4 * kmax + 1} points per dimension"
        )
    return EigenBasis(dimension=d, eigenvalues=lams.astype(float),
                      multi_indices=indices.astype(int), grid_size=grid_size)


def lambda_power_sum(basis: EigenBasis, p: float) -> float:
    """Partial sum sum_{k<=M} lambda_k^p over the enumerated modes."""
    return float(np.sum(basis.eigenvalues**p))


def lambda_power_tail(basis: EigenBasis, p: float) -> float:
    """Analytic upper bound on the tail sum_{k>M} lambda_k^p (needs p < -d/2).

    d=1: lambda_k = k^2 pi^2 exactly, so the tail is below the integral bound
    pi^(2p) M^(1+2p) / (-1-2p). d=2 uses the Weyl lower bound lambda_k >= pi*k,
    valid for the unit square.
    """
    M = basis.mode_count
    d = basis.dimension
    if p >= -d / 2.0:
        raise BasisError(f"tail sum diverges for exponent {p} in d={d}")
    if d == 1:
        return float(np.pi ** (2 * p) * M ** (1 + 2 * p) / (-1 - 2 * p))
    return float(np.pi**p * M ** (1 + p) / (-1 - p))


def _probe_sup(basis: EigenBasis, c: np.ndarray,
               probe_grid: int) -> np.ndarray:
    """max over a probe_grid^d grid of the kernel sum_k c_k e_k(x)^2.

    c has shape (..., M); the result has shape (...). In d=2 each kernel is
    Q.T @ W @ Q, Q = S**2 the squared 1-D sine table and W the (kmax, kmax)
    matrix of c, so no (M, probe_grid^2) table is formed.
    """
    Q = sine_table(basis.kmax, np.linspace(0.0, 1.0, probe_grid)) ** 2
    if basis.dimension == 1:
        return (c @ Q).max(axis=-1)
    W = np.zeros(c.shape[:-1] + (basis.kmax, basis.kmax))
    W[(...,) + basis._pair_index] = c
    sups = [(Q.T @ w @ Q).max()
            for w in W.reshape(-1, basis.kmax, basis.kmax)]
    return np.reshape(sups, c.shape[:-1])


def embedding_constant(basis: EigenBasis, r: float) -> float:
    """C_inf, the max over a probe grid of
    (sum_{k<=M} lambda_k^{-r} e_k(x)^2)^(1/2).

    It bounds |f(x)| <= C_inf ||f||_{H_r} at the probe points for any field
    supported on the first M modes (Cauchy-Schwarz on the coefficient
    series). The probe grid is the quadrature grid.
    """
    d = basis.dimension
    if r <= d / 2.0:
        raise BasisError(
            f"embedding into L-infinity requires r > d/2 = {d / 2}; got r={r}"
        )
    return float(np.sqrt(_probe_sup(basis, basis.eigenvalues ** (-r),
                                    basis.grid_size)))
