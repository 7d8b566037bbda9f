"""Reference pasting: every truncation level solved again from t=0.

Level-by-level versions of ``paste_over_N`` and ``paste_over_K``, kept only
as the oracle the one-pass implementation in ``fswe.solver`` is compared
against. Not collected by pytest (no ``test_`` prefix).
"""

import math

import numpy as np

from fswe.noise import NoisePath, first_large_jump, truncate
from fswe.solver import (SolverError, SolveSetup, StoppingRecord, Trajectory,
                         solve_truncated)


def paste_over_N(path: NoisePath, setup: SolveSetup,
                 N_max: int = 8) -> Trajectory:
    """Global solution by pasting level-N solves on [tau_{N-1}, tau_N).

    Levels run 1, 2, ... on the same path; the loop stops at the first level
    whose norm never exceeds it. If tau_{N_max} <= T the trajectory is
    flagged cap_reached (theory guarantees tau_N -> inf, so raising N_max
    always clears the flag eventually).
    """
    times = np.linspace(0.0, setup.T, setup.n_steps + 1)
    coeffs = np.zeros((setup.n_steps + 1, setup.basis.mode_count))
    norms = np.zeros(setup.n_steps + 1)
    active = np.zeros(setup.n_steps + 1, dtype=int)
    record = StoppingRecord()
    filled_to = 0  # grid index up to which the output is final
    for N in range(1, N_max + 1):
        traj = solve_truncated(N, path, setup)
        tau = traj.stopping.tau_by_N[N]
        record.tau_by_N[N] = tau
        record.tau_brackets.update(traj.stopping.tau_brackets)
        hi = setup.n_steps + 1 if math.isinf(tau) else int(round(tau / setup.dt))
        sel = slice(filled_to, hi)
        coeffs[sel] = traj.coeffs[sel]
        norms[sel] = traj.hr_norms[sel]
        active[sel] = N
        filled_to = hi
        if math.isinf(tau):
            break
    if filled_to <= setup.n_steps:
        # cap reached: keep the deepest available level from tau_{N_max} on
        sel = slice(filled_to, setup.n_steps + 1)
        coeffs[sel] = traj.coeffs[sel]
        norms[sel] = traj.hr_norms[sel]
        active[sel] = N_max
        record.cap_reached = True
    return Trajectory(times=times, hr_norms=norms, coeffs=coeffs,
                      active_N=active,
                      active_K=np.full(setup.n_steps + 1, math.inf),
                      stopping=record)


def paste_over_K(path: NoisePath, setup: SolveSetup,
                 K_schedule: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
                 N_max: int = 8) -> Trajectory:
    """Heavy-tailed solution by pasting noise-truncated solves on
    [tau^{K-1}, tau^K), tau^K the first jump exceeding K."""
    if not path.spec.symmetric:
        raise SolverError(
            "the heavy-tailed driver requires a symmetric Levy measure"
        )
    ks = list(K_schedule)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
        raise SolverError(
            "K schedule must be a non-empty strictly increasing sequence")
    if ks[0] < path.spec.cutoff:
        raise SolverError(f"K schedule starts at {ks[0]}, below the noise "
                          f"cutoff {path.spec.cutoff}")
    times = np.linspace(0.0, setup.T, setup.n_steps + 1)
    coeffs = np.zeros((setup.n_steps + 1, setup.basis.mode_count))
    norms = np.zeros(setup.n_steps + 1)
    active_N = np.zeros(setup.n_steps + 1, dtype=int)
    active_K = np.zeros(setup.n_steps + 1)
    record = StoppingRecord()
    filled_to = 0
    for K in K_schedule:
        traj_K = paste_over_N(truncate(path, K), setup, N_max=N_max)
        tau_K = first_large_jump(path, K)
        record.tau_by_K[K] = tau_K
        record.cap_reached = record.cap_reached or traj_K.stopping.cap_reached
        if math.isinf(tau_K):
            hi = setup.n_steps + 1
        else:
            # last grid time strictly before tau_K, exclusive upper index
            hi = int(np.searchsorted(times, tau_K, side="left"))
        sel = slice(filled_to, hi)
        coeffs[sel] = traj_K.coeffs[sel]
        norms[sel] = traj_K.hr_norms[sel]
        active_N[sel] = traj_K.active_N[sel]
        active_K[sel] = K
        filled_to = max(filled_to, hi)
        if math.isinf(tau_K):
            break
    if filled_to <= setup.n_steps:
        sel = slice(filled_to, setup.n_steps + 1)
        coeffs[sel] = traj_K.coeffs[sel]
        norms[sel] = traj_K.hr_norms[sel]
        active_N[sel] = traj_K.active_N[sel]
        active_K[sel] = K_schedule[-1]
        record.cap_reached = True
    return Trajectory(times=times, hr_norms=norms, coeffs=coeffs,
                      active_N=active_N, active_K=active_K, stopping=record)
