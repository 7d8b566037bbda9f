"""Output checks for the benchmark.

Every op's output is checked after it is timed. A trajectory read back from
the CLI's artifacts passes when it is finite, not identically zero, its
H_r norms match sqrt(sum_k lambda_k^r u_k^2) recomputed from its
coefficients, its level assignment agrees with ``detect_stop`` on its own
norms, and its jump-truncation record agrees with the jumps of the noise
path drawn again from the op's seed. Fixed-seed outputs are also compared
with ``reference.json`` at the tolerance stored there.

Each check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fswe.basis import build_basis
from fswe.noise import LevyMeasureSpec, sample_path
from fswe.solver import (COEFFICIENT_PRESETS, StoppingRecord, Trajectory,
                         detect_stop, make_setup, paste_over_K)

# hr_norm is recomputed with the same formula the solver uses, so only
# rounding of the CSV round trip (none: floats are written with repr) and of
# the summation order may differ.
HR_RTOL = 1e-12


@dataclass
class Output:
    """One pasted trajectory as the CLI writes it."""

    name: str
    times: np.ndarray
    hr_norms: np.ndarray
    active_N: np.ndarray
    active_K: np.ndarray
    coeffs: np.ndarray | None = None
    tau_by_K: dict = field(default_factory=dict)
    cap_reached: bool = False


def read_cli_outputs(out_dir: Path) -> list[Output]:
    """Parse summary.json and the per-trajectory CSVs of one CLI run."""
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    outputs = []
    for name, rec in summary["trajectories"].items():
        csv_name = "trajectory.csv" if name == "trajectory" else f"{name}.csv"
        with open(out_dir / csv_name) as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(out_dir / csv_name, delimiter=",", skiprows=1,
                          ndmin=2)
        col = {c: data[:, i] for i, c in enumerate(header)}
        n_coeff = sum(c.startswith("u_") for c in header)
        outputs.append(Output(
            name=name, times=col["t"], hr_norms=col["hr_norm"],
            active_N=col["active_N"].astype(int), active_K=col["active_K"],
            coeffs=data[:, 4:4 + n_coeff] if n_coeff else None,
            tau_by_K={float(k): float(v) for k, v in rec["tau_by_K"].items()},
            cap_reached=bool(rec["cap_reached"]),
        ))
    return outputs


def from_trajectory(name: str, traj: Trajectory) -> Output:
    s = traj.stopping
    return Output(name=name, times=traj.times, hr_norms=traj.hr_norms,
                  active_N=traj.active_N, active_K=traj.active_K,
                  coeffs=traj.coeffs,
                  tau_by_K={float(k): v for k, v in s.tau_by_K.items()},
                  cap_reached=s.cap_reached)


def _first_index(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def check_output(out: Output, lam_r: np.ndarray, N_max: int,
                 K_schedule: tuple[float, ...] | None = None,
                 jumps: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> list[str]:
    """Check one trajectory; ``jumps`` is (times, sizes) of its noise path."""
    bad = []
    arrays = [out.times, out.hr_norms, out.active_K]
    if out.coeffs is not None:
        arrays.append(out.coeffs)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return [f"{out.name}: non-finite output"]
    if not np.any(out.hr_norms != 0.0) or (
            out.coeffs is not None and not np.any(out.coeffs != 0.0)):
        bad.append(f"{out.name}: trajectory is identically zero")
    if out.coeffs is not None:
        expect = np.sqrt(np.sum(lam_r * out.coeffs**2, axis=1))
        err = np.abs(out.hr_norms - expect) / np.maximum(1.0, expect)
        if err.max() > HR_RTOL:
            bad.append(f"{out.name}: hr_norm differs from the coefficients "
                       f"by {err.max():.3g} (relative)")

    # level N is used on [tau_{N-1}, tau_N): the first grid index with a
    # level above N is where detect_stop finds the norm exceeding N
    traj = Trajectory(times=out.times, hr_norms=out.hr_norms,
                      coeffs=np.zeros((len(out.times), 1)),
                      active_N=out.active_N, active_K=out.active_K,
                      stopping=StoppingRecord())
    for N in range(1, N_max + 1):
        tau = detect_stop(traj, N)
        if N == N_max:
            if math.isfinite(tau) and not out.cap_reached:
                bad.append(f"{out.name}: norm exceeds N_max={N_max} "
                           "without cap_reached")
            continue
        hit = None if math.isinf(tau) else _first_index(out.times == tau)
        if _first_index(out.active_N > N) != hit:
            bad.append(f"{out.name}: active_N leaves level {N} at index "
                       f"{_first_index(out.active_N > N)}, detect_stop at "
                       f"{hit}")

    if K_schedule is not None:
        bad += _check_K_record(out, tuple(float(k) for k in K_schedule),
                               jumps)
    return bad


def _check_K_record(out: Output, K_schedule: tuple[float, ...],
                    jumps: tuple[np.ndarray, np.ndarray] | None) -> list[str]:
    bad = []
    levels = list(out.tau_by_K)
    if not levels or levels != list(K_schedule[:len(levels)]):
        return [f"{out.name}: K levels {levels} are not a prefix of "
                f"{list(K_schedule)}"]
    taus = [out.tau_by_K[K] for K in levels]
    if math.isfinite(taus[-1]) and (len(levels) < len(K_schedule)
                                    or not out.cap_reached):
        bad.append(f"{out.name}: K record ends at a finite tau^K "
                   "without reaching the cap")
    if any(math.isinf(t) for t in taus[:-1]):
        bad.append(f"{out.name}: K record continues past tau^K = inf")
    if jumps is not None:
        jt, js = jumps
        for K, tau in zip(levels, taus):
            big = np.abs(js) > K
            expect = float(jt[big][0]) if big.any() else math.inf
            if tau != expect:
                bad.append(f"{out.name}: tau^K at K={K} is {tau}, the first "
                           f"jump above K is at {expect}")
    expect_K = np.full(len(out.times), K_schedule[-1])
    for i, t in enumerate(out.times):
        for K, tau in zip(levels, taus):
            if t < tau:
                expect_K[i] = K
                break
    if not np.array_equal(expect_K, out.active_K):
        bad.append(f"{out.name}: active_K disagrees with the tau^K record")
    return bad


def check_report(report, replicas: int, n_levels: int) -> list[str]:
    """check_tail_bound verdicts: all present, finite and passing."""
    bad = []
    if report.replicas != replicas:
        bad.append(f"report covers {report.replicas} replicas, "
                   f"asked for {replicas}")
    if len(report.verdicts) != n_levels + 2:
        bad.append(f"expected {n_levels + 2} verdicts, "
                   f"got {len(report.verdicts)}")
    for v in report.verdicts:
        if not (math.isfinite(v.observed) and v.passed):
            bad.append(f"verdict failed: {v}")
    return bad


# ---------------------------------------------------------------------------
# reference outputs

def digest(values) -> str:
    """sha256 of the exact bits of a nested structure of arrays/numbers."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            for k in sorted(v, key=str):
                h.update(str(k).encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            for x in v:
                feed(x)
        else:
            h.update(np.ascontiguousarray(np.asarray(v, dtype=float))
                     .tobytes())
    feed(values)
    return h.hexdigest()


def compare_reference(actual: dict, stored: dict, rtol: float,
                      atol: float) -> list[str]:
    """Compare arrays key by key within (rtol, atol); exact keys must match
    exactly (stopping times and levels come from jump times and integer
    levels, which no reordering of floating-point sums may change)."""
    bad = []
    for key, ref in stored["close"].items():
        a = np.asarray(actual["close"].get(key, []), dtype=float)
        r = np.asarray(ref, dtype=float)
        if a.shape != r.shape or not np.allclose(a, r, rtol=rtol, atol=atol):
            bad.append(f"reference mismatch in {key}")
    for key, ref in stored["exact"].items():
        if json.dumps(actual["exact"].get(key)) != json.dumps(ref):
            bad.append(f"reference mismatch in {key}")
    return bad


def to_reference(outputs: list[Output]) -> dict:
    """Reference fields of CLI outputs: norms and coefficients within
    tolerance, level records exactly."""
    close, exact = {}, {}
    for o in outputs:
        close[f"{o.name}.hr_norms"] = o.hr_norms.tolist()
        if o.coeffs is not None:
            close[f"{o.name}.coeffs"] = o.coeffs.tolist()
        exact[f"{o.name}.active_N"] = o.active_N.tolist()
        exact[f"{o.name}.active_K"] = o.active_K.tolist()
        exact[f"{o.name}.tau_by_K"] = {str(k): v for k, v
                                       in o.tau_by_K.items()}
        exact[f"{o.name}.cap_reached"] = o.cap_reached
    return {"close": close, "exact": exact}


# ---------------------------------------------------------------------------
# negative control

def perturbations(out: Output) -> dict[str, Output]:
    """Deliberately broken copies of a valid output, one defect each."""
    k = len(out.times) // 2
    coeffs = out.coeffs.copy()
    coeffs[k, 0] *= 1.0 + 1e-6
    nan = out.hr_norms.copy()
    nan[k] = math.nan
    shifted = out.active_N.copy()
    shifted[k:] += 1
    first_K = next(iter(out.tau_by_K))
    tau_K = dict(out.tau_by_K)
    tau_K[first_K] = 0.5 * out.times[1]
    return {
        "coefficient perturbed": replace(out, coeffs=coeffs),
        "non-finite norm": replace(out, hr_norms=nan),
        "identically zero": replace(out, hr_norms=np.zeros_like(out.hr_norms),
                                    coeffs=np.zeros_like(out.coeffs)),
        "level record shifted": replace(out, active_N=shifted),
        "tau^K moved": replace(out, tau_by_K=tau_K),
    }


CONTROL_K = (1.0, 2.0, 4.0, 8.0)


def control_output(seed: int = 3):
    """A small valid pasted trajectory, its eigenvalue weights and jumps."""
    setup = make_setup(build_basis(1, 8), 2.0, 1.0, 1.0, 20,
                       COEFFICIENT_PRESETS["constant"])
    spec = LevyMeasureSpec(variant="stable", alpha=1.0, cutoff=0.01)
    path = sample_path(spec, 1.0, 20, seed,
                       cells_per_dim=setup.basis.grid_size - 1)
    traj = paste_over_K(path, setup, K_schedule=CONTROL_K, N_max=8)
    return (from_trajectory("control", traj), setup.lam_r,
            (path.jump_times, path.jump_sizes))


def negative_control() -> list[str]:
    """The checker must pass a valid output and fail each perturbation."""
    out, lam_r, jumps = control_output()
    kw = dict(lam_r=lam_r, N_max=8, K_schedule=CONTROL_K, jumps=jumps)
    problems = [f"control: valid output rejected: {b}"
                for b in check_output(out, **kw)]
    for name, bad in perturbations(out).items():
        if not check_output(bad, **kw):
            problems.append(f"control: checker accepted a trajectory with "
                            f"{name}")
    return problems
