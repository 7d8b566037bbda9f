"""Command-line front end: strict JSON configs, reproducible runs, and
CSV/JSON artifacts.

Subcommands
    simulate  one pasted trajectory -> trajectory.csv + summary.json
    noise     sample a noise path -> noise.csv
    ensemble  replicated trajectories -> per-replica CSVs + summary.json
    verify    run a named verification suite -> verdicts on stdout + report.json

Exit status is 0 on success (and, for verify, only when every verdict
passes); config or validation errors exit nonzero with a message naming the
violated requirement.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .basis import EigenBasis, build_basis
from .noise import (DEFAULT_STABLE_CUTOFF, LevyMeasureSpec, NoisePath,
                    export_path, is_number, sample_path, spec_from_dict,
                    spec_to_dict)
from .solver import (COEFFICIENT_PRESETS, SolveSetup, Trajectory,
                     check_K_schedule, check_exponents, make_setup,
                     paste_rows, row_blocks)
# not called here: perfbench's per-layer tracer wraps these names on this
# module, and its tests expect them to be present
from .solver import paste_over_K, paste_over_N  # noqa: F401
from . import verify as verify_mod


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dimension: int = 1
    modes: int = 16
    gamma: float = 2.0
    r: float = 1.0
    T: float = 1.0
    n_steps: int = 100
    coefficients: str = "linear"
    noise: dict = field(default_factory=lambda: {
        "variant": "atoms", "atoms": [[1.0, 0.5], [-1.0, 0.5]]})
    grid_size: int | None = None
    N_max: int = 8
    K_schedule: list | None = None

    def __post_init__(self):
        self._check_types()
        d = self.dimension
        if d not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {d}")
        check_exponents(d, self.gamma, self.r, ConfigError)
        if self.modes < 1 or self.n_steps < 1 or self.T <= 0:
            raise ConfigError("modes, n_steps must be >= 1 and T > 0")
        if self.coefficients not in COEFFICIENT_PRESETS:
            raise ConfigError(
                f"unknown coefficient preset {self.coefficients!r}; "
                f"choose from {sorted(COEFFICIENT_PRESETS)}")
        cutoff = self.levy_spec().cutoff   # every noise key checked here
        if self.K_schedule is not None:
            check_K_schedule(self.K_schedule, cutoff, ConfigError)

    def _check_types(self) -> None:
        """Raise ConfigError naming the first key whose value has the
        wrong JSON type, before any check compares it."""
        for key in ("dimension", "modes", "n_steps", "N_max", "grid_size"):
            value = getattr(self, key)
            if not (is_number(value, int)
                    or (key == "grid_size" and value is None)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        for key in ("gamma", "r", "T"):
            value = getattr(self, key)
            if not is_number(value):
                raise ConfigError(f"{key} must be a number, got {value!r}")
        ks = self.K_schedule
        if ks is not None and not (isinstance(ks, (list, tuple))
                                   and all(map(is_number, ks))):
            raise ConfigError(
                f"K_schedule must be a list of numbers or null, got {ks!r}")
        if not isinstance(self.coefficients, str):
            raise ConfigError(f"coefficients must be a string, "
                              f"got {self.coefficients!r}")

    def levy_spec(self) -> LevyMeasureSpec:
        return spec_from_dict(self.noise)

    def build(self) -> SolveSetup:
        basis = build_basis(self.dimension, self.modes,
                            grid_size=self.grid_size)
        return make_setup(basis, self.gamma, self.r, self.T, self.n_steps,
                          COEFFICIENT_PRESETS[self.coefficients])

    def to_dict(self) -> dict:
        """The config keys in field order, with noise, normalized, last."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name != "noise"}
        d["noise"] = spec_to_dict(self.levy_spec())
        return d


def parse_config(path: str | Path) -> RunConfig:
    """Load a JSON config; any unknown key is a fatal error."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    noise = raw.get("noise", {})
    if not isinstance(noise, dict):
        raise ConfigError("noise must be a JSON object")
    bad = set(noise) - {f.name for f in fields(LevyMeasureSpec)}
    if bad:
        raise ConfigError(f"unknown noise keys: {sorted(bad)}")
    return RunConfig(**raw)


# ---------------------------------------------------------------------------
# artifact writers

def write_trajectory_csv(path: Path, traj: Trajectory,
                         with_coeffs: bool = False) -> None:
    cols = ["t", "hr_norm", "active_N", "active_K"]
    data = [traj.times, traj.hr_norms, traj.active_N, traj.active_K]
    if with_coeffs:
        for k in range(traj.coeffs.shape[1]):
            cols.append(f"u_{k + 1}")
            data.append(traj.coeffs[:, k])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*data):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _stopping_dict(traj: Trajectory) -> dict:
    s = traj.stopping
    return {
        "tau_by_N": {str(k): v for k, v in s.tau_by_N.items()},
        "tau_brackets": {str(k): list(v) for k, v in s.tau_brackets.items()},
        "tau_by_K": {str(k): v for k, v in s.tau_by_K.items()},
        "cap_reached": s.cap_reached,
    }


def write_summary(path: Path, config: RunConfig, seed: int,
                  trajectories: dict, runtime: float) -> None:
    _write_json(path, {
        "config": config.to_dict(),
        "seed": seed,
        "runtime_seconds": runtime,
        "trajectories": {name: _stopping_dict(t)
                         for name, t in trajectories.items()},
    })


def _write_json(path: Path, payload: dict) -> None:
    """Every JSON artifact. json writes an infinite float as Infinity,
    which Python reads but RFC 8259 JSON does not allow."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_numpy)
        fh.write("\n")


def _json_numpy(obj):
    """numpy bools and integers as Python ones; json handles floats."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


# ---------------------------------------------------------------------------
# subcommands

_NEEDS_K_SCHEDULE = "infinite-variance noise requires a K_schedule for pasting"


def _sample(config: RunConfig, basis: EigenBasis, seed: int) -> NoisePath:
    """The noise path of seed, on the basis's surrogate cells."""
    return sample_path(config.levy_spec(), config.T, config.n_steps, seed,
                       cells_per_dim=basis.cells_per_dim,
                       dimension=config.dimension)


def cmd_simulate(config: RunConfig, seed: int, out: Path) -> int:
    t0 = time.perf_counter()
    setup = config.build()
    traj = _paste_seeds(config, setup, [seed])[0]
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", traj, with_coeffs=True)
    write_summary(out / "summary.json", config, seed, {"trajectory": traj},
                  time.perf_counter() - t0)
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
    return 0


def cmd_noise(config: RunConfig, seed: int, out: Path) -> int:
    path = _sample(config, build_basis(config.dimension, config.modes,
                                       grid_size=config.grid_size), seed)
    out.mkdir(parents=True, exist_ok=True)
    export_path(path, out / "noise.csv", out / "noise.json")
    print(f"wrote {out / 'noise.csv'} ({len(path.jump_times)} jumps)")
    return 0


def _paste_seeds(config: RunConfig, setup: SolveSetup,
                 seeds: list[int]) -> list[Trajectory]:
    """The pasted trajectories of the seeds' noise paths, in blocks of
    rows: one step call per grid step per block. Pastes over K when the
    config has a K_schedule, else over N (finite variance only)."""
    if (config.K_schedule is None
            and not config.levy_spec().has_finite_variance):
        raise ConfigError(_NEEDS_K_SCHEDULE)
    trajs = []
    # one row per replica, keeping its coefficient history
    for block in row_blocks(setup, len(seeds), kept=1,
                            spec=config.levy_spec()):
        paths = [_sample(config, setup.basis, seeds[i]) for i in block]
        trajs += paste_rows(paths, setup, config.K_schedule, config.N_max)
    return trajs


def cmd_ensemble(config: RunConfig, seed: int, out: Path,
                 replicas: int, workers: int) -> int:
    t0 = time.perf_counter()
    setup = config.build()
    out.mkdir(parents=True, exist_ok=True)
    seeds = [verify_mod.replica_seed(seed, i) for i in range(replicas)]
    if workers > 1:
        import concurrent.futures as cf
        # each worker pastes one contiguous share of the seeds
        share = max(1, -(-replicas // workers))
        chunks = [seeds[lo:lo + share] for lo in range(0, replicas, share)]
        with cf.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_ensemble_worker,
                initargs=(config.to_dict(),)) as pool:
            results = [t for chunk in pool.map(_ensemble_worker, chunks)
                       for t in chunk]
    else:
        results = _paste_seeds(config, setup, seeds)
    trajs = {f"replica_{i}": traj for i, traj in enumerate(results)}
    for name, traj in trajs.items():
        write_trajectory_csv(out / f"{name}.csv", traj)
    write_summary(out / "summary.json", config, seed, trajs,
                  time.perf_counter() - t0)
    print(f"wrote {replicas} trajectories to {out}")
    return 0


# (config, setup) of an ensemble worker process, built once per process by
# _init_ensemble_worker, so the basis and C_inf are not rebuilt per chunk
_worker_state: tuple[RunConfig, SolveSetup] | None = None


def _init_ensemble_worker(cfg_dict: dict) -> None:
    global _worker_state
    config = RunConfig(**cfg_dict)
    _worker_state = (config, config.build())


def _ensemble_worker(seeds: list[int]) -> list[Trajectory]:
    config, setup = _worker_state
    return _paste_seeds(config, setup, seeds)


_SUITES = ("isometry", "additive", "moment", "tail", "survival", "consistency")


def cmd_verify(config: RunConfig, seed: int, out: Path, replicas: int,
               suite: str) -> int:
    if suite not in _SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {_SUITES}")
    spec = config.levy_spec()
    if suite == "isometry":
        report = verify_mod.isometry_suite(spec, R=replicas, base_seed=seed,
                                           T=config.T)
    elif suite == "survival":
        report = verify_mod.survival_suite(spec, T=config.T, R=replicas,
                                           base_seed=seed)
    elif suite == "additive":
        basis = build_basis(config.dimension, min(config.modes, 8),
                            grid_size=config.grid_size)
        report = verify_mod.additive_linear_suite(
            basis, config.gamma, config.r, spec, R=replicas, base_seed=seed,
            T=config.T)
    else:
        setup = config.build()
        if suite == "moment":
            report = verify_mod.check_moment_bound(setup, spec, R=replicas,
                                                   base_seed=seed)
        elif suite == "tail":
            report = verify_mod.check_tail_bound(setup, spec, R=replicas,
                                                 base_seed=seed)
        else:
            if spec.variant == "stable":
                # the (K, K+1) check on the config's own measure, at its
                # first truncation level
                if config.K_schedule is None:
                    raise ConfigError(_NEEDS_K_SCHEDULE)
                stable, K = spec, config.K_schedule[0]
            else:
                stable = LevyMeasureSpec(variant="stable", alpha=1.0,
                                         cutoff=DEFAULT_STABLE_CUTOFF)
                K = 1.0
            report = verify_mod.consistency_suite(
                setup, spec, stable_spec=stable, n_seeds=replicas,
                base_seed=seed, K=K)
    for v in report.verdicts:
        print(v)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report.to_dict())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fswe",
        description="Spectral simulator and verification harness for "
                    "Levy-driven fractional wave dynamics.")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file (defaults apply if omitted)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed (unsigned 64-bit)")
    p.add_argument("--out", type=Path, default=Path("out"),
                   help="output directory")
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--suite", type=str, default="isometry",
                   help=f"verification suite, one of {_SUITES}")
    p.add_argument("command", choices=("simulate", "noise", "ensemble",
                                       "verify"))
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0 <= args.seed < 2**64:
            raise ConfigError("--seed must fit in an unsigned 64-bit integer")
        if args.command in ("ensemble", "verify") and args.replicas < 1:
            raise ConfigError("--replicas must be >= 1")
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        config = (parse_config(args.config) if args.config is not None
                  else RunConfig())
        if args.command == "simulate":
            return cmd_simulate(config, args.seed, args.out)
        if args.command == "noise":
            return cmd_noise(config, args.seed, args.out)
        if args.command == "ensemble":
            return cmd_ensemble(config, args.seed, args.out,
                                args.replicas, args.workers)
        return cmd_verify(config, args.seed, args.out, args.replicas,
                          args.suite)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
