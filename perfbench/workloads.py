"""The benchmark's workloads.

Each workload is a closed loop of calls into a public entry point, run in a
single process. A call is timed on its own; its outputs are checked after
the clock stops. Library functions are looked up through their modules at
call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fswe.basis as basis
import fswe.cli as cli
import fswe.noise as noise
import fswe.solver as solver
import fswe.verify as verify
from checks import (check_output, check_report, from_trajectory,
                    read_cli_outputs, to_reference)

RADEMACHER = noise.LevyMeasureSpec(variant="atoms",
                                   atoms=((1.0, 0.5), (-1.0, 0.5)))
# the acceptance gate's coefficient pair for the tail criterion
WAVE = solver.CoefficientPair(np.sin, np.cos, 1.0, 1.0, "wave")
STABLE = {"variant": "stable", "alpha": 1.0, "cutoff": 0.01}
K_SCHEDULE = [1.0, 2.0, 4.0, 8.0]

# Reference outputs use a seed no benchmark run draws: run seeds occupy
# bits 12..62 (see call_seed), the reference sets bit 63.
REFERENCE_SEED = (1 << 63) | 0x5EED


def call_seed(seed: int, call: int) -> int:
    """Base seed of call ``call`` in a run with benchmark seed ``seed``.

    Replica i of the call uses ``base ^ i`` (fswe.verify.replica_seed), so
    calls stay disjoint while a call has fewer than 4096 replicas.
    """
    return (seed << 32) | (call << 12)


def consecutive_seeds(seed: int):
    return (call_seed(seed, c) for c in itertools.count())


@dataclass
class Checked:
    """Result of checking one call."""

    ops: int
    failed: int
    problems: list = field(default_factory=list)
    jumps: list = field(default_factory=list)       # jumps per path
    levels_N: list = field(default_factory=list)    # per output trajectory
    levels_K: list = field(default_factory=list)
    cap_reached: int = 0
    bytes_written: int = 0
    verdicts_failed: int = 0


def _jumps(spec, T, n_steps, seed, dimension):
    """Jump times and sizes of a path; jumps are drawn before the
    surrogate, so skipping the surrogate leaves them unchanged."""
    p = noise.sample_path(spec, T, n_steps, seed, dimension=dimension,
                          with_surrogate=False)
    return p.jump_times, p.jump_sizes


class TailSuite:
    """fswe.verify.check_tail_bound, the acceptance gate's criterion 07
    shape: d=1, M=16, gamma=2, r=1, 100 steps, b=sin, sigma=cos,
    Rademacher atoms. One op is one replica."""

    name = "d1_tail_suite"
    replicas = 20
    setup_reps = 31
    # one set-up takes about 0.1 ms: time ten in a row, so that cache misses
    # after the calibration kernel do not dominate
    setup_batch = 10
    trace_calls = 2
    N_values = (1, 2, 4, 8, 16)
    n_steps = 100
    block = 1
    calibration = "interpreter"

    def call_seeds(self, seed: int):
        return consecutive_seeds(seed)

    def build_setup(self):
        return solver.make_setup(basis.build_basis(1, 16), 2.0, 1.0, 1.0,
                                 self.n_steps, WAVE)

    def prepare(self, work_dir: Path) -> None:
        self.setup = self.build_setup()

    def before_call(self) -> None:
        pass

    def call(self, seed: int, replicas: int | None = None):
        return verify.check_tail_bound(self.setup, RADEMACHER,
                                       N_values=self.N_values,
                                       R=replicas or self.replicas,
                                       base_seed=seed)

    def check(self, seed: int, report, replicas: int | None = None
              ) -> Checked:
        R = replicas or self.replicas
        problems = check_report(report, R, len(self.N_values))
        probs = [v.observed for v in report.verdicts[:len(self.N_values)]]
        # level N_{j+1} is entered when tau_{N_j} <= T
        levels = 1.0 + float(np.sum(probs[:-1]))
        return Checked(
            ops=R, failed=R if problems else 0, problems=problems,
            jumps=[len(_jumps(RADEMACHER, 1.0, self.n_steps,
                              verify.replica_seed(seed, i), 1)[0])
                   for i in range(R)],
            levels_N=[levels] * R, levels_K=[1] * R,
            cap_reached=int(round(probs[-1] * R)),
            verdicts_failed=sum(not v.passed for v in report.verdicts))

    def inputs(self, seed: int) -> np.ndarray:
        """Jump times of every path of the run's first call."""
        base = next(self.call_seeds(seed))
        return np.concatenate([
            _jumps(RADEMACHER, 1.0, self.n_steps,
                   verify.replica_seed(base, i), 1)[0]
            for i in range(self.replicas)])

    def reference(self) -> dict:
        """Verdicts of a 4-replica suite and the level-N solves of its
        first replica, at the reference seed."""
        report = self.call(REFERENCE_SEED, replicas=4)
        path = noise.sample_path(RADEMACHER, 1.0, self.n_steps,
                                 REFERENCE_SEED,
                                 cells_per_dim=self.setup.basis.grid_size - 1)
        close = {f"N={N}.hr_norms":
                 solver.solve_truncated(N, path, self.setup).hr_norms.tolist()
                 for N in self.N_values}
        close["verdicts.observed"] = [v.observed for v in report.verdicts]
        return {"close": close,
                "exact": {"verdicts.passed": [bool(v.passed)
                                              for v in report.verdicts]}}


class CliWorkload:
    """In-process ``fswe`` CLI calls on a stable-noise config pasted over
    the K schedule [1, 2, 4, 8].

    Each K level a path enters is one more full solve, so the levels set
    the work of a call. With a ``level_pattern``, call c runs the next
    unused seed whose paths enter ``level_pattern[c % len]`` K levels in
    total, so every block of ``len(level_pattern)`` calls does the same mix
    of work.
    """

    setup_batch = 1

    def __init__(self, name, command, config, replicas, setup_reps,
                 trace_calls, calibration, level_pattern=()):
        self.name = name
        self.command = command
        self.config_dict = config
        self.replicas = replicas
        self.setup_reps = setup_reps
        self.trace_calls = trace_calls
        self.calibration = calibration
        self.n_steps = config["n_steps"]
        self.level_pattern = level_pattern
        self.block = len(level_pattern) or 1

    def build_setup(self):
        return cli.RunConfig(**self.config_dict).build()

    def prepare(self, work_dir: Path) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = work_dir / f"{self.name}.json"
        self.config_path.write_text(json.dumps(self.config_dict))
        self.out = work_dir / self.name
        self.config = cli.parse_config(self.config_path)
        self.spec = self.config.levy_spec()
        self.setup = self.config.build()

    def before_call(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, seed: int, replicas: int | None = None) -> int:
        argv = ["--config", str(self.config_path), "--seed", str(seed),
                "--out", str(self.out)]
        if self.command == "ensemble":
            argv += ["--replicas", str(replicas or self.replicas),
                     "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + [self.command])

    def _path_seeds(self, seed: int, replicas: int) -> list[int]:
        """Seeds of the paths the CLI draws for one call."""
        if self.command == "simulate":
            return [seed]
        return [verify.replica_seed(seed, i) for i in range(replicas)]

    def check(self, seed: int, rc: int, replicas: int | None = None
              ) -> Checked:
        expected = 1
        if self.command == "ensemble":
            expected = replicas or self.replicas
        if rc != 0:
            return Checked(ops=expected, failed=expected,
                           problems=[f"fswe exited with status {rc}"])
        outputs = read_cli_outputs(self.out)
        res = Checked(ops=expected, failed=0,
                      bytes_written=sum(p.stat().st_size
                                        for p in self.out.iterdir()))
        if len(outputs) != expected:
            res.failed = expected
            res.problems.append(f"{len(outputs)} trajectories written, "
                                f"{expected} asked for")
            return res
        cfg = self.config
        lam_r = self.setup.lam_r
        seeds = self._path_seeds(seed, expected)
        for out in outputs:
            i = 0 if out.name == "trajectory" else int(
                out.name.removeprefix("replica_"))
            s = seeds[i]
            jt, js = _jumps(self.spec, cfg.T, cfg.n_steps, s, cfg.dimension)
            bad = check_output(out, lam_r, cfg.N_max, tuple(cfg.K_schedule),
                               (jt, js))
            if self.command == "ensemble" and out.name == \
                    f"replica_{(seed >> 12) % expected}":
                bad += self._resolve_check(out, s)
            if bad:
                res.failed += 1
                res.problems += bad
            res.jumps.append(len(jt))
            res.levels_N.append(int(out.active_N.max()))
            res.levels_K.append(len(out.tau_by_K))
            res.cap_reached += out.cap_reached
        return res

    def _resolve_check(self, out, seed: int) -> list[str]:
        """Ensemble CSVs carry no coefficients: solve one replica again
        through the library and check its coefficients and its norms."""
        cfg = self.config
        path = noise.sample_path(self.spec, cfg.T, cfg.n_steps, seed,
                                 cells_per_dim=self.setup.basis.grid_size - 1,
                                 dimension=cfg.dimension)
        traj = solver.paste_over_K(path, self.setup,
                                   K_schedule=tuple(cfg.K_schedule),
                                   N_max=cfg.N_max)
        bad = check_output(from_trajectory(out.name, traj), self.setup.lam_r,
                           cfg.N_max, tuple(cfg.K_schedule))
        if not np.array_equal(traj.hr_norms, out.hr_norms):
            bad.append(f"{out.name}: CSV norms differ from a library re-solve")
        return bad

    def levels_entered(self, seed: int) -> int:
        """K levels paste_over_K enters, summed over the call's paths: one
        per path, plus one per level below the last whose threshold a jump
        of the path exceeds."""
        cfg = self.config
        total = 0
        for s in self._path_seeds(seed, self.replicas):
            _, js = _jumps(self.spec, cfg.T, cfg.n_steps, s, cfg.dimension)
            biggest = np.abs(js).max(initial=0.0)
            total += 1 + sum(biggest > K for K in cfg.K_schedule[:-1])
        return total

    def call_seeds(self, seed: int):
        if not self.level_pattern:
            yield from consecutive_seeds(seed)
            return
        pending = {L: [] for L in self.level_pattern}
        candidates = consecutive_seeds(seed)
        for target in itertools.cycle(self.level_pattern):
            while not pending[target]:
                s = next(candidates)
                pending.get(self.levels_entered(s), []).append(s)
            yield pending[target].pop(0)

    def inputs(self, seed: int) -> np.ndarray:
        """Jump times of every path of the run's first call."""
        cfg = self.config
        base = next(self.call_seeds(seed))
        return np.concatenate([
            _jumps(self.spec, cfg.T, cfg.n_steps, s, cfg.dimension)[0]
            for s in self._path_seeds(base, self.replicas)])

    def reference(self) -> dict:
        """CLI outputs at the reference seed (two replicas for ensemble)."""
        self.before_call()
        rc = self.call(REFERENCE_SEED, replicas=2)
        if rc != 0:
            return {"close": {}, "exact": {"status": rc}}
        ref = to_reference(read_cli_outputs(self.out))
        ref["exact"]["status"] = rc
        return ref


def _stable_config(**kw) -> dict:
    base = {"gamma": 2.0, "r": 1.0, "T": 1.0, "coefficients": "constant",
            "noise": STABLE, "N_max": 8, "K_schedule": K_SCHEDULE}
    base.update(kw)
    return base


WORKLOADS = {
    "d1_tail_suite": TailSuite(),
    "d1_stable_ensemble": CliWorkload(
        "d1_stable_ensemble", "ensemble",
        _stable_config(dimension=1, modes=128, n_steps=100),
        replicas=16, setup_reps=21, trace_calls=2,
        calibration="grid",
        # 16 paths at the mean of 2.24 levels per path
        level_pattern=(36,)),
    "d2_stable_simulate": CliWorkload(
        "d2_stable_simulate", "simulate",
        _stable_config(dimension=2, modes=64, gamma=3.0, r=1.5, n_steps=50),
        replicas=1, setup_reps=7, trace_calls=8, calibration="dense",
        # P(L levels) for alpha=1 over [0,1] is about .37, .24, .17, .22
        level_pattern=(1, 2, 4, 1, 3, 2, 1, 4)),
}
