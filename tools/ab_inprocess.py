"""Interleaved in-process A/B timing of two fswe checkouts.

    python3 tools/ab_inprocess.py --a ../parent --b . \\
        --workload d1_stable_ensemble --pairs 40

Each checkout's ``src/fswe`` is loaded into this one process, as the
packages ``fswe_a`` and ``fswe_b`` (the package imports itself only by
relative imports, so two copies live side by side). The benchmark's three
workload shapes, and two more, are rebuilt here from the public API:

- ``d1_tail_suite``: ``verify.check_tail_bound`` with d=1, M=16, gamma=2,
  r=1, 100 steps, b=sin, sigma=cos, Rademacher atoms, N in (1, 2, 4, 8,
  16) and 20 replicas;
- ``d1_stable_ensemble``: ``fswe ensemble --replicas 16 --workers 1`` on
  d=1, M=128, 100 steps, ``constant``, stable alpha=1 with cutoff 0.01, K
  schedule [1, 2, 4, 8] and N_max 8;
- ``d2_stable_simulate``: ``fswe simulate`` on d=2, M=64, gamma=3, r=1.5,
  50 steps and the same noise;
- ``d1_sine_ensemble``: ``d1_stable_ensemble`` with ``sine`` coefficients,
  a sigma that reads the state, so the surrogate's raw increments feed the
  solver; no benchmark workload runs that path;
- ``d2_stable_ensemble``: ``fswe ensemble --replicas 2 --workers 1`` on the
  ``d2_stable_simulate`` config: two surrogate streams, so the solver draws
  one on its helper thread, with tiles of one step; no benchmark workload
  runs that path;
- ``d1_constant_tail``: ``d1_tail_suite`` with ``constant`` coefficients:
  the five rows of each replica share its path, and sigma ignores the
  state, so every row's jump sums are the same terms;
- ``d1_asymmetric_tail``: ``d1_tail_suite`` with the asymmetric atoms +1
  at rate 0.75 and -1 at rate 0.25, whose compensator rate m1 = 0.5 puts
  sigma into the forcing b - m1 sigma; no benchmark workload runs that
  path.

Before timing, both sides run two fixed seeds and must give byte-identical
outputs (CLI files byte for byte, ``runtime_seconds`` of ``summary.json``
aside). When they differ, the script names the first differing file and
the largest relative difference between the numbers of the two sides, and
does not time that workload; after every requested workload has been
checked, it exits with status 1 if any differed. Time a change that moves
output bytes on purpose with perfbench's alternating runs instead. Pair p
then runs one call of each side on seed ``seed + p``, A first in even
pairs and B first in odd ones. The script prints the median
of the per-pair time ratios A/B with its quartiles (above 1: B is faster)
and the number of pairs that B won. Interleaving in one process cancels
most host-speed drift, so it resolves moves of a few percent that separate
benchmark runs do not.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import math
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("d1_tail_suite", "d1_stable_ensemble", "d2_stable_simulate",
             "d1_sine_ensemble", "d2_stable_ensemble", "d1_constant_tail",
             "d1_asymmetric_tail")
CHECK_SEEDS = (11, 12)

_STABLE = {"variant": "stable", "alpha": 1.0, "cutoff": 0.01}
_CONFIGS = {
    "d1_stable_ensemble": dict(dimension=1, modes=128, gamma=2.0, r=1.0,
                               n_steps=100),
    "d2_stable_simulate": dict(dimension=2, modes=64, gamma=3.0, r=1.5,
                               n_steps=50),
}
_CONFIGS["d1_sine_ensemble"] = dict(_CONFIGS["d1_stable_ensemble"],
                                    coefficients="sine")
_CONFIGS["d2_stable_ensemble"] = _CONFIGS["d2_stable_simulate"]
# replicas of an ensemble shape
_REPLICAS = {"d1_stable_ensemble": 16, "d1_sine_ensemble": 16,
             "d2_stable_ensemble": 2}


class OutputsDiffer(SystemExit):
    """The two sides wrote different outputs for one workload."""


def load_package(checkout: Path, name: str):
    """Import ``checkout/src/fswe`` under the top-level name ``name``."""
    root = Path(checkout).resolve() / "src" / "fswe"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    if spec is None:
        raise SystemExit(f"no fswe package under {checkout}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class TailSuite:
    """check_tail_bound at criterion 07's shape, with b=sin and sigma=cos,
    or with the ``constant`` preset, on Rademacher atoms or on ``atoms``;
    its output is the report's verdicts."""

    def __init__(self, fswe, constant: bool = False,
                 atoms=((1.0, 0.5), (-1.0, 0.5))):
        self.fswe = fswe
        pair = (fswe.COEFFICIENT_PRESETS["constant"] if constant
                else fswe.CoefficientPair(np.sin, np.cos, 1.0, 1.0, "wave"))
        self.setup = fswe.make_setup(fswe.build_basis(1, 16), 2.0, 1.0, 1.0,
                                     100, pair)
        self.spec = fswe.LevyMeasureSpec(variant="atoms", atoms=atoms)

    def __call__(self, seed: int):
        return self.fswe.check_tail_bound(self.setup, self.spec,
                                          N_values=(1, 2, 4, 8, 16), R=20,
                                          base_seed=seed)

    @staticmethod
    def output(report) -> list[tuple[str, bytes]]:
        return [("report", repr(report.to_dict()).encode())]


class CliRun:
    """One in-process ``fswe`` CLI call on a stable config; its output is
    the bytes of every file it writes."""

    def __init__(self, fswe, work: Path, name: str):
        self.cli = importlib.import_module(fswe.__name__ + ".cli")
        config = {"T": 1.0, "coefficients": "constant", "noise": _STABLE,
                  "N_max": 8, "K_schedule": [1.0, 2.0, 4.0, 8.0],
                  **_CONFIGS[name]}
        self.config = work / f"{name}.json"
        self.config.write_text(json.dumps(config))
        self.out = work / "out"
        self.command = (["--replicas", str(_REPLICAS[name]), "--workers",
                         "1", "ensemble"] if name in _REPLICAS
                        else ["simulate"])

    def __call__(self, seed: int):
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(["--config", str(self.config), "--seed",
                                str(seed), "--out", str(self.out)]
                               + self.command)
        if rc != 0:
            raise SystemExit(f"fswe exited with status {rc}")
        return self.out

    @staticmethod
    def output(out: Path) -> list[tuple[str, bytes]]:
        parts = []
        for f in sorted(out.iterdir()):
            data = f.read_bytes()
            if f.name == "summary.json":
                summary = json.loads(data)
                summary.pop("runtime_seconds", None)
                data = json.dumps(summary, sort_keys=True).encode()
            parts.append((f.name, data))
        return parts


_NUMBER = re.compile(rb"[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def relative_difference(a: bytes, b: bytes) -> float | None:
    """The largest |x - y| / max(|x|, |y|) over the numbers of a and b,
    paired in order of appearance (0 where they are equal, NaN with NaN
    included); None when a and b hold different counts of numbers."""
    xs, ys = _NUMBER.findall(a), _NUMBER.findall(b)
    if len(xs) != len(ys):
        return None
    largest = 0.0
    for x, y in zip(map(float, xs), map(float, ys)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        largest = max(largest, abs(x - y) / scale if math.isfinite(scale)
                      else math.inf)
    return largest


def describe_difference(a: list[tuple[str, bytes]],
                        b: list[tuple[str, bytes]]) -> str:
    """Where the outputs a and b of one seed differ: the first file whose
    bytes differ, and the largest relative difference over the files that
    both sides wrote."""
    names_a, names_b = [n for n, _ in a], [n for n, _ in b]
    if names_a != names_b:
        return (f"files differ: {sorted(set(names_a) ^ set(names_b))} "
                f"written by one side only")
    differing = [(name, x, y) for (name, x), (_, y) in zip(a, b) if x != y]
    if not differing:
        return "outputs are byte-identical"
    worst, where = 0.0, None
    for name, x, y in differing:
        diff = relative_difference(x, y)
        if diff is None:
            return (f"first differing file {differing[0][0]}; "
                    f"{name} holds different counts of numbers")
        if diff >= worst:
            worst, where = diff, name
    return (f"first differing file {differing[0][0]} (of "
            f"{len(differing)}); largest relative difference {worst:.3g}, "
            f"in {where}")


def make_workload(name: str, fswe, work: Path):
    if name in ("d1_tail_suite", "d1_constant_tail"):
        return TailSuite(fswe, constant=name == "d1_constant_tail")
    if name == "d1_asymmetric_tail":
        return TailSuite(fswe, atoms=((1.0, 0.75), (-1.0, 0.25)))
    work.mkdir(parents=True)
    return CliRun(fswe, work, name)


def timed(run, seed: int) -> float:
    gc.collect()
    t0 = time.perf_counter()
    run(seed)
    return time.perf_counter() - t0


def compare(packages, workload: str, pairs: int, seed: int) -> dict:
    """Check the outputs of the two packages (A, B) on CHECK_SEEDS, then
    time ``pairs`` alternating pairs; print and return the summary. Raises
    OutputsDiffer, naming the difference, when the outputs differ."""
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as tmp:
        runs = [make_workload(workload, fswe, Path(tmp) / fswe.__name__)
                for fswe in packages]
        for s in CHECK_SEEDS:
            outputs = [run.output(run(s)) for run in runs]
            if outputs[0] != outputs[1]:
                raise OutputsDiffer(f"{workload}: outputs differ at seed "
                                    f"{s}: " + describe_difference(*outputs))
        ratios = []
        for p in range(pairs):
            order = (0, 1) if p % 2 == 0 else (1, 0)
            t = [0.0, 0.0]
            for side in order:
                t[side] = timed(runs[side], seed + p)
            ratios.append(t[0] / t[1])
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if pairs > 1 else ratios * 3)
    result = {"workload": workload, "pairs": pairs, "median": median,
              "q1": q1, "q3": q3, "b_won": sum(r > 1.0 for r in ratios)}
    print(f"{workload}: outputs byte-identical on seeds {CHECK_SEEDS}; "
          f"time ratio A/B median {median:.3f} [{q1:.3f}, {q3:.3f}], "
          f"B faster in {result['b_won']} of {pairs} pairs")
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", type=Path, required=True,
                   help="checkout A (the baseline)")
    p.add_argument("--b", type=Path, required=True,
                   help="checkout B (the change)")
    p.add_argument("--workload", choices=WORKLOADS, action="append",
                   help="workload to time (repeatable; default all)")
    p.add_argument("--pairs", type=int, default=40)
    p.add_argument("--seed", type=int, default=1000,
                   help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    packages = (load_package(args.a, "fswe_a"),
                load_package(args.b, "fswe_b"))
    differing = []
    for workload in args.workload or WORKLOADS:
        try:
            compare(packages, workload, args.pairs, args.seed)
        except OutputsDiffer as differ:
            print(differ.code, flush=True)
            differing.append(workload)
    if differing:
        print(f"outputs differ on {len(differing)} workload(s): "
              f"{', '.join(differing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
