"""Run one fswe benchmark workload and print its metrics.

    python3 perfbench/run.py --workload d1_tail_suite --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout: the fswe package is imported from
``src/`` next to this directory, never from an installed copy, and the run
fails if it is missing. A run

1. checks the output checker on perturbed trajectories (negative control),
2. compares fixed-seed outputs with ``reference.json`` and repeats them to
   show that one seed gives bit-identical outputs, and that the run's seed
   and the next one give different inputs,
3. times the workload's set-up ``setup_reps`` times,
4. calls the workload in a closed loop until the timed calls add up to
   ``--seconds`` and a whole block of calls is done, checking every
   call's outputs after its clock stops,
5. with ``--trace 1``, calls the first ``trace_calls`` calls again with
   every layer wrapped (see tracing.py) and reports per-layer metrics.

A calibration kernel runs between set-up reps and between calls, and every
time is reported at nominal host speed (see calibration.py).

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Results, the
environment and spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def import_fswe():
    """Import fswe from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fswe
    except ImportError as exc:
        raise SystemExit(f"error: cannot import fswe from {src}: {exc}")
    if Path(fswe.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: fswe imported from {fswe.__file__}, "
                         f"not from {src}")


import_fswe()

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def spread(values: list[float]) -> dict:
    """Median, quartiles and quartile distance over median."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def _blas_threads():
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "base_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="base seed, 0 <= seed < 2**31")
    p.add_argument("--seconds", type=float, required=True,
                   help="summed duration of the timed calls")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**31:
        p.error("--seed must be in [0, 2**31)")
    return args


def check_reference(wl) -> tuple[list[str], bool]:
    """Reference comparison and same-seed determinism; returns problems
    and whether the outputs matched the stored ones bit for bit."""
    stored = json.loads(REFERENCE.read_text())
    tol = stored["tolerance"]
    ref = stored["workloads"][wl.name]
    first = wl.reference()
    problems = checks.compare_reference(first, ref, tol["rtol"], tol["atol"])
    if checks.digest(wl.reference()) != checks.digest(first):
        problems.append("the same seed gave different outputs")
    return problems, checks.digest(first) == ref["sha256"]


def timed_call(wl, seed, problems):
    """One call: (seconds, result or None if it raised)."""
    wl.before_call()
    t0 = time.perf_counter()
    try:
        result = wl.call(seed)
    except Exception:
        problems.append(traceback.format_exc(limit=3))
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, result


def checked(wl, seed, result):
    """Check one call; a call that raised, or whose outputs cannot be
    read, fails all its ops."""
    if result is not None:
        try:
            return wl.check(seed, result)
        except Exception:
            problem = traceback.format_exc(limit=3)
    else:
        problem = "the call raised"
    return workloads.Checked(ops=wl.replicas, failed=wl.replicas,
                             problems=[problem])


@dataclass
class Call:
    seed: int
    seconds: float      # wall time of the call
    checked: object     # workloads.Checked


def call_loop(wl, seeds, cal, done, problems, tracer=None):
    """Closed loop of timed calls, each followed by the calibration kernel
    and then by its output checks, until ``done(calls)``."""
    calls = []
    while not done(calls):
        seed = next(seeds)
        if tracer is not None:
            tracer.op = len(calls)
        dt, result = timed_call(wl, seed, problems)
        if tracer is not None:
            tracer.enabled = False
        cal.measure()
        res = checked(wl, seed, result)
        if tracer is not None:
            tracer.enabled = True
        calls.append(Call(seed, dt, res))
    return calls


def run(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{wl.name}-{os.getpid()}"
    try:
        return _run(args, wl, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, env, work) -> int:
    problems = checks.negative_control()
    wl.prepare(work)
    ref_problems, bitwise = check_reference(wl)
    problems += ref_problems
    if np.array_equal(wl.inputs(args.seed), wl.inputs(args.seed + 1)):
        problems.append("seeds n and n+1 gave the same inputs")

    # set-up reps spread out between calibration kernels, like the calls
    cal = calibration.Calibrator(wl.calibration)
    cal.measure()
    setup_times = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        for _ in range(wl.setup_batch):
            wl.build_setup()
        setup_times.append((time.perf_counter() - t0) / wl.setup_batch)
        cal.measure()
    setup_scaled = cal.scaled(setup_times)

    # whole blocks of calls, so that every run does the same mix of work
    calls = call_loop(
        wl, wl.call_seeds(args.seed), cal,
        lambda cs: (sum(c.seconds for c in cs) >= args.seconds
                    and len(cs) % wl.block == 0),
        problems)
    calls_scaled = cal.scaled([c.seconds for c in calls])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = [c.checked for c in calls]
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    problems += [p for r in results for p in r.problems]

    raw = {"setup_s": statistics.median(setup_times),
           "ops_per_s": attempted / sum(c.seconds for c in calls)}
    e2e = {"setup_s": statistics.median(setup_scaled),
           "ops_per_s": attempted / sum(calls_scaled),
           "peak_rss_mb": peak_rss_mb}
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    summary = {
        "env": env,
        "calls": len(calls), "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "reference_bitwise": bitwise,
        "end_to_end": e2e,
        "unscaled": raw,
        "calibration": {"kernel": wl.calibration, "nominal_s": cal.nominal,
                        "measured_s": spread(cal.times)},
        "steadiness": {
            "setup_s": spread(setup_scaled),
            "call_ops_per_s": spread([r.ops / t for r, t
                                      in zip(results, calls_scaled)])},
        "workload_properties": workload_properties(results),
    }
    if args.trace:
        layers, trace_problems = traced_phase(
            args, wl, calls_scaled[:wl.trace_calls], calls)
        problems += trace_problems
        summary["per_layer"] = layers
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _, _ in tracing.LAYER_METRICS}
    summary["problems"] = problems

    print(f"env {json.dumps(env)}")
    print(f"workload {wl.name}: {len(calls)} calls, {attempted} ops, "
          f"{failed} failed; reference "
          f"{'ok' if not ref_problems else 'MISMATCH'} "
          f"(bitwise {'equal' if bitwise else 'different'})")
    for name, unit in END_TO_END.items():
        print(f"{name} = {e2e[name]:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio")
    print(f"unscaled (host speed as measured) {json.dumps(raw)}; "
          f"calibration {json.dumps(summary['calibration'])}")
    for name, values in summary["steadiness"].items():
        print(f"steadiness {name} {json.dumps(values)}")
    print(f"properties {json.dumps(summary['workload_properties'])}")
    if args.trace:
        for name, unit, _, moves in tracing.LAYER_METRICS:
            print(f"{name} = {layers[name]:.6g} {unit}  [{moves}]")
    for p in problems[:20]:
        print(f"problem: {p}")

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump(summary, fh, indent=1, default=str)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def workload_properties(results) -> dict:
    jumps = [j for r in results for j in r.jumps]
    lv_N = [v for r in results for v in r.levels_N]
    lv_K = [v for r in results for v in r.levels_K]
    return {
        "trajectories": len(lv_N),
        "jumps_per_path": statistics.fmean(jumps) if jumps else 0.0,
        "levels_N_mean": statistics.fmean(lv_N) if lv_N else 0.0,
        "levels_K_mean": statistics.fmean(lv_K) if lv_K else 0.0,
        "cap_reached": sum(r.cap_reached for r in results),
        "bytes_written": sum(r.bytes_written for r in results),
    }


def traced_phase(args, wl, untraced_scaled, calls):
    """Build the set-up once and repeat the first calls with every layer
    wrapped. Returns per-layer metrics, with the traced rate against the
    untraced rate of the same calls, each at nominal host speed, and any
    problems the calls showed."""
    first = calls[:len(untraced_scaled)]
    cal = calibration.Calibrator(wl.calibration)
    tracer = tracing.Tracer()
    problems = []
    with tracing.installed(tracer):
        tracer.op = -1
        wl.build_setup()
        cal.measure()
        traced = call_loop(wl, iter([c.seed for c in first]), cal,
                           lambda cs: len(cs) == len(first), problems,
                           tracer)
    results = [c.checked for c in traced]
    problems += [p for r in results for p in r.problems]
    for name in tracer.missing:
        print(f"trace target {name} no longer exists; its metrics read 0")
    ops = sum(r.ops for r in results)
    props = workload_properties(results)
    props["verdicts_failed"] = sum(r.verdicts_failed for r in results)
    layers = tracing.layer_metrics(
        tracer, ops, props["trajectories"] * wl.n_steps, props,
        tracing.mode_tables_mb([wl.setup] + tracer.setups))
    untraced_rate = ops / sum(untraced_scaled)
    traced_rate = ops / sum(cal.scaled([c.seconds for c in traced]))
    layers["trace.ops_per_s_untraced"] = untraced_rate
    layers["trace.ops_per_s_traced"] = traced_rate
    layers["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1)
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json")
    return layers, problems


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
