"""Span tracing of the fswe layers from outside the package.

``installed(tracer)`` replaces each public function at the module (or class)
where its caller looks it up, e.g. ``fswe.solver.step`` for the solver's own
step loop and ``fswe.cli.paste_over_K`` for the CLI, and restores the
originals on exit. Untraced runs never enter it, so they run unwrapped code.

Spans are kept in memory as [name, start, end, parent, op] and written out
when the run ends. A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import fswe.basis
import fswe.cli
import fswe.solver
import fswe.verify

# (owner, attribute, span name). A name maps several lookup sites to one
# layer function.
TARGETS = [
    (fswe.basis, "build_basis", "basis.build_basis"),
    (fswe.cli, "build_basis", "basis.build_basis"),
    (fswe.solver, "embedding_constant", "basis.embedding_constant"),
    (fswe.basis.EigenBasis, "evaluate_modes", None),  # named per call
    (fswe.verify, "sample_path", "noise.sample_path"),
    (fswe.cli, "sample_path", "noise.sample_path"),
    (fswe.solver, "truncate", "noise.truncate"),
    (fswe.solver, "first_large_jump", "noise.first_large_jump"),
    (fswe.solver, "step", "solver.step"),
    (fswe.solver.ModeState, "rebuild_u", "solver.rebuild_u"),
    (fswe.verify, "solve_truncated", "solver.solve_truncated"),
    (fswe.solver, "solve_truncated", "solver.solve_truncated"),
    (fswe.solver, "paste_over_N", "solver.paste_over_N"),
    (fswe.cli, "paste_over_N", "solver.paste_over_N"),
    (fswe.cli, "paste_over_K", "solver.paste_over_K"),
    (fswe.verify, "check_tail_bound", "verify.check_tail_bound"),
    (fswe.cli.RunConfig, "build", "cli.build"),
    (fswe.cli, "write_trajectory_csv", "cli.write"),
    (fswe.cli, "write_summary", "cli.write"),
]

# Per-layer metrics: (name, unit, better, the end-to-end metric and
# workload it should move). BENCHMARK.json lists the same names and units.
LAYER_METRICS = [
    ("basis.build_basis_s", "s", "lower",
     "setup_s on all; ops_per_s on d2_stable_simulate (set-up per call)"),
    ("basis.embedding_constant_s", "s", "lower",
     "setup_s on all; ops_per_s on d2_stable_simulate (set-up per call)"),
    ("basis.mode_tables_mb", "MB", "lower",
     "peak_rss_mb on d2_stable_simulate"),
    ("basis.mode_tables_s", "s", "lower",
     "ops_per_s on d2_stable_simulate (tables rebuilt per call)"),
    ("basis.evaluate_modes_calls", "count", "lower",
     "ops_per_s on d1_stable_ensemble (jump scatter)"),
    ("basis.evaluate_modes_s", "s", "lower",
     "ops_per_s on d1_stable_ensemble (jump scatter)"),
    ("noise.sample_path_calls", "count", "lower",
     "ops_per_s on d2_stable_simulate"),
    ("noise.sample_path_s", "s", "lower",
     "ops_per_s on d2_stable_simulate (~5%), d1_tail_suite (~1%)"),
    ("noise.surrogate_draws", "count", "lower",
     "ops_per_s on d2_stable_simulate"),
    ("noise.jumps_per_path", "count", "lower",
     "workload property of d1_stable_ensemble; must not move"),
    ("noise.truncate_s", "s", "lower", "ops_per_s on d1_stable_ensemble"),
    ("noise.first_large_jump_s", "s", "lower",
     "ops_per_s on d1_stable_ensemble"),
    ("solver.step_calls", "count", "lower", "ops_per_s on all"),
    ("solver.step_s", "s", "lower", "ops_per_s on all"),
    ("solver.step_us_mean", "us", "lower", "ops_per_s on all"),
    ("solver.rebuild_u_s", "s", "lower", "ops_per_s on all"),
    ("solver.solve_truncated_self_s", "s", "lower",
     "ops_per_s on d1_tail_suite"),
    ("solver.paste_self_s", "s", "lower",
     "ops_per_s on d1_stable_ensemble and d2_stable_simulate"),
    ("solver.steps_per_output_step", "ratio", "lower",
     "ops_per_s on d1_stable_ensemble and d2_stable_simulate; "
     "fixed at 5 on d1_tail_suite"),
    ("solver.levels_N_mean", "count", "lower",
     "workload property; must not move"),
    ("solver.levels_K_mean", "count", "lower",
     "workload property; must not move"),
    ("solver.cap_reached", "count", "lower",
     "workload property; must not move"),
    ("verify.suite_self_s", "s", "lower", "ops_per_s on d1_tail_suite"),
    ("verify.verdicts_failed", "count", "lower", "fail_ratio on all"),
    ("cli.build_s", "s", "lower", "setup_s on the CLI workloads"),
    ("cli.write_s", "s", "lower", "ops_per_s on d1_stable_ensemble"),
    ("cli.bytes_written", "bytes", "lower",
     "ops_per_s on d1_stable_ensemble"),
    ("trace.ops", "count", "higher", "size of the traced phase"),
    ("trace.spans", "count", "lower", "tracing cost"),
    ("trace.ops_per_s_untraced", "1/s", "higher",
     "ops_per_s of the same calls without wrappers"),
    ("trace.ops_per_s_traced", "1/s", "higher",
     "ops_per_s of the same calls with wrappers"),
    ("trace.overhead_pct", "%", "lower",
     "tracing overhead: untraced over traced rate, minus one"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0
        self.enabled = True
        self.missing: list[str] = []
        self.setups: list = []            # SolveSetups the CLI built
        self.surrogate_draws = 0
        self.hooks = {"noise.sample_path": self._count_draws,
                      "cli.build": self.setups.append}

    def _count_draws(self, path) -> None:
        if path.surrogate is not None:
            self.surrogate_draws += path.surrogate.size

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name):
        """Wrap fn; ``name`` None means choose per call (evaluate_modes)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = (name or tracer._modes_span(args)
                         if tracer.enabled else None)
            if span_name is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [span_name, time.perf_counter(), 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if span_name in tracer.hooks:
                tracer.hooks[span_name](result)
            return result
        return wrapper

    def _modes_span(self, args) -> str | None:
        """evaluate_modes is the jump scatter when step calls it on a few
        points, the lazy mode-table fill when step calls it on a whole
        grid, and part of the probe otherwise (no span of its own)."""
        if self._parent_name() != "solver.step":
            return None
        bas, points = args[0], args[1]
        if len(points) >= bas.cell_count:
            return "basis.mode_tables"
        return "basis.evaluate_modes"

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: calls, total duration, self time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, total, own = defaultdict(int), defaultdict(float), \
            defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
        return calls, total, own

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target that exists; a target the program no longer has
    is listed in ``tracer.missing`` and its metrics read 0."""
    present = [t for t in TARGETS if t[1] in vars(t[0])]
    tracer.missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in TARGETS
                      if attr not in vars(owner)]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in present]
    try:
        for owner, attr, name in present:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def mode_tables_mb(setups) -> float:
    """Largest size of the cached grid and cell mode tables of a basis."""
    return max((sum(a.nbytes for a in s.basis._grid_cache.values())
                for s in setups), default=0) / 2**20


def layer_metrics(tracer: Tracer, ops: int, output_steps: int,
                  props: dict, tables_mb: float) -> dict:
    """Per-layer values from the spans of the traced calls and from the
    workload properties their outputs showed."""
    calls, total, own = tracer.self_times()
    steps = calls["solver.step"]
    return {
        "basis.build_basis_s": own["basis.build_basis"],
        "basis.embedding_constant_s": own["basis.embedding_constant"],
        "basis.mode_tables_mb": tables_mb,
        "basis.mode_tables_s": own["basis.mode_tables"],
        "basis.evaluate_modes_calls": calls["basis.evaluate_modes"],
        "basis.evaluate_modes_s": own["basis.evaluate_modes"],
        "noise.sample_path_calls": calls["noise.sample_path"],
        "noise.sample_path_s": own["noise.sample_path"],
        "noise.surrogate_draws": tracer.surrogate_draws,
        "noise.jumps_per_path": props["jumps_per_path"],
        "noise.truncate_s": own["noise.truncate"],
        "noise.first_large_jump_s": own["noise.first_large_jump"],
        "solver.step_calls": steps,
        "solver.step_s": own["solver.step"],
        "solver.step_us_mean": 1e6 * total["solver.step"] / max(steps, 1),
        "solver.rebuild_u_s": own["solver.rebuild_u"],
        "solver.solve_truncated_self_s": own["solver.solve_truncated"],
        "solver.paste_self_s": (own["solver.paste_over_N"]
                                + own["solver.paste_over_K"]),
        "solver.steps_per_output_step": steps / max(output_steps, 1),
        "solver.levels_N_mean": props["levels_N_mean"],
        "solver.levels_K_mean": props["levels_K_mean"],
        "solver.cap_reached": props["cap_reached"],
        "verify.suite_self_s": own["verify.check_tail_bound"],
        "verify.verdicts_failed": props["verdicts_failed"],
        "cli.build_s": own["cli.build"],
        "cli.write_s": own["cli.write"],
        "cli.bytes_written": props["bytes_written"],
        "trace.ops": ops,
        "trace.spans": len(tracer.spans),
    }
