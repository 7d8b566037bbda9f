"""Tests of the benchmark's checker and tracer.

    python3 -m pytest perfbench -q

The negative controls feed deliberately broken trajectories to the checker
and require it to mark each one failed.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from run import END_TO_END, checks, tracing, workloads

from fswe import cli, verify

ROOT = Path(__file__).resolve().parent.parent
SIM_CONFIG = {"dimension": 1, "modes": 8, "gamma": 2.0, "r": 1.0, "T": 1.0,
              "n_steps": 20, "coefficients": "constant",
              "noise": workloads.STABLE, "K_schedule": workloads.K_SCHEDULE}


@pytest.fixture(scope="module")
def control():
    return checks.control_output()


def _kw(lam_r, jumps):
    return dict(lam_r=lam_r, N_max=8, K_schedule=checks.CONTROL_K,
                jumps=jumps)


def test_valid_output_passes(control):
    out, lam_r, jumps = control
    assert checks.check_output(out, **_kw(lam_r, jumps)) == []


@pytest.mark.parametrize("defect", ["coefficient perturbed",
                                    "non-finite norm", "identically zero",
                                    "level record shifted", "tau^K moved"])
def test_perturbed_output_fails(control, defect):
    out, lam_r, jumps = control
    bad = checks.perturbations(out)[defect]
    assert checks.check_output(bad, **_kw(lam_r, jumps))


def test_negative_control_reports_nothing_on_a_sound_checker():
    assert checks.negative_control() == []


def test_perturbed_csv_coefficient_fails(tmp_path):
    """End to end through the CLI's files: one coefficient in the written
    CSV is nudged by one part in a million and the checker rejects it."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    out_dir = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--seed", "5", "--out",
                     str(out_dir), "simulate"]) == 0
    setup = cli.parse_config(cfg).build()

    def check():
        (out,) = checks.read_cli_outputs(out_dir)
        return checks.check_output(out, setup.lam_r, 8, checks.CONTROL_K)

    assert check() == []
    csv = out_dir / "trajectory.csv"
    lines = csv.read_text().splitlines()
    row = lines[10].split(",")
    row[4] = repr(float(row[4]) * (1.0 + 1e-6))
    lines[10] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    assert any("hr_norm differs" in p for p in check())


def test_reference_mismatch_is_reported(control):
    out, _, _ = control
    stored = checks.to_reference([out])
    actual = checks.to_reference([out])
    assert checks.compare_reference(actual, stored, 1e-9, 1e-12) == []
    actual["close"]["control.hr_norms"][5] *= 1.0 + 1e-6
    actual["exact"]["control.cap_reached"] = not out.cap_reached
    assert len(checks.compare_reference(actual, stored, 1e-9, 1e-12)) == 2


def test_failed_verdicts_are_reported():
    setup = workloads.TailSuite().build_setup()
    report = verify.check_tail_bound(setup, workloads.RADEMACHER,
                                     N_values=(1, 2), R=20, base_seed=9,
                                     corrupt=True)
    assert checks.check_report(report, 20, 2)
    report = verify.check_tail_bound(setup, workloads.RADEMACHER,
                                     N_values=(1, 2), R=20, base_seed=9)
    assert checks.check_report(report, 20, 2) == []


def test_tracer_restores_and_computes_self_time():
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        setup = workloads.TailSuite().build_setup()
        verify.check_tail_bound(setup, workloads.RADEMACHER, N_values=(1,),
                                R=1, base_seed=3)
    assert [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS] \
        == originals
    calls, total, own = tracer.self_times()
    assert calls["solver.step"] == setup.n_steps
    assert calls["verify.check_tail_bound"] == 1
    assert calls["basis.build_basis"] == 1
    # self times add up to the root spans' durations
    roots = sum(t1 - t0 for _, t0, t1, parent, _ in tracer.spans
                if parent < 0)
    assert math.isclose(sum(own.values()), roots, rel_tol=1e-9)


def test_benchmark_json_lists_the_measured_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == [
        (n, u, b) for n, u, b, _ in tracing.LAYER_METRICS]


def test_call_seeds_are_disjoint():
    seeds = {verify.replica_seed(workloads.call_seed(s, c), i)
             for s in range(3) for c in range(50) for i in range(20)}
    assert len(seeds) == 3 * 50 * 20
    assert workloads.REFERENCE_SEED not in seeds


def test_neighbouring_seeds_give_different_inputs(tmp_path):
    # seed 106 and 107 both draw a first tail-suite path with no jumps
    for wl in workloads.WORKLOADS.values():
        wl.prepare(tmp_path)
        assert not np.array_equal(wl.inputs(106), wl.inputs(107)), wl.name
