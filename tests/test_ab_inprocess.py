"""Tests of tools/ab_inprocess.py: a checkout against itself, and the
report of outputs that differ."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "ab_inprocess", ROOT / "tools" / "ab_inprocess.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_checkout_against_itself(capsys):
    tool = _tool()
    packages = (tool.load_package(ROOT, "fswe_a"),
                tool.load_package(ROOT, "fswe_b"))
    # two copies of the package, not one module under two names
    assert packages[0] is not packages[1]
    assert packages[0].solver.step is not packages[1].solver.step
    # the tail suite, with sigma = cos, with a constant sigma and with the
    # compensator of asymmetric atoms, and the raw surrogate feed of a
    # sigma that reads the state; no benchmark workload runs the last two
    for workload in ("d1_tail_suite", "d1_constant_tail",
                     "d1_asymmetric_tail", "d1_sine_ensemble"):
        result = tool.compare(packages, workload, pairs=2, seed=5)
        assert result["pairs"] == 2 and 0 <= result["b_won"] <= 2
        assert result["q1"] <= result["median"] <= result["q3"]
        assert "byte-identical" in capsys.readouterr().out


def test_relative_difference_pairs_the_numbers():
    tool = _tool()
    a = b"t,u_0\n0.0,1.0\n0.5,-2e-3\n"
    assert tool.relative_difference(a, a) == 0.0
    diff = tool.relative_difference(a, b"t,u_0\n0.0,1.0\n0.5,-2.000002e-3\n")
    assert diff == pytest.approx(1e-6, rel=1e-5)
    assert tool.relative_difference(b"inf,nan", b"inf,nan") == 0.0
    assert tool.relative_difference(a, a + b"1.0\n") is None


def test_differing_outputs_name_the_file(monkeypatch):
    tool = _tool()
    packages = (tool.load_package(ROOT, "fswe_a"),
                tool.load_package(ROOT, "fswe_b"))
    suite = packages[1].check_tail_bound

    def perturbed(*args, **kwargs):
        # B's largest observed value moves by one part in 1e6
        report = suite(*args, **kwargs)
        verdict = max(report.verdicts, key=lambda v: abs(v.observed))
        verdict.observed *= 1.0 + 1e-6
        return report

    monkeypatch.setattr(packages[1], "check_tail_bound", perturbed)
    with pytest.raises(SystemExit) as stopped:
        tool.compare(packages, "d1_tail_suite", pairs=2, seed=5)
    message = str(stopped.value.code)
    assert message.startswith("d1_tail_suite: outputs differ at seed 11")
    assert "first differing file report" in message
    worst = float(message.split("largest relative difference ")[1].split(",")[0])
    assert worst == pytest.approx(1e-6, rel=1e-3)


def test_every_workload_is_checked_before_exit_1(monkeypatch, capsys):
    # B's tail suite with sigma = cos differs, its constant one does not:
    # the run reports the first, still checks and times the second, and
    # only then exits 1
    tool = _tool()
    load = tool.load_package

    def loaded(checkout, name):
        package = load(checkout, name)
        if name == "fswe_b":
            suite = package.check_tail_bound

            def perturbed(setup, *args, **kwargs):
                report = suite(setup, *args, **kwargs)
                if setup.pair.name == "wave":
                    report.verdicts[0].observed += 1.0
                return report

            monkeypatch.setattr(package, "check_tail_bound", perturbed)
        return package

    monkeypatch.setattr(tool, "load_package", loaded)
    rc = tool.main(["--a", str(ROOT), "--b", str(ROOT), "--pairs", "1",
                    "--workload", "d1_tail_suite",
                    "--workload", "d1_constant_tail"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "d1_tail_suite: outputs differ at seed 11" in out
    assert "d1_constant_tail: outputs byte-identical" in out
    assert out.rstrip().endswith("outputs differ on 1 workload(s): "
                                 "d1_tail_suite")
