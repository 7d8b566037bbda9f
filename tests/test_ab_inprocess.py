"""Smoke test of tools/ab_inprocess.py: a checkout against itself."""

import importlib.util
from pathlib import Path

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
    result = tool.compare(packages, "d1_tail_suite", pairs=2, seed=5)
    assert result["pairs"] == 2 and 0 <= result["b_won"] <= 2
    assert result["q1"] <= result["median"] <= result["q3"]
    assert "byte-identical" in capsys.readouterr().out
