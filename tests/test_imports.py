"""fswe needs only numpy at runtime: every import of a module under
src/fswe is numpy, a standard-library module or fswe itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fswe"
ALLOWED = {"numpy", "fswe"} | set(sys.stdlib_module_names)


def _imported(tree: ast.Module) -> list[str]:
    """The top-level package of every absolute import in the tree."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


@pytest.mark.parametrize("module", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_imports_are_numpy_stdlib_or_fswe(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    assert set(_imported(tree)) - ALLOWED == set()


def test_the_check_sees_imports():
    tree = ast.parse("import os.path\nimport scipy\nfrom numpy import pi\n"
                     "from . import noise\ndef f():\n    import pandas\n")
    assert _imported(tree) == ["os", "scipy", "numpy", "pandas"]
