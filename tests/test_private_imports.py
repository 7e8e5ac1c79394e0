"""No package or test module imports a private phasenorm module or name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/phasenorm/*.py")) + sorted(ROOT.glob("tests/*.py"))


def private_imports(source):
    """Dotted paths of the underscore-prefixed phasenorm imports in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names if a.name.split(".")[0] == "phasenorm"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "phasenorm"):
            paths = [f"{'.' * node.level}{node.module or ''}.{a.name}" for a in node.names]
        else:
            continue
        found += [path for path in paths
                  if any(part.startswith("_") and not part.endswith("__")
                         for part in path.split("."))]
    return found


@pytest.mark.parametrize("code", [
    "from phasenorm.quantifier import _integral_once",
    "from .quantifier import measure_m, _helper",
    "from . import _kernels",
    "import phasenorm._kernels",
])
def test_guard_detects(code):
    assert private_imports(code)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []
