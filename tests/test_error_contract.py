"""One error contract: the panel loop only reports, and few places raise.

``_adaptive_panels`` returns what it reached and its caller judges it.
``ToleranceNotReached`` is raised by the one helper every integration
route ends in, by the planar ray stop (a ray that misses its share leaves
the plane without a bound) and by ``norm_value`` after its retries.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/phasenorm/*.py"))
ALLOWED = {("quadrature.py", "checked"), ("quadrature.py", "ray_panels"),
           ("quantifier.py", "norm_value")}


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None


def raise_sites(source):
    """(innermost function, raised name) of every ``raise`` in ``source``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            found.append((function, _raised_name(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("code,site", [
    ("def f():\n    raise ToleranceNotReached('x', est)", ("f", "ToleranceNotReached")),
    ("def f():\n    def g():\n        raise quadrature.ToleranceNotReached('x', e)\n",
     ("g", "ToleranceNotReached")),
    ("def _adaptive_panels(g):\n    raise RuntimeError", ("_adaptive_panels", "RuntimeError")),
])
def test_guard_detects(code, site):
    assert site in raise_sites(code)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"src/{p.name}")
def test_panel_loop_never_raises(path):
    assert [s for s in raise_sites(path.read_text()) if s[0] == "_adaptive_panels"] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"src/{p.name}")
def test_tolerance_raised_only_at_the_contract_sites(path):
    outside = [function for function, name in raise_sites(path.read_text())
               if name == "ToleranceNotReached" and (path.name, function) not in ALLOWED]
    assert outside == []
