"""Only ``fock`` knows how the exact p = 1 Fock route is certified.

The leading-weight search, its term bound, the masses and the budget
share meet in :func:`phasenorm.fock.radial_profile`; every other module
sees a ``RadialProfile`` and its ``l1`` hook.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/phasenorm/*.py"))
ROUTE = {"leading_cutoff", "term_l1_bound", "wigner_mass_outside", "LEADING_SHARE"}


def route_names(source):
    """The route's names that ``source`` uses, imports or defines."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(node.name)
    return found & ROUTE


@pytest.mark.parametrize("code", [
    "from .fock import leading_cutoff",
    "from .fock import LEADING_SHARE as share",
    "bound = fock.term_l1_bound(0.0, 3)",
    "def f(state):\n    return wigner_mass_outside(state, 0.0, 1.0)",
    "import phasenorm.fock\nx = phasenorm.fock.LEADING_SHARE * tol",
])
def test_guard_detects(code):
    assert route_names(code)


def test_guard_ignores_the_profile():
    assert route_names("from .fock import radial_profile\np = radial_profile(s, 0.0, CG)") == set()


def test_fock_holds_the_route():
    assert route_names((ROOT / "src/phasenorm/fock.py").read_text()) == ROUTE


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "fock.py"],
                         ids=lambda p: f"src/{p.name}")
def test_route_stays_in_fock(path):
    assert route_names(path.read_text()) == set()
