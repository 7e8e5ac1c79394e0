"""Only ``fock`` knows how the exact p = 1 Fock route is certified.

The leading-weight search, its term bound, the masses and the budget
share meet in :func:`phasenorm.fock.radial_l1`, which only ``quantifier``
and ``verify`` call; ``quadrature`` names nothing of ``fock`` at all.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/phasenorm/*.py"))
ROUTE = {"leading_cutoff", "term_l1_bound", "wigner_mass_outside", "LEADING_SHARE"}


def names(source):
    """Every name that ``source`` uses, imports or defines."""
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
    return found


def route_names(source):
    """The route's names that ``source`` uses, imports or defines."""
    return names(source) & ROUTE


def definitions(source):
    """Names of the functions ``source`` defines, at any depth."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def calls(source, name):
    """Whether ``source`` calls ``name``, bare or as an attribute."""
    return any(isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(source)))


def top_level_names(source):
    """Names ``source`` binds at module level: its functions, classes and constants."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Assign):
            found |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    return found


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


@pytest.mark.parametrize("code,name,called", [
    ("est, = radial_l1(state, ((0.0, None),), (tol,))", "radial_l1", True),
    ("ests = fock.radial_l1(state, signals, tols)", "radial_l1", True),
    ("from .fock import radial_l1", "radial_l1", False),
    ("route = radial_l1", "radial_l1", False),
])
def test_call_guard_detects(code, name, called):
    assert calls(code, name) == called


def test_exact_route_is_defined_only_in_fock():
    assert [p.name for p in SOURCES if "radial_l1" in definitions(p.read_text())] == ["fock.py"]


def test_only_quantifier_and_verify_call_the_exact_route():
    assert [p.name for p in SOURCES if calls(p.read_text(), "radial_l1")] == [
        "quantifier.py", "verify.py"]


def test_quadrature_names_nothing_of_fock():
    fock = top_level_names((ROOT / "src/phasenorm/fock.py").read_text())
    assert {"radial_l1", "radial_profile", "sign_search", "leading_cutoff"} <= fock
    assert names((ROOT / "src/phasenorm/quadrature.py").read_text()) & (fock | {"fock"}) == set()
