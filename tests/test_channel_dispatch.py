"""Only the channel fold and the Fock transition laws dispatch on primitive types."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/phasenorm/*.py"))
PRIMITIVES = {"Attenuator", "Amplifier", "Rotation", "Displacement"}
# ChannelSpec.fold serves both engines; apply_channel_fock is the
# element-wise oracle of the transition laws
ALLOWED = {("channels.py", "fold"), ("fock.py", "apply_channel_fock")}


def _names(node):
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _names(elt)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def primitive_dispatch(source):
    """Names of the functions in ``source`` that isinstance-test a channel primitive."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and _names(node.args[1]) & PRIMITIVES):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("code", [
    "def apply(el):\n    if isinstance(el, Attenuator):\n        pass",
    "def apply(el):\n    return isinstance(el, (Rotation, Displacement))",
    "def apply(el):\n    return isinstance(el, channels.Amplifier)",
    "ok = isinstance(x, Amplifier)",
])
def test_guard_detects(code):
    assert primitive_dispatch(code)


def test_guard_ignores_other_types():
    assert primitive_dispatch("def f(s):\n    return isinstance(s, GaussianState)") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"src/{p.name}")
def test_only_the_fold_dispatches(path):
    outside = [function for function in primitive_dispatch(path.read_text())
               if (path.name, function) not in ALLOWED]
    assert outside == []
