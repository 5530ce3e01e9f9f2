"""The import structure of the package, read from the source by AST: no
module reaches into another's private names, and the piece algebra sits
below both the bodies and the optimizer, so neither imports around a cycle."""

import ast
from pathlib import Path

import pytest

import waistlab

SRC = Path(waistlab.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _imports(module):
    """(waistlab module imported, names imported from it, whether the
    import sits inside a function) for every import of a waistlab module."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    inner = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)}
    out = []
    for node in ast.walk(tree):
        local = id(node) in inner
        if isinstance(node, ast.Import):
            out += [(a.name.split(".")[1], [], local) for a in node.names
                    if a.name.startswith("waistlab.")]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "waistlab"):
            names = [a.name for a in node.names]
            if node.module in (None, "waistlab"):  # from . import a, b
                out += [(name, [], local) for name in names]
            else:
                out.append((node.module.removeprefix("waistlab."), names, local))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name_of_another(module):
    private = [(source, name) for source, names, _ in _imports(module)
               for name in names if name.startswith("_")]
    assert not private


def test_bodies_imports_waistlab_modules_at_top_level_only():
    assert not [source for source, _, local in _imports("bodies") if local]


def test_pieces_imports_only_util_and_errors():
    assert {source for source, _, _ in _imports("pieces")} <= {"_util", "errors"}


def test_optimize_does_not_import_bodies():
    assert "bodies" not in {source for source, _, _ in _imports("optimize")}
