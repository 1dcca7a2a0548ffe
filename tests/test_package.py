"""The package as a whole: importing it stays cheap, and its modules and the
test files carry no leftovers of removed code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spikesim

PACKAGE = Path(spikesim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_import_and_building_specs_load_no_compiled_library():
    # The compiled library, and subprocess for its build, load on the first
    # run that wants them, never at import or when a process is built.
    code = ("import sys, spikesim\n"
            "p = spikesim.ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)\n"
            "spikesim.build_global(p, 10), spikesim.build_meanfield(p), spikesim.build_oneunit(p)\n"
            "print(sorted({'spikesim._compiled', 'subprocess'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout == "[]\n"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds in the module, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every name the code reads, directly or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"] + TESTS,
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name}: imported and never used"


def test_every_private_module_level_name_is_used():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    used = set().union(*map(_referenced_names, trees.values()))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in used]
    assert unused == [], "private names that nothing in the package refers to"
