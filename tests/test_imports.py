from __future__ import annotations

import ast
import contextlib
import inspect
import io
from pathlib import Path

import pytest

import canonical_region

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "canonical_region"
README = PACKAGE.parents[1] / "README.md"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")   # it re-exports


def imported_names(tree: ast.Module) -> set[str]:
    """The names ``import`` and ``from ... import`` statements bind, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


def test_every_private_module_name_is_read():
    # a module-level private function, class or constant that no module of the
    # package reads, as a name, an attribute or an import, is dead code
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")]
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert private and sorted(private - read) == []


def test_all_is_the_names_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    relative = ast.Module([node for node in tree.body
                           if isinstance(node, ast.ImportFrom) and node.level], [])
    public = canonical_region.__all__
    assert len(public) == len(set(public)) and set(public) == imported_names(relative)
    assert not [name for name in public if inspect.ismodule(getattr(canonical_region, name))]


def test_readme_library_use_block_runs():
    # README's ``## Library use`` block runs as printed; its last line prints a
    # spec's derived sizes
    section = README.read_text().split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines()[-1] == "2 [2, 2] 1"
