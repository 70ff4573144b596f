"""Source hygiene: every import in the package and its tests is used, and
every private module-level name of the package is read in the package.

No linter is a dependency, so this walks each module's syntax tree: a name
an import binds must be read somewhere in that module, as a name, the root
of an attribute chain, or inside a string annotation. A module-level name of
``src/pddiag`` that starts with ``_`` must be read somewhere in ``src/``, as
a name, an attribute or an imported name; tests alone do not keep it alive.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "pddiag").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}  # name -> line of the import that binds it
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # "Volume3D" as an annotation, or names re-exported through __all__
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            read.add(node.value)
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "import os\nfrom json import dumps, loads\nimport a.b as c\nfrom x import y\n\nprint(loads, y)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps", "line 3: c"]


def module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in module_level_names(tree)
        if name.startswith("_") and not name.endswith("__") and name not in read
    )


def test_no_unread_private_name():
    assert unread_private_names({p.name: p.read_text(encoding="utf-8") for p in SRC}) == []


def test_unread_private_name_is_caught():
    sources = {
        "a.py": "_LIMIT = 3\n_a, b = 1, 2\n\ndef _helper():\n    return _LIMIT\n\nclass _Box:\n    pass\n",
        "b.py": "from a import _helper\nimport os as _os\n\n__all__ = []\nprint(_helper())\n",
    }
    assert unread_private_names(sources) == ["a.py:2: _a", "a.py:7: _Box", "b.py:2: _os"]
