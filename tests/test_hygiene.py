"""Source hygiene: every import in the package and its tests is used, every
private module-level name of the package is read in the package, every public
function, class and method of the package is read by the package or the
benchmark, and a failing property test reports its example.

No linter is a dependency, so this walks each module's syntax tree: a name
an import binds must be read somewhere in that module, as a name, the root
of an attribute chain, or inside a string annotation. A module-level name of
``src/pddiag`` that starts with ``_`` must be read somewhere in ``src/``, as
a name, an attribute or an imported name; tests alone do not keep it alive.
A public function, class or method must be read the same way somewhere in
``src/`` or ``perfbench/``, so ``src/`` holds no code that only tests use.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "pddiag").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
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


def read_names(trees) -> set[str]:
    """Every name read as a name, an attribute or an imported name in ``trees``."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names(trees.values())
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


def public_definitions(tree: ast.Module):
    """The public module-level functions and classes, and every class's public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}", item.lineno


def unread_public_definitions(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public definitions of ``package`` that neither ``package`` nor ``readers`` reads."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = read_names([*trees.values(), *map(ast.parse, readers.values())])
    return sorted(
        f"{module}:{line}: {qualified}"
        for module, tree in trees.items()
        for name, qualified, line in public_definitions(tree)
        if name not in read
    )


def test_no_public_definition_only_tests_read():
    package = {p.name: p.read_text(encoding="utf-8") for p in SRC}
    readers = {f"perfbench/{p.name}": p.read_text(encoding="utf-8") for p in PERFBENCH}
    assert unread_public_definitions(package, readers) == []


def test_public_definition_only_tests_read_is_caught():
    package = {
        "a.py": "def used():\n    pass\n\ndef orphan():\n    pass\n\nclass Box:\n    def open(self):\n        pass\n"
        "    def shut(self):\n        pass\n    def _hidden(self):\n        pass\n",
        "b.py": "from a import used\n\nclass Unused:\n    pass\n\nused()\nBox().open()\n",
    }
    bench = {"run.py": "import b\nb.bench_only()\n", "lib.py": "def bench_only():\n    pass\n"}
    assert unread_public_definitions(package, bench) == ["a.py:10: Box.shut", "a.py:4: orphan", "b.py:3: Unused"]
    assert unread_public_definitions({"lib.py": bench["lib.py"]}, {"run.py": bench["run.py"]}) == []


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_property_reports_its_example(tmp_path):
    # hypothesis imports libcst to print the example, and libcst's import warns;
    # a warning filter that made that an error ended the run in INTERNALERROR
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    options = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["tool"]["pytest"]["ini_options"]
    filters = "".join(f"    {f}\n" for f in options["filterwarnings"])
    (tmp_path / "pytest.ini").write_text(f"[pytest]\nfilterwarnings =\n{filters}")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output
