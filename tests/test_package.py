"""The package surface: every name that `jacring.__all__` exports exists, so
`from jacring import *` cannot fail on a stale entry; and no module of the
package reads `SparseMatrix.entries`, the view kept for the benchmark's
tracer, so the hot paths stay on the sparse rows; no module of the
package or the test suite imports a name it never reads; and every private
function and method of the package is referenced in the package."""
from __future__ import annotations

import ast
from pathlib import Path

import jacring


def test_every_exported_name_resolves():
    for name in jacring.__all__:
        assert getattr(jacring, name, None) is not None, name
    namespace: dict = {}
    exec("from jacring import *", namespace)
    assert set(jacring.__all__) <= set(namespace)


def test_no_module_reads_the_entries_view():
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted(Path(jacring.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert readers == []


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads; `from __future__` is
    exempt."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    """Import hygiene of the package and the test suite; `__init__.py`
    imports to re-export."""
    package = Path(jacring.__file__).parent
    paths = [path for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def test_every_private_function_is_referenced_in_the_package():
    """A `_`-prefixed module-level function or method (dunders aside) that
    no module of the package names is code only tests reach: it moves to
    tests/helpers.py or goes."""
    trees = {path.name: ast.parse(path.read_text()) for path in
             sorted(Path(jacring.__file__).parent.glob("*.py"))}
    private, read = [], set()
    for name, tree in trees.items():
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            private += [(f"{name}:{fn.lineno}", fn.name) for fn in body
                        if isinstance(fn, ast.FunctionDef)
                        and fn.name.startswith("_")
                        and not fn.name.endswith("__")]
        read |= {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))}
    assert private
    assert [f"{at}: {fn}" for at, fn in private if fn not in read] == []
