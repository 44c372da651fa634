"""The package surface: every name that `jacring.__all__` exports exists, so
`from jacring import *` cannot fail on a stale entry; and no module of the
package reads `SparseMatrix.entries`, the view kept for the benchmark's
tracer, so the hot paths stay on the sparse rows; and no module of the
package or the test suite imports a name it never reads."""
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
