"""The package surface: every name that `jacring.__all__` exports exists, so
`from jacring import *` cannot fail on a stale entry; and no module of the
package reads `SparseMatrix.entries`, the view kept for the benchmark's
tracer, so the hot paths stay on the sparse rows."""
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
