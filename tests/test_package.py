"""The package surface: every name that `jacring.__all__` exports exists, so
`from jacring import *` cannot fail on a stale entry."""
from __future__ import annotations

import jacring


def test_every_exported_name_resolves():
    for name in jacring.__all__:
        assert getattr(jacring, name, None) is not None, name
    namespace: dict = {}
    exec("from jacring import *", namespace)
    assert set(jacring.__all__) <= set(namespace)
