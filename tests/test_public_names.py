"""Every name a module lists in ``__all__`` exists, so a star import works."""

import importlib
import pkgutil

import pytest

import fptrace

MODULES = [
    info.name
    for info in sorted(pkgutil.walk_packages(fptrace.__path__, "fptrace."), key=lambda m: m.name)
    if hasattr(importlib.import_module(info.name), "__all__")
]


def test_the_modules_with_public_lists_are_found():
    assert {"fptrace.codec", "fptrace.collusion", "fptrace.games"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
