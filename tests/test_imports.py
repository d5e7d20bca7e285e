"""Every name a module of the package imports is used there.

A stdlib-``ast`` check, in the spirit of pyflakes' F401: each name bound
by an import in a ``src/fptrace`` module must be read somewhere in that
module or listed in its ``__all__``.  Package ``__init__.py`` files, whose
imports are the public re-exports, are exempt, and so is an import line
marked ``# noqa: F401`` (a name kept importable on purpose).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fptrace"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _imported(tree, lines):
    """(name, line) for each name an import binds, skipping ``__future__``
    and lines marked ``# noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(name, line) for name, line in _imported(tree, text.splitlines()) if name not in used]


def test_the_check_sees_a_dead_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import math\nimport json  # noqa: F401\nfrom os import path, sep\n"
        "__all__ = ['sep']\nprint(math.pi)\n"
    )
    assert unused_imports(module) == [("path", 3)]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path) == []
