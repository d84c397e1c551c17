"""Every module imports only names it uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.relative_to(ROOT).as_posix()
                 for d in ("src/fedgrow", "tools", "tests") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import and never reads. A name listed
    in ``__all__`` counts as read; ``__future__`` imports do not bind."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == \
        ["line 1: os", "line 2: c"]
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "__all__ = ['os']\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((ROOT / module).read_text()) == []
