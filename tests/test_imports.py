"""Source hygiene: every name a package module imports is used there.

No linter ships with the package, so this AST scan is the guard against
imports left behind when code moves or goes.
"""

import ast
from pathlib import Path

import pytest

import affsurf

MODULES = sorted(Path(affsurf.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import():
    assert unused_imports("import math\nfrom a import b, c as d\nd(math.pi)\n") == ["b"]
