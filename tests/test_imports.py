"""Source hygiene: every name a package module imports is used there, and
every private module-level function or class is read somewhere in the
package.

No linter ships with the package, so these AST scans are the guard against
imports and helpers left behind when code moves or goes.
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


def reads(node) -> set[str]:
    """Names a node reads: loaded names, attribute names and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def dead_privates(sources: dict[str, str]) -> list[str]:
    """module.name of every module-level `_private` function or class that
    no top-level statement but its own definition reads, in any module."""
    tops = [(module, node) for module, source in sources.items()
            for node in ast.parse(source).body]
    read = [reads(node) for _, node in tops]
    return [f"{module}.{node.name}" for i, (module, node) in enumerate(tops)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            and not any(node.name in r for j, r in enumerate(read) if j != i)]


def test_no_dead_private_code():
    assert dead_privates({p.stem: p.read_text() for p in MODULES}) == []


def test_scan_sees_dead_private_code():
    sources = {"a": "def _kept(): pass\ndef _self(): return _self()\n"
                    "class _Unread: pass\ndef _attr(): pass\ndef _alias(): pass\n",
               "b": "from a import _alias\nimport a\nx = a._attr() + _kept()\n"}
    assert dead_privates(sources) == ["a._self", "a._Unread"]
