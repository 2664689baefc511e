"""Source hygiene: every name a package or test module imports is used
there, every private module-level function or class is read somewhere in
the package (or in the tests), every module-level function, class or
constant of the package is reached from the command line or the benchmark,
and every method or property of the package's classes is read there or by
the benchmark.  Generated code is compiled in one place, `expr._compile`,
the verification modules load without the ODE stepper, and start-up loads
no dataclasses.

No linter ships with the package, so these AST scans are the guard against
imports and helpers left behind when code moves or goes, and against
library code that only the tests call.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import affsurf
from test_cli import ENV

MODULES = sorted(Path(affsurf.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=[p.name for p in MODULES + TESTS])
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
    assert dead_privates({p.stem: p.read_text() for p in TESTS}) == []


def test_scan_sees_dead_private_code():
    sources = {"a": "def _kept(): pass\ndef _self(): return _self()\n"
                    "class _Unread: pass\ndef _attr(): pass\ndef _alias(): pass\n",
               "b": "from a import _alias\nimport a\nx = a._attr() + _kept()\n"}
    assert dead_privates(sources) == ["a._self", "a._Unread"]


def bound_names(node) -> list[str]:
    """Names a top-level statement defines: a function or class, or each
    plain name an assignment binds, dunder names such as __version__ left
    out.  A statement that defines none is no definition."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            and not (sub.id.startswith("__") and sub.id.endswith("__"))]


def unreached(sources: dict[str, str], entries, outside) -> list[str]:
    """module.name of every module-level function, class or constant that
    no chain of reads reaches.  The roots are every top-level statement of
    the entry modules, every other top-level statement that is neither a
    definition nor an import, and every name the outside sources read; a
    definition is reached when a reached node reads a name it binds, and
    then its own reads count.  Imports elsewhere are no roots: a name is
    used where it is read, and the import scan checks that each one is."""
    defs: dict[str, list] = {}
    seen: set[str] = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if module in entries:
                seen |= reads(node)
            elif names := bound_names(node):
                for name in names:
                    defs.setdefault(name, []).append((module, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                seen |= reads(node)
    for source in outside:
        seen |= reads(ast.parse(source))
    todo = list(seen)
    reached = set()
    while todo:
        for module, node in defs.get(todo.pop(), ()):
            if id(node) not in reached:
                reached.add(id(node))
                new = reads(node) - seen
                seen |= new
                todo += new
    return [f"{module}.{name}" for name, group in defs.items() for module, node in group
            if id(node) not in reached]


def test_no_test_only_library_code():
    """Every module-level function, class and constant of the package is
    reached from the command line (cli.py, __main__.py) or from a name the
    benchmark reads; an oracle only the tests call lives beside its tests."""
    sources = {p.stem: p.read_text() for p in MODULES}
    outside = [p.read_text() for p in PERFBENCH]
    assert unreached(sources, {"cli", "__main__"}, outside) == []


def test_scan_sees_test_only_code():
    sources = {"cli": "from a import run\ndef main(): run()\n",
               "a": "from b import helper\nTABLE = {'k': _kept}\n"
                    "def run(): return helper(TABLE)\ndef _kept(): pass\n"
                    "def _ping(): return _pong()\ndef _pong(): return _ping()\n"
                    "def oracle(): return _ping()\nclass Bench: pass\n",
               "b": "from a import oracle\ndef helper(): pass\n"}
    outside = ["from a import Bench\n"]
    assert unreached(sources, {"cli"}, outside) == ["a._ping", "a._pong", "a.oracle"]


def test_scan_sees_unreached_constants():
    sources = {"cli": "from a import run\ndef main(): run()\n",
               "a": "__version__ = '1'\nLIMIT = 3\nSTALE: int = 4\nREGISTRY = {}\n"
                    "REGISTRY['k'] = _hook\ndef run(): return LIMIT\n"
                    "def _hook(): return ORPHAN\nORPHAN = 5\nUNREAD = ORPHAN\n"}
    assert unreached(sources, {"cli"}, []) == ["a.STALE", "a.UNREAD"]


def unread_members(sources) -> list[str]:
    """Class.name of every non-dunder method or property of a module-level
    class that no attribute read in the sources reaches, reads inside its
    own definition left out."""
    trees = [ast.parse(source) for source in sources]
    attrs: dict[str, int] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs[node.attr] = attrs.get(node.attr, 0) + 1
    out = []
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("__"):
                    continue
                own = sum(isinstance(node, ast.Attribute) and node.attr == member.name
                          for node in ast.walk(member))
                if attrs.get(member.name, 0) == own:
                    out.append(f"{cls.name}.{member.name}")
    return out


def test_no_test_only_members():
    """Every method and property of the package's classes is read by the
    package or the benchmark; dense output and the like live in the tests."""
    assert unread_members([p.read_text() for p in MODULES + PERFBENCH]) == []


def test_scan_sees_unread_members():
    sources = ["class A:\n    def used(self): pass\n    def own(self): return self.own()\n"
               "    @property\n    def prop(self): pass\n    def __len__(self): return 0\n"
               "class B:\n    def unread(self): pass\n",
               "def f(a): return a.used() + a.prop\n"]
    assert unread_members(sources) == ["A.own", "B.unread"]


def calls(sources: dict[str, str]):
    """(module.function, call, called name) of every call, by the top-level
    function or class it is in, or module.<module> for a call outside one;
    the name is the function's, as a name or as an attribute."""
    for module, source in sources.items():
        for top in ast.parse(source).body:
            where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    fn = node.func
                    yield (f"{module}.{where}", node,
                           fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None))


def compile_sites(sources: dict[str, str]) -> list[str]:
    """module.function of every call of exec or eval."""
    return [where for where, _, name in calls(sources) if name in ("exec", "eval")]


def binding_compiles(sources: dict[str, str]) -> list[str]:
    """module.function of every call of _compile that passes anything but
    two positional arguments (lines, name): a keyword, a third argument or
    an unpacking could bind names in the namespace of generated code one
    compile at a time."""
    return [where for where, node, name in calls(sources) if name == "_compile"
            and (len(node.args) != 2 or node.keywords
                 or any(isinstance(a, ast.Starred) for a in node.args))]


def test_one_compiler():
    """Generated source is run by exec in expr._compile and nowhere else,
    and every call of _compile binds no name of its own."""
    sources = {p.stem: p.read_text() for p in MODULES}
    assert compile_sites(sources) == ["expr._compile"]
    assert binding_compiles(sources) == []


def test_scan_sees_every_compile_site():
    sources = {"a": "exec('x = 1')\ndef f():\n    def g(): return eval('1')\n    return g\n",
               "b": "import builtins\nclass C:\n    def m(self): builtins.exec('')\n"
                    "def h(): return compile('1', '', 'eval')\n"}
    assert compile_sites(sources) == ["a.<module>", "a.f", "b.C"]
    calls = {"a": "_compile(lines, 'f')\ndef f(): return _compile(lines, 'f', g=1)\n",
             "b": "def g(): return ex._compile(*args)\nclass C:\n    k = _compile(a, 'k', {})\n"
                  "def h(): return _compile(lines)\n"}
    assert binding_compiles(calls) == ["a.f", "b.g", "b.C", "b.h"]


def test_verification_loads_no_stepper():
    """Importing the flattening and map checks (and with them the catalog,
    connection, quasi-Einstein and expression modules) loads neither the
    ODE stepper nor the probes."""
    code = "import sys, affsurf.projective; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=ENV, check=True).stdout.split()
    assert "affsurf.projective" in loaded
    assert [m for m in ("affsurf.integrate", "affsurf.killing", "affsurf.geodesic")
            if m in loaded] == []


def loads(module: str, code: str) -> bool:
    """Whether module is in sys.modules after code runs in a fresh
    interpreter."""
    code += f"\nimport sys; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=ENV, check=True).stdout.split()
    return out[-1] == "True"


def test_probes_load_no_masked_arrays():
    """A Killing probe that ends in a StepCollapse and a geodesic probe that
    ends in a Blowup classify their runs in float arithmetic: numpy.ma,
    which takes milliseconds to import (numpy imports it on the first call
    of np.median), stays unloaded."""
    code = """
from affsurf import catalog, geodesic, killing
for rep, status in ((killing.killing_completeness_probe(catalog.instantiate("B.N16", sign=1.0)),
                     "StepCollapse"),
                    (geodesic.geodesic_completeness_probe(catalog.instantiate("A.M16")), "Blowup")):
    assert status in {type(w.status).__name__ for w in rep.witnesses}, rep.to_json()
"""
    assert not loads("numpy.ma", code)


def test_scan_sees_masked_arrays():
    assert loads("numpy.ma", "import affsurf.integrate, numpy as np; np.median([1.0, 2.0])")


def test_startup_loads_no_dataclasses():
    """Importing the command line and building the atlas, the set-up of
    every CLI call and benchmark pass, leaves dataclasses unloaded: the
    package's data classes are plain `__slots__` classes on `expr.Data`, so
    no class has methods generated for it at import."""
    code = "import affsurf.cli\nfrom affsurf import catalog\ncatalog.all_records()"
    assert not loads("dataclasses", code)


def test_scan_sees_dataclasses():
    assert loads("dataclasses", "import affsurf.cli, dataclasses")
