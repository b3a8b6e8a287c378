"""Checks on the package source itself, read with ``ast``."""

import ast
from collections import Counter
from pathlib import Path

import fhmimo

SRC = Path(fhmimo.__file__).parent

# Parameters that are never read but stay: the benchmark harness
# (perfbench/workloads.py) passes it positionally, so it goes with the
# next change to the benchmark (ROADMAP item 1).
UNREAD_ON_PURPOSE = {"waveform.make_psk_grid.cfg"}

# Library names that nothing else in the package names, kept because test
# oracles or the demos read them.
UNREACHED_ON_PURPOSE = {
    # the transmit-side bit truth of a plan's FHCS payload
    "waveform.extract_payload_bits",
    # printed by demos/demo_radar_chain.py; criterion 7's velocity floor
    "config.RadarConfig.velocity_bin",
    # the echo-array path, the reference that echo_profiles must equal
    # byte for byte: the radar tests and the acceptance suite build echoes
    # and compress them (the profiles of a hand-made or scaled echo too)
    "radarrx.synthesize_echo",
    "radarrx.matched_filter",
}

# Dataclass fields that no library code reads, kept for the tests.
UNREAD_FIELDS_ON_PURPOSE = {
    # criterion 7's paired_mse is read only by the acceptance tests; the
    # run's counters and timings (ROADMAP item 6) are to be reported here
    "bench.SweepReport.meta",
}


def _library_trees() -> dict:
    """Module name -> ``ast`` tree of every module of the package."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _unread_parameters(tree: ast.Module, module: str) -> set[str]:
    """``module.function.parameter`` of every parameter the function's body
    (nested functions and lambdas included) never loads by name."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out |= {f"{module}.{name}.{p}" for p in params
                if p not in ("self", "cls") and p not in read}
    return out


def _definitions(tree: ast.Module, module: str) -> dict:
    """``module.name`` of every module-level function and class, and
    ``module.Class.name`` of every method but the dunders, each with its
    ``ast`` node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[f"{module}.{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            out |= {f"{module}.{node.name}.{f.name}": f for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and not f.name.startswith("__")}
    return out


def _names(node: ast.AST) -> Counter:
    """How often each name is loaded or stored, or read as an attribute,
    under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unreached(trees: dict) -> set[str]:
    """Definitions in ``trees`` (module name -> ``ast`` tree) that no
    module but ``__init__`` names outside the definition itself. The check
    goes by name, so a definition that shares its name with one that is
    named counts as reached: ``RadarConfig.range_bin``, which only tests
    and a demo read, is reached through ``DetectionList.range_bin``."""
    trees = {m: t for m, t in trees.items() if m != "__init__"}
    named = sum(map(_names, trees.values()), Counter())
    return {qualname for module, tree in trees.items()
            for qualname, node in _definitions(tree, module).items()
            if named[node.name] <= _names(node)[node.name]}


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` or ``@dataclasses.dataclass`` decorator of the
    class, or a call of either; None when it is not a dataclass."""
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if (f.attr if isinstance(f, ast.Attribute) else f.id) == "dataclass":
            return d
    return None


def _unread_fields(trees: dict) -> set[str]:
    """``module.Class.field`` of every field of a module-level dataclass in
    ``trees`` (module name -> ``ast`` tree) whose name no module but
    ``__init__`` loads as an attribute or holds as a string constant (read
    with ``getattr``). The field's definition and constructor keywords are
    no reads. The check goes by name, so a field that shares its name with
    one that is read counts as read."""
    trees = {m: t for m, t in trees.items() if m != "__init__"}
    nodes = [n for t in trees.values() for n in ast.walk(t)]
    read = {n.attr for n in nodes
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    read |= {n.value for n in nodes
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return {f"{module}.{cls.name}.{stmt.target.id}"
            for module, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and _dataclass_decorator(cls)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and stmt.target.id not in read}


def _mutable_dataclasses(trees: dict) -> set[str]:
    """``module.Class`` of every module-level dataclass in ``trees``
    (module name -> ``ast`` tree) that is not declared ``frozen=True``, or
    that has a field whose annotation names ``ndarray`` and does not
    derive from ``Value`` (by name or as a module attribute)."""
    out = set()
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            d = _dataclass_decorator(cls)
            if d is None:
                continue
            frozen = isinstance(d, ast.Call) and any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant)
                and k.value.value is True for k in d.keywords)
            holds_arrays = any(isinstance(stmt, ast.AnnAssign)
                               and "ndarray" in ast.unparse(stmt.annotation)
                               for stmt in cls.body)
            value = any(ast.unparse(b).split(".")[-1] == "Value"
                        for b in cls.bases)
            if not frozen or holds_arrays and not value:
                out.add(f"{module}.{cls.name}")
    return out


def _module_names(tree: ast.Module, modules: set) -> set[str]:
    """Names ``tree`` binds to a module of ``modules``: by ``from . import
    m``, ``from fhmimo import m`` or ``import fhmimo.m as n``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level and node.module is None
                or node.module == "fhmimo"):
            out |= {a.asname or a.name for a in node.names
                    if a.name in modules}
        elif isinstance(node, ast.Import):
            out |= {a.asname for a in node.names if a.asname
                    and a.name.removeprefix("fhmimo.") in modules}
    return out


def _foreign_assignments(trees: dict) -> set[str]:
    """``module:line name.attr`` of every assignment in ``trees`` (module
    name -> ``ast`` tree) to an attribute of a name that the module binds
    to a module of the package."""
    out = set()
    for module, tree in trees.items():
        names = _module_names(tree, set(trees))
        out |= {f"{module}:{n.lineno} {n.value.id}.{n.attr}"
                for n in ast.walk(tree)
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id in names}
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_imports(trees: dict) -> set[str]:
    """``module:line name`` of every private name that a module in
    ``trees`` (module name -> ``ast`` tree) takes from another module of
    the package: by ``from .x import _y`` or ``from fhmimo.x import _y``,
    or as ``x._y`` of a name it binds to such a module."""
    out = set()
    for module, tree in trees.items():
        names = _module_names(tree, set(trees))
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module and (
                    n.level or n.module.startswith("fhmimo.")):
                out |= {f"{module}:{n.lineno} {a.name}" for a in n.names
                        if _private(a.name)}
            elif (isinstance(n, ast.Attribute) and _private(n.attr)
                  and isinstance(n.value, ast.Name) and n.value.id in names):
                out.add(f"{module}:{n.lineno} {n.value.id}.{n.attr}")
    return out


def test_every_function_parameter_is_read():
    unread = set().union(*(_unread_parameters(tree, module)
                           for module, tree in _library_trees().items()))
    assert unread == UNREAD_ON_PURPOSE


def test_unread_parameter_check_sees_what_it_claims():
    tree = ast.parse("def f(a, b, *c, d, **e):\n"
                     "    g = lambda x, y: x\n"
                     "    return a, d, g\n"
                     "def h(self, z):\n"
                     "    z = 1\n")
    assert _unread_parameters(tree, "m") == {
        "m.f.b", "m.f.c", "m.f.e", "m.<lambda>.y", "m.h.z"}


def test_every_library_definition_is_reached():
    assert _unreached(_library_trees()) == UNREACHED_ON_PURPOSE


def test_unreached_check_sees_what_it_claims():
    trees = {"m": ast.parse("def f():\n"
                            "    return f()\n"
                            "def g():\n"
                            "    return C().used(), D().masked\n"
                            "class C:\n"
                            "    def __init__(self): pass\n"
                            "    def used(self): pass\n"
                            "    def unused(self): pass\n"
                            "    def masked(self): pass\n"
                            "class D:\n"
                            "    masked = 0\n"),
             "__init__": ast.parse("from .m import f, g\nf()\n")}
    # nothing calls C.masked, but D.masked shares its name
    assert _unreached(trees) == {"m.f", "m.g", "m.C.unused"}


def test_every_dataclass_field_is_read():
    assert _unread_fields(_library_trees()) == UNREAD_FIELDS_ON_PURPOSE


def test_unread_field_check_sees_what_it_claims():
    trees = {"m": ast.parse("import dataclasses\n"
                            "from dataclasses import dataclass\n"
                            "@dataclass(frozen=True)\n"
                            "class D:\n"
                            "    a: int\n"
                            "    b: int\n"
                            "    c: int = 0\n"
                            "    def total(self):\n"
                            "        self.d = 1\n"
                            "        return self.a + getattr(self, 'b')\n"
                            "@dataclasses.dataclass\n"
                            "class E:\n"
                            "    d: int\n"
                            "class Plain:\n"
                            "    e: int\n"
                            "D(1, 2, c=3).total()\n"),
             "__init__": ast.parse("from .m import E\nE(1).d\n")}
    assert _unread_fields(trees) == {"m.D.c", "m.E.d"}


def test_every_dataclass_holding_arrays_is_a_value():
    # one rule, with no exceptions: every library dataclass is frozen, and
    # one that holds arrays takes them read-only as a config.Value
    assert _mutable_dataclasses(_library_trees()) == set()


def test_array_value_check_sees_what_it_claims():
    trees = {"m": ast.parse("import dataclasses\n"
                            "import numpy as np\n"
                            "from dataclasses import dataclass\n"
                            "from . import config\n"
                            "from .config import Value\n"
                            "@dataclass(frozen=True, eq=False)\n"
                            "class A(Value):\n"
                            "    x: np.ndarray\n"
                            "@dataclass(frozen=True, eq=False)\n"
                            "class B(config.Value):\n"
                            "    x: np.ndarray | None\n"
                            "@dataclass\n"
                            "class C:\n"
                            "    x: 'np.ndarray'\n"
                            "@dataclass(frozen=True)\n"
                            "class D:\n"
                            "    n: int\n"
                            "    x: tuple[np.ndarray, ...]\n"
                            "@dataclass\n"
                            "class E:\n"
                            "    n: int\n"
                            "class F:\n"
                            "    x: np.ndarray\n"
                            "@dataclass(frozen=True)\n"
                            "class G(F):\n"
                            "    y: np.ndarray\n"
                            "@dataclass(frozen=False)\n"
                            "class H:\n"
                            "    n: int\n"
                            "@dataclasses.dataclass(frozen=True)\n"
                            "class I:\n"
                            "    n: int\n"
                            "@dataclass(eq=False)\n"
                            "class J(Value):\n"
                            "    x: np.ndarray\n")}
    assert _mutable_dataclasses(trees) == {"m.C", "m.D", "m.E", "m.G",
                                           "m.H", "m.J"}


def test_no_library_module_assigns_another_modules_attribute():
    # each module's state is set only by the module itself
    assert _foreign_assignments(_library_trees()) == set()


def test_foreign_assignment_check_sees_what_it_claims():
    trees = {"m": ast.parse("x = 0\n"),
             "n": ast.parse("import numpy as np\n"
                            "from . import m\n"
                            "from fhmimo import m as mm\n"
                            "import fhmimo.m as m3\n"
                            "m.x = 1\n"
                            "mm.x += 1\n"
                            "m3.x, y = 2, 3\n"
                            "np.seterr = None\n"
                            "a = np.ones(2)\n"
                            "a.flags.writeable = False\n"
                            "m.x.y = 4\n"
                            "z = m.x\n")}
    assert _foreign_assignments(trees) == {"n:5 m.x", "n:6 mm.x",
                                           "n:7 m3.x"}


def test_no_library_module_takes_another_modules_private_name():
    # a private name is its module's own; what another module needs of it
    # is public, or lives in the module both import (config)
    assert _private_imports(_library_trees()) == set()


def test_private_import_check_sees_what_it_claims():
    trees = {"m": ast.parse("_x = 0\ny = 0\n"),
             "n": ast.parse("from __future__ import annotations\n"
                            "import numpy as np\n"
                            "from . import m\n"
                            "from .m import _x, y\n"
                            "from fhmimo.m import _x as z\n"
                            "from fhmimo import m as mm\n"
                            "a = m._x + mm._x + m.y\n"
                            "b = np._core, m.__name__, _x._y\n"
                            "m._x = 1\n")}
    assert _private_imports(trees) == {"n:4 _x", "n:5 _x", "n:7 m._x",
                                       "n:7 mm._x", "n:9 m._x"}
