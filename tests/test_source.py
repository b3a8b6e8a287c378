"""Checks on the package source itself, read with ``ast``."""

import ast
from pathlib import Path

import fhmimo

SRC = Path(fhmimo.__file__).parent

# Parameters that are never read but stay: the benchmark harness
# (perfbench/workloads.py) passes it positionally, so it goes with the
# next change to the benchmark (ROADMAP item 1).
UNREAD_ON_PURPOSE = {"waveform.make_psk_grid.cfg"}


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


def test_every_function_parameter_is_read():
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        unread |= _unread_parameters(ast.parse(path.read_text()), path.stem)
    assert unread == UNREAD_ON_PURPOSE


def test_unread_parameter_check_sees_what_it_claims():
    tree = ast.parse("def f(a, b, *c, d, **e):\n"
                     "    g = lambda x, y: x\n"
                     "    return a, d, g\n"
                     "def h(self, z):\n"
                     "    z = 1\n")
    assert _unread_parameters(tree, "m") == {
        "m.f.b", "m.f.c", "m.f.e", "m.<lambda>.y", "m.h.z"}
