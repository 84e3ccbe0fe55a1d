"""No function of the library assigns a local name it never reads.

A name bound in a function of ``src/mvb`` (by assignment, a loop or
``with`` target, or a comprehension) must be read somewhere in that
function, nested functions included.  Names that start with ``_`` are
exempt: they mark a value unpacked only to be dropped.  Names declared
``global`` or ``nonlocal`` belong to another scope and are left out.
Only the standard library ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mvb"
NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """The nodes of ``fn``'s body outside any nested function or class."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, NESTED):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(source):
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        stored = {}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        found += [(line, fn.name, name) for name, line in stored.items()
                  if name not in read and not name.startswith("_")]
    return sorted(found)


def test_the_check_sees_a_dead_local():
    source = ("def f(a):\n"
              "    b, _c = a\n"
              "    for i, j in a:\n"
              "        print(j)\n"
              "    def g():\n"
              "        e = 2\n"
              "        return b\n"
              "    d = 1\n"
              "    return g\n")
    assert dead_locals(source) == [(3, "f", "i"), (6, "g", "e"), (8, "f", "d")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_local(path):
    assert dead_locals(path.read_text()) == [], path.name
