"""No library module reads another module's private attributes.

A read ``x._name`` in ``src/mvb``, with ``x`` not ``self`` or ``cls`` and
``_name`` not a dunder, is allowed only in a module that defines
``_name`` itself: as a function, a class, an assigned name or an
assigned attribute.  State shared between modules goes through a public
attribute.  Only the standard library ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mvb"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_reads(source):
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and _is_private(node.attr) and node.attr not in defined
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))


def test_the_check_sees_a_foreign_private_read():
    source = ("class A:\n    def __init__(self):\n        self._own = 1\n"
              "def f(g, h):\n    return g._own, h._other, self._x, g.__dict__\n")
    assert foreign_private_reads(source) == [(5, "_other")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_attribute_read_across_modules(path):
    assert foreign_private_reads(path.read_text()) == [], path.name
