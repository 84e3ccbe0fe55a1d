"""No module of the library, its tests or its demos imports a name it
never uses.

Every module-level ``import`` and ``from ... import`` in ``src/mvb``
(``__init__.py`` re-exports, so it is left out), ``tests`` and ``demos``
must bind a name the module reads somewhere.  Only the standard library
``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvb"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py")))


def module_id(path):
    """The file name for library modules, else the directory and file name."""
    return path.name if path.parent == SRC else "%s/%s" % (path.parent.name, path.name)


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        (1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == [], path.name
