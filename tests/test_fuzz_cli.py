"""The file readers of the CLI on arbitrary and mutated input files.

Whatever the file holds, ``validate`` on an atlas, ``stato invert`` and
``stato check`` on a gauge and ``inf truncate`` on a tower generator
return 0 (success), 1 (a semantic failure) or 2 (an input error) and
raise nothing.  The mutated inputs start from a small ``gen`` instance,
one of its transitions or a stabilizing generator around it, and
replace, delete, duplicate or nudge a few of their JSON nodes.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvb import formats
from mvb.cli import run
from mvb.rand import twisted_instance
from mvb.tower import InfinityPresentation, StabilizingGenerator

FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

INSTANCE = twisted_instance(7, n=2, n_points=2, n_charts=2)
BASE = json.loads(formats.dumps(INSTANCE))
GAUGE = json.loads(formats.dumps(
    next(g for (dst, src, _), g in sorted(INSTANCE.transitions.items()) if dst != src)))
GENERATOR = json.loads(formats.dumps(InfinityPresentation(StabilizingGenerator(INSTANCE))))

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from(["1/0", "1/2", "-3", "x", "", "1e9", "0x10", " 1"]),
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


@st.composite
def mutated_documents(draw, base=BASE):
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        last, node = path[-1], parent[path[-1]]
        action = draw(st.sampled_from(["replace", "delete", "duplicate", "nudge"]))
        if action == "delete":
            del parent[last]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(last, json.loads(json.dumps(node)))
        elif action == "nudge" and isinstance(node, int) and not isinstance(node, bool):
            parent[last] = node + draw(st.sampled_from([-2, -1, 1, 2, 10]))
        else:
            parent[last] = draw(JSON_VALUES)
    return doc


def _spelled(items):
    """A list written as one string; a list of digits spells itself."""
    return "".join(x if isinstance(x, str) else json.dumps(x) for x in items)


def _node(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def stringified_documents(draw):
    """The ``gen`` instance with one to three of its lists replaced by
    strings, which iterate like lists of characters."""
    doc = json.loads(json.dumps(BASE))
    for _ in range(draw(st.integers(1, 3))):
        lists = [path for path in _paths(doc)
                 if path and isinstance(_node(doc, path), list)]
        path = lists[draw(st.integers(0, len(lists) - 1))]
        parent = _node(doc, path[:-1])
        parent[path[-1]] = _spelled(parent[path[-1]])
    return doc


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def exit_code(path, data, command, *flags):
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return run(command + [str(path)] + list(flags))


def validate_exit(path, data):
    return exit_code(path, data, ["validate"])


@FUZZ
@given(st.binary(max_size=300))
def test_validate_arbitrary_bytes(input_path, data):
    assert validate_exit(input_path, data) in (0, 1, 2)


@FUZZ
@given(mutated_documents())
def test_validate_mutated_instance(input_path, doc):
    data = json.dumps(doc).encode("utf-8")
    assert validate_exit(input_path, data) in (0, 1, 2)


def test_unmutated_instance_validates(input_path):
    assert validate_exit(input_path, json.dumps(BASE).encode("utf-8")) == 0


@FUZZ
@given(stringified_documents())
def test_validate_stringified_lists(input_path, doc):
    data = json.dumps(doc).encode("utf-8")
    assert validate_exit(input_path, data) == 2


READERS = [(["stato", "invert"], ()), (["stato", "check"], ()),
           (["inf", "truncate"], ("--n", "3"))]


@FUZZ
@given(st.binary(max_size=300), st.sampled_from(READERS))
def test_other_readers_on_arbitrary_bytes(input_path, data, reader):
    command, flags = reader
    assert exit_code(input_path, data, command, *flags) in (0, 1, 2)


@FUZZ
@given(mutated_documents(GAUGE), st.sampled_from(["invert", "check"]))
def test_stato_mutated_gauge(input_path, doc, action):
    data = json.dumps(doc).encode("utf-8")
    assert exit_code(input_path, data, ["stato", action]) in (0, 1, 2)


@FUZZ
@given(mutated_documents(GENERATOR))
def test_inf_truncate_mutated_generator(input_path, doc):
    data = json.dumps(doc).encode("utf-8")
    assert exit_code(input_path, data, ["inf", "truncate"], "--n", "3") in (0, 1, 2)


@pytest.mark.parametrize("doc, command, flags", [
    (GAUGE, ["stato", "invert"], ()),
    (GENERATOR, ["inf", "truncate"], ("--n", "3")),
], ids=["gauge", "generator"])
def test_unmutated_inputs_are_read(input_path, doc, command, flags):
    assert exit_code(input_path, json.dumps(doc).encode("utf-8"), command, *flags) == 0
