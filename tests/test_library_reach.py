"""Every function of the library is reached by a user-facing path.

A child process installs ``sys.setprofile`` before it imports ``mvb``,
so functions that run at import (decorators, module-level calls) count.
It then runs every demo, and every subcommand of the ``mvb`` command once
on small inputs that the test writes before the child starts, and
reports the code objects it entered.  Every non-dunder ``def`` in
``src/mvb`` that the child never entered must be in ``KEPT`` with one of
the ``REASONS``; a ``KEPT`` entry that is reached, or no longer defined,
fails as well.  A helper that only tests call belongs under ``tests/``
(``helpers.py`` or an oracle module).  The check itself uses only the
standard library.
"""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mvb import formats
from mvb.atlas import AtlasPresentation, perturb_transition
from mvb.rand import random_dims, random_gauge, twisted_instance
from mvb.tower import InfinityPresentation, StabilizingGenerator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvb"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

ENTRY_POINT = "console entry point"
BENCH = "read by bench/"
FORMAT = "documented format in docs/formats.md"
UNTRIGGERED = "input bound or failure path the sweep cannot trigger"
REASONS = (ENTRY_POINT, BENCH, FORMAT, UNTRIGGERED)

# module-qualified names of the functions no demo or subcommand enters
KEPT = {
    "cli.main": ENTRY_POINT,
    "formats.atlas_to_json": BENCH,
    "formats.canonical_bytes": BENCH,
    "formats.tensor_to_json": BENCH,
    "formats.to_json": FORMAT,
    "formats._element_text": FORMAT,
    "formats.element_from_json": FORMAT,
    "formats.morphism_from_json": FORMAT,
    "formats._string_field": FORMAT,
    "formats._check_digits": UNTRIGGERED,
    "certify.Certificate.failing": UNTRIGGERED,
}

# every subcommand once, alternating output modes, plus the failure
# paths small inputs reach, and a help request and an argv error with and
# without a subcommand name, so both parser paths of a run are entered;
# each with the exit code it must return
SWEEP = [
    (["--help"], 0),
    (["decompose", "-h"], 0),
    (["decompose"], 2),
    (["bogus"], 2),
    (["validate", "a3.json"], 0),
    (["validate", "reordered.json"], 0),
    (["--output", "text", "validate", "broken.json"], 1),
    (["face", "a3.json", "--outer", "1,2", "--inner", "1"], 0),
    (["--output", "text", "core", "a3.json", "--s", "1,2,3", "--j", "1,2"], 0),
    (["core-stages", "a3.json", "--s", "1,2,3", "--j", "1,2", "--k", "1"], 0),
    (["--output", "text", "pullback", "a3.json"], 0),
    (["ultracore", "a3.json", "--k", "1"], 0),
    (["--output", "text", "split", "a3.json", "--strategy", "uniform-average"], 0),
    (["decompose", "a3.json", "-o", "dec.json"], 0),
    (["--output", "text", "normalize", "a3.json"], 0),
    (["torsor", "a3.json"], 0),
    (["--output", "text", "stato", "check", "gauge.json"], 0),
    (["stato", "invert", "gauge.json"], 0),
    (["--output", "text", "stato", "compose", "gauge.json", "gauge.json"], 0),
    (["stato", "check", "duplicate.json"], 2),
    (["hom", "a2.json", "a2.json"], 0),
    (["--output", "text", "tangent", "a2.json"], 0),
    (["lift2", "a2.json"], 0),
    (["--output", "text", "lift3", "a3.json"], 0),
    (["inf", "truncate", "gen.json", "--n", "3"], 0),
    (["--output", "text", "inf", "decompose", "gen.json", "--n", "2"], 0),
    (["gen", "--seed", "11", "--n", "3", "-o", "inst.json"], 0),
]

CHILD = r"""
import contextlib, io, json, runpy, sys

demos, argvs, out = json.loads(sys.argv[1])
codes = {}


def hook(frame, event, arg):
    if event == "call":
        codes[id(frame.f_code)] = frame.f_code


sys.setprofile(hook)
import mvb.cli

exits = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for demo in demos:
        runpy.run_path(demo, run_name="__main__")
    for argv in argvs:
        exits.append(mvb.cli.run(argv))
sys.setprofile(None)
entered = [[c.co_filename, c.co_firstlineno, c.co_name] for c in codes.values()]
with open(out, "w") as handle:
    json.dump({"exits": exits, "entered": entered}, handle)
"""


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_functions(module, path, source):
    """``{qualified name: (path, first line, name)}`` of every non-dunder
    ``def`` in ``source``; the first line of a decorated function is its
    first decorator's, as in its code object."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _is_dunder(child.name):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[prefix + child.name] = (path, first, child.name)
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), module + ".")
    return found


def reach_findings(sources, entered, kept):
    """``(unreached functions not in kept, kept entries reached or gone)``.

    ``sources`` maps a module name to ``(path, source text)``; ``entered``
    holds the ``(path, first line, name)`` of every code object run."""
    defined = {}
    for module, (path, source) in sources.items():
        defined.update(defined_functions(module, path, source))
    missed = {name for name, key in defined.items() if key not in entered}
    return sorted(missed.difference(kept)), sorted(name for name in kept if name not in missed)


def test_the_check_sees_an_unreached_function_and_a_stale_entry():
    source = ("import functools\n"
              "def used():\n"
              "    def inner():\n"
              "        pass\n"
              "class A:\n"
              "    def __init__(self):\n"
              "        pass\n"
              "    @functools.cache\n"
              "    def test_only(self):\n"
              "        pass\n"
              "def also_used():\n"
              "    pass\n")
    entered = {("m.py", 2, "used"), ("m.py", 3, "inner"), ("m.py", 11, "also_used")}
    kept = {"m.also_used": UNTRIGGERED, "m.removed": BENCH}
    assert reach_findings({"m": ("m.py", source)}, entered, kept) == (
        ["m.A.test_only"], ["m.also_used", "m.removed"])
    entered.add(("m.py", 8, "test_only"))
    assert reach_findings({"m": ("m.py", source)}, entered, {}) == ([], [])


def test_every_kept_entry_gives_a_known_reason():
    assert sorted(set(KEPT.values()).difference(REASONS)) == []


def _write(path, obj):
    path.write_bytes(formats.dumps(obj) + b"\n")


def _sweep_inputs(workdir):
    _write(workdir / "a3.json", twisted_instance(11, n=3, max_dim=1, n_points=1, n_charts=2))
    a2 = twisted_instance(12, n=2, n_points=2, n_charts=2)
    _write(workdir / "a2.json", a2)
    # blocks in another order: a spelling the text reader declines
    body = json.loads(formats.dumps(a2))
    for transition in body["transitions"]:
        for component in transition["gauge"]["components"]:
            component["blocks"].reverse()
    (workdir / "reordered.json").write_text(json.dumps(body))
    # twist one direction of a transition pair only: the pair stops being
    # mutually inverse
    p = next(p for p in a2.base if len(a2.charts_at(p)) >= 2)
    tau = random_gauge(random.Random(0), a2.dims, statomorphism=True)
    transitions = dict(a2.transitions)
    transitions[("1", "0", p)] = perturb_transition(a2, "1", "0", p, tau).transitions[("1", "0", p)]
    _write(workdir / "broken.json",
           AtlasPresentation(a2.n, a2.dims, a2.base, a2.charts, transitions))
    gauge = random_gauge(random.Random(3), random_dims(random.Random(4), 2), statomorphism=True)
    _write(workdir / "gauge.json", gauge)
    body = json.loads(formats.dumps(gauge))
    body["components"].append(body["components"][0])
    (workdir / "duplicate.json").write_text(json.dumps(body))
    _write(workdir / "gen.json", InfinityPresentation(StabilizingGenerator(
        twisted_instance(13, n=2, max_dim=1, n_points=1, n_charts=2))))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("reach")
    _sweep_inputs(workdir)
    out = workdir / "entered.json"
    arg = json.dumps([[str(d) for d in DEMOS], [argv for argv, _ in SWEEP], str(out)])
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", CHILD, arg], cwd=workdir, env=env,
                   check=True, timeout=120)
    return json.loads(out.read_text())


def test_the_sweep_exits_as_expected(sweep):
    assert list(zip([argv for argv, _ in SWEEP], sweep["exits"])) == [
        (argv, code) for argv, code in SWEEP]


def test_every_library_function_is_reached_or_kept(sweep):
    entered = {(str(Path(path).resolve()), line, name) for path, line, name in sweep["entered"]}
    sources = {path.stem: (str(path), path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unreached, stale = reach_findings(sources, entered, KEPT)
    assert unreached == [], "move to tests/, delete, or give a demo or the CLI a reader"
    assert stale == [], "reached or gone: drop from KEPT"
