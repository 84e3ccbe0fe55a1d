"""A run parses its argv with the parser of its own subcommand alone.

``cli._parse`` must give what the parser of all seventeen subcommands
gives: the same Namespace, or the same exit code and the same help,
usage and error text.  A run builds the subparser it names once and
reuses it; a help request or an argv error reparses with the parser of
all subcommands, which writes the text.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvb import cli, formats
from mvb.rand import twisted_instance

FULL = cli.build_parser()

# every subcommand once, with valid arguments
VALID = [
    ["validate", "a.json"],
    ["face", "a.json", "--outer", "1,2", "--inner", "1"],
    ["core", "a.json", "--s", "1,2,3", "--j", "1,2"],
    ["core-stages", "a.json", "--s", "1,2,3", "--j", "1,2", "--k", "1"],
    ["pullback", "a.json", "-o", "p.json"],
    ["ultracore", "a.json", "--k", "1"],
    ["split", "a.json", "--strategy", "uniform-average"],
    ["decompose", "a.json"],
    ["normalize", "a.json", "--strategy", "least-chart"],
    ["torsor", "a.json", "--strategy-a", "uniform-average", "--strategy-b", "least-chart"],
    ["stato", "compose", "g.json", "h.json"],
    ["hom", "a.json", "b.json"],
    ["tangent", "a.json"],
    ["lift2", "a.json"],
    ["lift3", "a.json", "--out", "l.json"],
    ["inf", "truncate", "gen.json", "--n", "3"],
    ["gen", "--seed", "1", "--n", "3", "--points", "2", "--charts", "1", "--max-dim", "2"],
]
# --output before the name, after it, and both
OUTPUTS = [argv for v in VALID for argv in (
    ["--output", "text"] + v, v + ["--output", "text"],
    ["--output", "json"] + v + ["--output", "text"])]
HELP = [argv for v in VALID for argv in (["-h"] + v, v[:1] + ["-h"] + v[1:])] + [["--help"]]
ERRORS = [
    [], ["bogus"], ["--output", "decompose", "validate"],
    # the first token naming a subcommand is not the subcommand
    ["bogus", "decompose", "a.json"], ["stato", "validate", "decompose"],
    # a missing required argument
    ["decompose"], ["core", "a.json", "--s", "1"], ["gen"], ["inf", "truncate", "gen.json"],
    # an unknown flag
    ["decompose", "a.json", "--bogus"], ["--bogus", "decompose", "a.json"],
    # a bad choice or value
    ["decompose", "a.json", "--strategy", "best"], ["--output", "xml", "validate", "a.json"],
    ["stato", "flip", "g.json"], ["gen", "--seed", "1", "--points", "0"],
]
TOKENS = sorted({token for argv in VALID + OUTPUTS + HELP + ERRORS for token in argv})


def outcome(parse, argv):
    """The Namespace or exit code of parsing ``argv``, and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as stop:
            result = stop.code
    return result, out.getvalue(), err.getvalue()


def test_the_valid_argv_name_every_subcommand():
    assert [argv[0] for argv in VALID] == list(cli.COMMANDS)


@pytest.mark.parametrize("argv", VALID + OUTPUTS, ids=" ".join)
def test_a_valid_argv_parses_alike(argv):
    got = outcome(cli._parse, argv)
    assert isinstance(got[0], argparse.Namespace)
    assert got == outcome(FULL.parse_args, argv)


@pytest.mark.parametrize("argv", HELP + ERRORS, ids=" ".join)
def test_help_and_errors_print_alike(argv):
    got = outcome(cli._parse, argv)
    assert got[0] in (0, 2) and got[1] + got[2]
    assert got == outcome(FULL.parse_args, argv)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(TOKENS) | st.text(max_size=4), max_size=8))
def test_any_argv_parses_alike(argv):
    assert outcome(cli._parse, argv) == outcome(FULL.parse_args, argv)


def test_a_run_builds_only_its_subcommands_parser(tmp_path, monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    path = str(tmp_path / "a.json")
    with open(path, "wb") as handle:
        handle.write(formats.dumps(twisted_instance(5, n=2)))
    cli._PARSERS.clear()
    assert cli.run(["validate", path]) == 0
    assert built == ["validate"]
    assert cli.run(["--output", "text", "validate", path]) == 0
    assert built == ["validate"]

    cli._PARSERS.clear()
    del built[:]
    argvs = [["validate", path], ["pullback", path], ["tangent", path],
             ["decompose", path], ["hom", path, path]]
    for argv in argvs + argvs:
        assert cli.run(argv) == 0
    assert built == [argv[0] for argv in argvs]

    # a help request is answered by the parser of every subcommand, once
    del built[:]
    for _ in range(2):
        assert cli.run(["--help"]) == 0
    assert built == list(cli.COMMANDS)
    capsys.readouterr()
