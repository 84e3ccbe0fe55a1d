import io
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest
import report_oracle

from mvb import cli, formats
from mvb.atlas import AtlasPresentation, FiniteBase, decomposed, perturb_transition, validate
from mvb.cli import run
from mvb.cubecat import IndexSet, Partition
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment, Gauge, identity_gauge
from mvb.rand import random_gauge, twisted_instance
from mvb.tower import InfinityPresentation, RuleGenerator, StabilizingGenerator


def write_instance(tmp_path, name, instance):
    path = tmp_path / name
    path.write_bytes(formats.dumps(instance) + b"\n")
    return str(path)


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


def test_validate_ok(tmp_path, capsys):
    path = write_instance(tmp_path, "a.json", twisted_instance(401, n=2))
    code, out, _ = invoke(capsys, ["validate", path])
    assert code == 0
    body = report_of(out)
    assert body["status"] == "ok"
    assert body["command"] == "validate"


def test_validate_failure_exit_one(tmp_path, capsys):
    import random
    from mvb.atlas import perturb_transition
    from mvb.rand import random_gauge
    a = twisted_instance(402, n=2, n_points=2, n_charts=2)
    rng = random.Random(0)
    tau = random_gauge(rng, a.dims, statomorphism=True)
    p = next(p for p in a.base if len(a.charts_at(p)) >= 2)
    broken = perturb_transition(a, "1", "0", p, tau)
    # break the pair coherence: perturb only one direction
    transitions = dict(a.transitions)
    transitions[("1", "0", p)] = broken.transitions[("1", "0", p)]
    from mvb.atlas import AtlasPresentation
    bad = AtlasPresentation(a.n, a.dims, a.base, a.charts, transitions)
    path = write_instance(tmp_path, "bad.json", bad)
    code, out, _ = invoke(capsys, ["validate", path])
    assert code == 1
    body = report_of(out)
    assert body["status"] == "fail"
    assert body["counterexamples"]


def test_missing_file_exit_two(capsys):
    code, _, err = invoke(capsys, ["validate", "no-such-file.json"])
    assert code == 2
    assert "input error" in err


def test_syntax_error_exit_two(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_bytes(b'{"kind": "atlas", ')
    code, _, err = invoke(capsys, ["validate", str(path)])
    assert code == 2
    assert "offset" in err


def test_gen_then_validate_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "gen.json")
    code, out, _ = invoke(capsys, [
        "gen", "--seed", "11", "--n", "2", "-o", out_path])
    assert code == 0
    assert report_of(out)["status"] == "ok"
    code, out, _ = invoke(capsys, ["validate", out_path])
    assert code == 0


@pytest.mark.parametrize("flag, value, low", [
    ("--charts", "0", 1), ("--max-dim", "0", 1), ("--max-dim", "-1", 1),
    ("--n", "-1", 0), ("--points", "0", 1)])
def test_gen_rejects_a_count_below_its_floor(capsys, flag, value, low):
    code, out, err = invoke(capsys, ["gen", "--seed", "1", flag, value])
    assert code == 2 and out == ""
    assert "argument %s: must be at least %d, got %s" % (flag, low, value) in err


def test_negative_cube_dimension_exits_two(tmp_path, capsys):
    path = write_instance(tmp_path, "negative.json", twisted_instance(1, n=-1))
    code, out, err = invoke(capsys, ["validate", path])
    assert code == 2 and out == ""
    assert "atlas: n must be at least 0, got -1" in err


def readme_quickstart():
    """The lines of the ``sh`` block under "Command line" in README.md."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    # the three inputs the block reads but does not make
    monkeypatch.chdir(tmp_path)
    write_instance(tmp_path, "gauge.json",
                   random_gauge(random.Random(1), twisted_instance(1, n=2).dims,
                                statomorphism=True))
    write_instance(tmp_path, "double.json", twisted_instance(2, n=2))
    write_instance(tmp_path, "gen.json",
                   InfinityPresentation(StabilizingGenerator(twisted_instance(3, n=2))))
    lines = readme_quickstart()
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "mvb"
        assert invoke(capsys, argv[1:])[0] == 0, line


def test_gen_deterministic_reports(tmp_path, capsys):
    code1, out1, _ = invoke(capsys, ["gen", "--seed", "5", "--n", "2"])
    code2, out2, _ = invoke(capsys, ["gen", "--seed", "5", "--n", "2"])
    assert code1 == code2 == 0
    b1, b2 = report_of(out1), report_of(out2)
    assert b1["report_hash"] == b2["report_hash"]
    b1.pop("timing_ms")
    b2.pop("timing_ms")
    assert b1 == b2


def test_core_and_stages(tmp_path, capsys):
    path = write_instance(tmp_path, "a.json", twisted_instance(403, n=3))
    code, out, _ = invoke(capsys, ["core", path, "--s", "1,2,3", "--j", "1,2"])
    assert code == 0
    assert report_of(out)["certificates"][0]["status"] == "pass"
    code, out, _ = invoke(capsys, [
        "core-stages", path, "--s", "1,2,3", "--j", "1,2", "--k", "1"])
    assert code == 0


NOT_INNER = "core needs a nonempty inner subset of the ambient node"
OUTSIDE = "ambient node outside the cube"
NOT_NESTED = "need nonempty first <= inner <= ambient"
CORE_ARGUMENT_ERRORS = [
    (["core", "--s", "1,2,3", "--j", "4"], NOT_INNER),
    (["core", "--s", "1,2,3", "--j", ""], NOT_INNER),
    (["core", "--s", "1,2,5", "--j", "1,2"], OUTSIDE),
    (["core", "--s", "1,2", "--j", "1,3"], NOT_INNER),
    (["core-stages", "--s", "1,2,3", "--j", "1,2", "--k", "3"], NOT_NESTED),
    (["core-stages", "--s", "1,2,3", "--j", "4", "--k", "1"], NOT_NESTED),
    (["core-stages", "--s", "1,2,3", "--j", "", "--k", "1"], NOT_NESTED),
    (["core-stages", "--s", "1,2,5", "--j", "1,2", "--k", "1"], OUTSIDE),
    (["core-stages", "--s", "1,2", "--j", "1,3", "--k", "1"], NOT_NESTED),
]


@pytest.mark.parametrize("argv, message", CORE_ARGUMENT_ERRORS,
                         ids=[" ".join(argv) for argv, _ in CORE_ARGUMENT_ERRORS])
def test_core_argument_errors_exit_two(tmp_path, capsys, argv, message):
    path = write_instance(tmp_path, "a.json", twisted_instance(403, n=3))
    code, _, err = invoke(capsys, argv[:1] + [path] + argv[1:])
    assert code == 2, err
    assert err.strip() == "error: " + message, err


def test_pullback_and_ultracore(tmp_path, capsys):
    path = write_instance(tmp_path, "a.json", twisted_instance(404, n=3))
    code, out, _ = invoke(capsys, ["pullback", path])
    assert code == 0
    code, out, _ = invoke(capsys, ["ultracore", path, "--k", "1"])
    assert code == 0
    body = report_of(out)
    assert body["certificates"][0]["status"] == "pass"


def test_split_decompose_normalize_torsor(tmp_path, capsys):
    path = write_instance(tmp_path, "a.json", twisted_instance(405, n=2))
    for argv in (
        ["split", path, "--strategy", "uniform-average"],
        ["decompose", path],
        ["normalize", path],
        ["torsor", path],
    ):
        code, out, _ = invoke(capsys, argv)
        assert code == 0, argv
        assert report_of(out)["status"] == "ok"


def test_stato_commands(tmp_path, capsys):
    a = twisted_instance(406, n=2, n_points=1, n_charts=2)
    g = next(g for key, g in sorted(a.transitions.items()) if key[0] != key[1])
    gauge_path = tmp_path / "g.json"
    gauge_path.write_bytes(formats.canonical_bytes(formats.to_json(g)))
    code, out, _ = invoke(capsys, ["stato", "check", str(gauge_path)])
    assert code in (0, 1)  # twisted transitions are usually not statomorphisms
    inv_path = str(tmp_path / "inv.json")
    code, out, _ = invoke(capsys, ["stato", "invert", str(gauge_path), "-o", inv_path])
    assert code == 0
    code, out, _ = invoke(capsys, [
        "stato", "compose", str(gauge_path), inv_path])
    assert code == 0
    composed = report_of(out)["result"]
    parsed = formats.parse(formats.canonical_bytes(composed))
    assert parsed.is_identity()


@pytest.mark.parametrize("action", ["invert", "check"])
def test_stato_rejects_a_second_file(tmp_path, capsys, action):
    # only compose reads a second gauge; the other actions used to ignore it
    a = twisted_instance(406, n=2, n_points=1, n_charts=2)
    gauge_path = tmp_path / "g.json"
    gauge_path.write_bytes(formats.dumps(a.transitions[sorted(a.transitions)[0]]))
    code, out, err = invoke(capsys, ["stato", action, str(gauge_path), "nosuchfile.json"])
    assert code == 2 and out == ""
    assert "extra argument 'nosuchfile.json'" in err


def test_hom_tangent_lift2_lift3(tmp_path, capsys):
    p2 = write_instance(tmp_path, "a.json", twisted_instance(407, n=2))
    p3 = write_instance(tmp_path, "b.json", twisted_instance(408, n=3))
    code, _, _ = invoke(capsys, ["hom", p2, p2])
    assert code == 0
    code, _, _ = invoke(capsys, ["tangent", p2])
    assert code == 0
    code, out, _ = invoke(capsys, ["lift2", p2])
    assert code == 0
    code, out, _ = invoke(capsys, ["lift3", p3])
    assert code == 0
    body = report_of(out)
    assert all(c["status"] == "pass" for c in body["certificates"])


def test_face_command(tmp_path, capsys):
    path = write_instance(tmp_path, "a.json", twisted_instance(409, n=3))
    code, out, _ = invoke(capsys, ["face", path, "--outer", "1,2"])
    assert code == 0
    assert report_of(out)["result"]["n"] == 2
    code, out, _ = invoke(capsys, ["face", path, "--outer", "1,2,3",
                                   "--inner", "3"])
    assert code == 0
    assert report_of(out)["result"]["n"] == 2


def test_inf_commands(tmp_path, capsys):
    gen = InfinityPresentation(
        StabilizingGenerator(twisted_instance(410, n=2, n_points=2, n_charts=2)))
    path = tmp_path / "gen.json"
    path.write_bytes(formats.dumps(gen))
    code, out, _ = invoke(capsys, ["inf", "truncate", str(path), "--n", "3"])
    assert code == 0
    code, out, _ = invoke(capsys, ["inf", "decompose", str(path), "--n", "2"])
    assert code == 0
    body = report_of(out)
    assert all(c["status"] == "pass" for c in body["certificates"])


def test_inf_commands_on_a_rule_generator_with_wide_frames(tmp_path, capsys):
    """Every slot of dim 3 up to cardinality 3: the n=3 top frame tensor
    has 81 entries, more than one hashed digest gives."""
    gen = InfinityPresentation(RuleGenerator(
        ["p", "q"], [("0", ("p", "q")), ("1", ("q",))],
        {"kind": "threshold", "dim": 3, "max_card": 3}, {"kind": "conjugate", "seed": 5}))
    path = tmp_path / "gen.json"
    path.write_bytes(formats.dumps(gen))
    code, out, _ = invoke(capsys, ["inf", "truncate", str(path), "--n", "3"])
    body = report_of(out)
    assert (code, body["status"]) == (0, "ok")
    assert {d["dim"] for d in body["result"]["dims"]} == {3}
    assert body["certificates"] == [
        {"claim": "atlas validates", "status": "pass", "witnesses": []}]
    code, out, _ = invoke(capsys, ["inf", "decompose", str(path), "--n", "2"])
    body = report_of(out)
    assert (code, body["status"]) == (0, "ok")
    assert [c["status"] for c in body["certificates"]] == ["pass", "pass"]


def test_validate_names_a_self_transition_that_is_no_identity(tmp_path, capsys):
    """A statomorphism with a nonzero top is no identity: the counterexample
    names the chart, the point and the first component that differs."""
    dims = DimAssignment(2, {(1,): 1, (2,): 1, (1, 2): 1})
    a = decomposed(dims, FiniteBase(["p"]))
    components = dict(identity_gauge(dims).components)
    components[(IndexSet([1, 2]), Partition([[1], [2]]))] = MultiTensor(1, (1, 1), [3])
    tau = Gauge(dims, dims, components)
    assert tau.is_statomorphism()
    bad = AtlasPresentation(2, dims, a.base, a.charts, {("0", "0", "p"): tau})
    code, out, _ = invoke(capsys, ["validate", write_instance(tmp_path, "self.json", bad)])
    body = report_of(out)
    assert (code, body["status"]) == (1, "fail")
    assert body["counterexamples"] == [{
        "kind": "identity", "charts": ["0"], "point": "p", "subset": [1, 2],
        "partition": [[1], [2]], "detail": "self-transition is not the identity"}]


def test_transition_of_other_dims_is_structural(tmp_path, capsys):
    """The validator reports a transition of other dims as structural; the
    reader refuses such a file first, naming the transition."""
    dims = DimAssignment(2, {(1,): 1, (2,): 1, (1, 2): 1})
    other = DimAssignment(2, {(1,): 2, (2,): 1, (1, 2): 1})
    a = decomposed(dims, FiniteBase(["p"]))
    bad = AtlasPresentation(2, dims, a.base, a.charts,
                            {("0", "0", "p"): identity_gauge(other)})
    report = validate(bad)
    assert [v.to_dict() for v in report.violations] == [{
        "kind": "structural", "charts": ["0", "0"], "point": "p",
        "detail": "transition dims mismatch"}]
    code, out, err = invoke(capsys, ["validate", write_instance(tmp_path, "dims.json", bad)])
    assert (code, out) == (2, "")
    assert "transition 0<-0 at p: gauge dims differ from the atlas dims" in err


def test_fixture_env_var(tmp_path, capsys, monkeypatch):
    write_instance(tmp_path, "fix.json", twisted_instance(411, n=2))
    monkeypatch.setenv("MVB_FIXTURES", str(tmp_path))
    code, _, _ = invoke(capsys, ["validate", "fix.json"])
    assert code == 0


def test_text_output(tmp_path, capsys):
    path = write_instance(tmp_path, "a.json", twisted_instance(412, n=2))
    code, out, _ = invoke(capsys, ["--output", "text", "validate", path])
    assert code == 0
    assert "status: ok" in out


def test_consecutive_runs_do_not_share_flags(tmp_path, capsys):
    path = write_instance(tmp_path, "a.json", twisted_instance(412, n=2))
    code, out, _ = invoke(capsys, ["validate", "--output", "text", path])
    assert code == 0 and "status: ok" in out
    code, out, _ = invoke(capsys, ["validate", path])
    assert code == 0 and report_of(out)["status"] == "ok"
    out_file = str(tmp_path / "g3.json")
    assert invoke(capsys, ["gen", "--seed", "5", "--n", "3", "-o", out_file])[0] == 0
    code, out, _ = invoke(capsys, ["gen", "--seed", "5"])
    assert code == 0 and formats.parse(json.dumps(report_of(out)["result"])).n == 2


def test_malformed_atlases_exit_two(tmp_path, capsys):
    instance = twisted_instance(403, n=2, n_points=2, n_charts=2)
    body = formats.atlas_to_json(instance)

    def edited(edit):
        copy = json.loads(json.dumps(body))
        edit(copy)
        return copy

    def add_component(target, blocks, out_dim, in_dim):
        tensor = MultiTensor(out_dim, (in_dim,), [1] * (out_dim * in_dim))

        def edit(copy):
            copy["transitions"][0]["gauge"]["components"].append({
                "target": target, "blocks": blocks,
                "tensor": formats.tensor_to_json(tensor)})
        return edit

    def bad_n(copy):
        copy["n"] = "x"

    cases = {
        "outside.json": (add_component([3], [[3]], 1, 1), "[3]"),
        "bad-n.json": (bad_n, "'x'"),
        "dropped.json": (add_component(
            [1, 2], [[1]], instance.dims.dim([1, 2]), instance.dims.dim([1])),
            "[[1]]"),
    }
    for name, (edit, needle) in cases.items():
        path = tmp_path / name
        path.write_bytes(formats.canonical_bytes(edited(edit)))
        code, _, err = invoke(capsys, ["validate", str(path)])
        assert code == 2, name
        assert "input error" in err and needle in err, (name, err)


def test_transition_ids_of_any_json_type_exit_cleanly(tmp_path, capsys):
    """A transition's from/to/point, like chart ids and base points, is a
    JSON string or an integer; a list, null or object there is an input
    error naming the field.  It used to raise TypeError, and then to be
    read as the Python text of the value and fail validation."""
    instance = twisted_instance(404, n=2, n_points=2, n_charts=2)
    body = formats.atlas_to_json(instance)
    for field, value in (("from", ["0"]), ("point", None), ("to", {"a": 1})):
        copy = json.loads(json.dumps(body))
        copy["transitions"][0][field] = value
        path = tmp_path / ("%s.json" % field)
        path.write_bytes(formats.canonical_bytes(copy))
        code, out, err = invoke(capsys, ["validate", str(path)])
        assert (code, out) == (2, ""), (field, err)
        assert err.startswith("input error: transition %s must be a string or an integer"
                              % field), err


# A base point, chart id or domain point other than a JSON string or
# integer, each (place, value, field named in the error).  They used to be
# read as the Python text of the value: a list base point was reported as
# a counterexample at point "['x']", and a list chart id failed
# validation with "transition outside overlap".
BAD_NAMES = {
    "base-list": ("base", ["x"], "atlas base point"),
    "base-null": ("base", None, "atlas base point"),
    "chart-id-list": ("id", ["x"], "atlas chart id"),
    "chart-id-boolean": ("id", True, "atlas chart id"),
    "domain-float": ("domain", 1.5, "atlas chart 0 domain point"),
    "domain-object": ("domain", {"p": 1}, "atlas chart 0 domain point"),
}


@pytest.mark.parametrize("case", list(BAD_NAMES.values()), ids=list(BAD_NAMES))
def test_names_of_other_json_types_exit_two_naming_the_field(tmp_path, capsys, case):
    place, value, field = case
    body = formats.atlas_to_json(twisted_instance(404, n=2, n_points=2, n_charts=2))
    if place == "base":
        body["base"][0] = value
    elif place == "id":
        body["charts"][0]["id"] = value
    else:
        body["charts"][0]["domain"][0] = value
    path = tmp_path / "a.json"
    path.write_bytes(formats.canonical_bytes(body))
    code, out, err = invoke(capsys, ["validate", str(path)])
    assert (code, out) == (2, ""), err
    assert err == "input error: %s must be a string or an integer, got %r\n" % (field, value)


@pytest.mark.parametrize("place, value", [("base", ["x"]), ("id", None), ("domain", 2.0)])
def test_rule_generator_names_of_other_json_types_exit_two(tmp_path, capsys, place, value):
    body = json.loads(formats.dumps(InfinityPresentation(RuleGenerator(
        ["p"], [("0", ("p",))], {"kind": "threshold", "dim": 1, "max_card": 2},
        {"kind": "conjugate", "seed": 3}))))
    generator = body["generator"]
    if place == "base":
        generator["base"][0] = value
    elif place == "id":
        generator["charts"][0]["id"] = value
    else:
        generator["charts"][0]["domain"][0] = value
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(body))
    code, out, err = invoke(capsys, ["inf", "truncate", str(path), "--n", "1"])
    assert (code, out) == (2, ""), err
    assert err.startswith("input error: rule generator ") and \
        "must be a string or an integer, got %r" % (value,) in err, err


def test_integer_names_read_as_their_decimal_text(tmp_path, capsys):
    """Integers stand for their decimal text wherever a name goes, in the
    canonical text reader and the JSON reader alike."""
    body = formats.atlas_to_json(twisted_instance(404, n=2, n_points=2, n_charts=2))
    named = {"p0": 70, "p1": 71, "0": 0, "1": 1}
    expected = json.loads(json.dumps(body).replace('"p0"', '"70"').replace('"p1"', '"71"'))
    body["base"] = [named[p] for p in body["base"]]
    for chart in body["charts"]:
        chart["id"], chart["domain"] = named[chart["id"]], [named[p] for p in chart["domain"]]
    for transition in body["transitions"]:
        for field in ("from", "to", "point"):
            transition[field] = named[transition[field]]
    want = formats.parse(formats.canonical_bytes(expected))
    for data in (formats.canonical_bytes(body), json.dumps(body, indent=1).encode()):
        got = formats.parse(data)
        assert (got.base, got.charts, got.transitions) == (
            want.base, want.charts, want.transitions)
        path = tmp_path / "a.json"
        path.write_bytes(data)
        code, out, _ = invoke(capsys, ["validate", str(path)])
        assert code == 0 and report_of(out)["fingerprint"] == formats.fingerprint(want)


def test_duplicate_points_are_named(tmp_path, capsys):
    """The errors used to read "duplicate base points" and "duplicate
    points in chart domain", naming neither the point nor the chart."""
    body = formats.atlas_to_json(twisted_instance(404, n=2, n_points=2, n_charts=2))
    base = json.loads(json.dumps(body))
    base["base"].append("p1")
    domain = json.loads(json.dumps(body))
    domain["charts"][1]["domain"].append("p0")
    for copy, message in ((base, "duplicate base point 'p1'"),
                          (domain, "duplicate point 'p0' in the domain of chart '1'")):
        path = tmp_path / "a.json"
        path.write_bytes(formats.canonical_bytes(copy))
        code, out, err = invoke(capsys, ["validate", str(path)])
        assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_non_integer_counts_exit_two(tmp_path, capsys):
    """Counts that int() rejects used to escape as ValueError or
    OverflowError instead of an input error."""
    body = formats.atlas_to_json(twisted_instance(405, n=2, n_points=2, n_charts=2))

    def component(copy):
        return copy["transitions"][0]["gauge"]["components"][0]["tensor"]

    edits = {
        "dim": lambda c: c["dims"][0].update(dim=":"),
        "in_dims": lambda c: component(c).update(in_dims=":"),
        "out_dim": lambda c: component(c).update(out_dim=""),
        "infinite-n": lambda c: c.update(n=float("inf")),
        "infinite-dim": lambda c: c["dims"][0].update(dim=float("inf")),
    }
    for name, edit in edits.items():
        copy = json.loads(json.dumps(body))
        edit(copy)
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(copy))
        code, _, err = invoke(capsys, ["validate", str(path)])
        assert code == 2, (name, err)
        assert "input error" in err, (name, err)


# Runs validate under a 1 GiB address-space limit, so that a regression
# fails with MemoryError instead of exhausting the machine.
_LIMITED_VALIDATE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from mvb.cli import run
sys.exit(run(["validate", sys.argv[1]]))
"""


def test_huge_cube_dimension_costs_no_more_than_the_dims_given(tmp_path):
    """n = 10**12 with the dims of an n=2 atlas used to build {1..n} in
    memory before reporting the first missing dimension."""
    body = formats.atlas_to_json(twisted_instance(406, n=2, n_points=1, n_charts=1))
    body["n"] = 10 ** 12
    path = tmp_path / "huge-n.json"
    path.write_text(json.dumps(body))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _LIMITED_VALIDATE, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "missing dimension for [3]" in proc.stderr


def test_non_list_collections_exit_two(tmp_path, capsys):
    """``transitions`` or a gauge's ``components`` that is not a list used
    to raise TypeError while being iterated."""
    body = formats.atlas_to_json(twisted_instance(407, n=2, n_points=2, n_charts=2))
    edits = {
        "transitions": lambda c: c.update(transitions=3),
        "components": lambda c: c["transitions"][0]["gauge"].update(components=None),
    }
    for name, edit in edits.items():
        copy = json.loads(json.dumps(body))
        edit(copy)
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(copy))
        code, _, err = invoke(capsys, ["validate", str(path)])
        assert code == 2, (name, err)
        assert "input error" in err and name in err, (name, err)


def test_duplicate_entries_exit_two(tmp_path, capsys):
    """A second dims entry, gauge component or transition for the same key
    used to replace the first one silently, and validation passed."""
    body = formats.atlas_to_json(twisted_instance(408, n=2, n_points=2, n_charts=2))

    def components(copy):
        return copy["transitions"][0]["gauge"]["components"]

    def other_transition_at_first_key(copy):
        first, other = copy["transitions"][0], copy["transitions"][1]
        twin = dict(other, **{k: first[k] for k in ("from", "to", "point")})
        copy["transitions"].append(twin)

    edits = {
        "dims": (lambda c: c["dims"].insert(0, dict(c["dims"][0], dim=5)), "[1]"),
        "component": (lambda c: components(c).append(dict(components(c)[0])), "[[1]]"),
        "transition": (other_transition_at_first_key,
                       "%s<-%s at %s" % (body["transitions"][0]["to"],
                                         body["transitions"][0]["from"],
                                         body["transitions"][0]["point"])),
    }
    for name, (edit, needle) in edits.items():
        copy = json.loads(json.dumps(body))
        edit(copy)
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(copy))
        code, _, err = invoke(capsys, ["validate", str(path)])
        assert code == 2, (name, err)
        assert "input error" in err and "duplicate" in err and needle in err, (name, err)


def test_file_of_the_wrong_kind_exits_two(tmp_path, capsys):
    a = twisted_instance(409, n=2, n_points=1, n_charts=2)
    atlas_path = write_instance(tmp_path, "atlas.json", a)
    gauge_path = write_instance(tmp_path, "gauge.json", a.transitions[
        next(iter(sorted(a.transitions)))])
    for argv, path, noun in (
            (["stato", "check", atlas_path], atlas_path, "a gauge"),
            (["validate", gauge_path], gauge_path, "an atlas"),
            (["inf", "decompose", atlas_path, "--n", "1"], atlas_path,
             "a tower generator")):
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == "input error: %s does not hold %s\n" % (path, noun), argv


def test_stabilizing_generator_level_must_be_the_instance_level(tmp_path, capsys):
    # a 2-fold instance: only "N": 2 is its level; no other value may parse
    body = json.loads(formats.dumps(InfinityPresentation(StabilizingGenerator(
        twisted_instance(410, n=2, n_points=1, n_charts=2)))))
    assert body["generator"]["N"] == 2
    for level in (7, 1, 3, "x", "2", 2.0, True, None, [2], "absent"):
        copy = json.loads(json.dumps(body))
        if level == "absent":
            del copy["generator"]["N"]
        else:
            copy["generator"]["N"] = level
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(copy))
        code, out, err = invoke(capsys, ["inf", "decompose", str(path), "--n", "2"])
        assert (code, out) == (2, ""), level
        assert err.startswith("input error: ") and "N must be" in err, (level, err)


# Malformed rule generator fields, each (rule, field, value): a rule
# that is no object used to raise AttributeError, a "dim" of "x" raised
# ValueError out of cli.run, and 1.5, true and "2" were coerced by int();
# a "dim" of -1 was reported at a slot of the truncation, and a
# "max_card" of -1 was accepted.  A seed other than an integer was
# hashed as its text, and an unknown kind was an "error:" naming no field.
# An extra field was dropped from "dim_rule" and kept in "transition_rule".
BAD_RULE_FIELDS = {
    "dim_rule-list": ("dim_rule", None, [1]),
    "dim_rule-string": ("dim_rule", None, "threshold"),
    "transition_rule-list": ("transition_rule", None, ["conjugate"]),
    "transition_rule-string": ("transition_rule", None, "conjugate"),
    "dim-letters": ("dim_rule", "dim", "x"),
    "dim-float": ("dim_rule", "dim", 1.5),
    "dim-boolean": ("dim_rule", "dim", True),
    "dim-string": ("dim_rule", "dim", "2"),
    "max_card-float": ("dim_rule", "max_card", 1.5),
    "max_card-boolean": ("dim_rule", "max_card", True),
    "max_card-string": ("dim_rule", "max_card", "2"),
    "dim-negative": ("dim_rule", "dim", -1),
    "max_card-negative": ("dim_rule", "max_card", -1),
    "seed-string": ("transition_rule", "seed", "5"),
    "seed-float": ("transition_rule", "seed", 5.0),
    "seed-null": ("transition_rule", "seed", None),
    "seed-boolean": ("transition_rule", "seed", True),
    "seed-list": ("transition_rule", "seed", [5]),
    "dim_rule-kind": ("dim_rule", "kind", "linear"),
    "transition_rule-kind": ("transition_rule", "kind", "shear"),
    "dim_rule-extra": ("dim_rule", "extra", 5),
    "transition_rule-extra": ("transition_rule", "extra", 5),
}


@pytest.mark.parametrize("case", list(BAD_RULE_FIELDS.values()), ids=list(BAD_RULE_FIELDS))
@pytest.mark.parametrize("command", ["truncate", "decompose"])
def test_malformed_rule_generator_fields_exit_two_naming_the_field(tmp_path, capsys,
                                                                  command, case):
    rule, field, value = case
    body = json.loads(formats.dumps(InfinityPresentation(RuleGenerator(
        ["p"], [("0", ("p",))], {"kind": "threshold", "dim": 1, "max_card": 2},
        {"kind": "conjugate", "seed": 3}))))
    if field is None:
        body["generator"][rule] = value
    else:
        body["generator"][rule][field] = value
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(body))
    code, out, err = invoke(capsys, ["inf", command, str(path), "--n", "2"])
    assert (code, out) == (2, ""), err
    assert err.startswith("input error: rule generator") and (field or rule) in err, err


# Entries outside the rational grammar "p" / "p/q" (ASCII digits, an
# optional sign, a nonzero denominator, at most 4300 digits per part).
# Each used to parse (exponent, decimal, padded, underscored, non-ASCII
# digits, a JSON number) or to fail with a message that named no entry;
# "1e5000" then raised ValueError out of cli.run while the report was
# serialized.
BAD_RATIONALS = {
    "exponent": "1e5000", "decimal": "1.5", "space": " 1", "underscore": "1_0",
    "arabic-indic": "٣", "hex": "0x10", "zero-denominator": "1/0",
    "sign-only": "+", "empty": "", "json-number": 2, "4301-digits": "1" * 4301,
}


@pytest.mark.parametrize("entry", list(BAD_RATIONALS.values()), ids=list(BAD_RATIONALS))
@pytest.mark.parametrize("command", ["validate", "stato-invert"])
def test_entries_outside_the_rational_grammar_exit_two(tmp_path, capsys, command, entry):
    dims = DimAssignment(1, {(1,): 1})
    if command == "validate":
        body = formats.atlas_to_json(decomposed(dims, FiniteBase(["p"])))
        gauge = body["transitions"][0]["gauge"]
        argv = ["validate"]
    else:
        body = gauge = formats.to_json(identity_gauge(dims))
        argv = ["stato", "invert"]
    gauge["components"][0]["tensor"]["entries"] = [entry]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    code, out, err = invoke(capsys, argv + [str(path)])
    assert code == 2 and out == ""
    assert "input error" in err and "component at ([1], [[1]]) entry 0" in err, err
    assert len(err) < 400


def _one_fold_gauge(tmp_path, name, rows):
    """A 1-fold gauge file whose one component is the matrix ``rows`` of
    entry texts."""
    body = formats.to_json(identity_gauge(DimAssignment(1, {(1,): len(rows)})))
    body["components"][0]["tensor"]["entries"] = [x for row in rows for x in row]
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def test_results_beyond_the_digit_limit_exit_two(tmp_path, capsys):
    """The 8000-digit product of two 4000-digit entries is an error naming
    the component and the limit; it was a ValueError out of cli.run."""
    big = _one_fold_gauge(tmp_path, "big.json", [["9" * 4000]])
    out_path = tmp_path / "out.json"
    code, out, err = invoke(capsys, ["stato", "compose", big, big, "-o", str(out_path)])
    assert (code, out) == (2, "") and not out_path.exists()
    assert err == ("error: gauge component at ([1], [[1]]): tensor entry 0 has a part"
                   " of more than 4300 digits, the format's limit\n")


P, Q = 10 ** 2499 + 1, 10 ** 2499 + 3


@pytest.mark.parametrize("rows, inverse", [
    ([["1/1" + "0" * 4299]], ["1" + "0" * 4299]),
    # the entries 1/P and 1/Q are written although their common
    # denominator P*Q has 4999 digits
    ([[str(P), "0"], ["0", str(Q)]], ["1/%d" % P, "0", "0", "1/%d" % Q]),
], ids=["4300-digits", "long-common-denominator"])
def test_results_within_the_digit_limit_are_written(tmp_path, capsys, rows, inverse):
    gauge = _one_fold_gauge(tmp_path, "g.json", rows)
    out_path = tmp_path / "out.json"
    code, _, err = invoke(capsys, ["stato", "invert", gauge, "-o", str(out_path)])
    assert (code, err) == (0, "")
    body = json.loads(out_path.read_text())
    assert body["components"][0]["tensor"]["entries"] == inverse
    assert formats.dumps(formats.parse(out_path.read_bytes())) + b"\n" == out_path.read_bytes()


def test_long_entries_do_not_depend_on_the_int_to_string_limit(tmp_path, capsys):
    """Parts of up to 4300 digits are read and written 640 digits at a
    time, so under CPython's lowest int-to-string limit every command
    gives the exit code, report and output bytes of the default limit;
    they raised ValueError out of cli.run."""
    gauge = _one_fold_gauge(tmp_path, "g.json", [["7" * 1000, "3/" + "1" * 1500],
                                                 ["0", "-" + "2" * 999]])
    out_path = tmp_path / "out.json"
    commands = [["stato", "check", gauge], ["stato", "invert", gauge, "-o", str(out_path)],
                ["stato", "compose", gauge, gauge, "-o", str(out_path)]]
    seen = {}
    default = sys.get_int_max_str_digits()
    for limit in (default, 640):
        sys.set_int_max_str_digits(limit)
        try:
            for argv in commands:
                out_path.unlink(missing_ok=True)
                code, out, err = invoke(capsys, argv)
                report = report_of(out)
                del report["timing_ms"]
                written = out_path.read_bytes() if "-o" in argv else None
                seen.setdefault(argv[1], []).append((code, report, err, written))
        finally:
            sys.set_int_max_str_digits(default)
    assert [runs[0][0] for runs in seen.values()] == [1, 0, 0]
    for runs in seen.values():
        assert runs[0] == runs[1]


def _inverse_pair_broken(instance):
    """``instance`` with one transition replaced by its perturbation, so
    that its pair is no longer mutually inverse: validate reports it."""
    p = next(p for p in instance.base if len(instance.charts_at(p)) >= 2)
    tau = random_gauge(random.Random(0), instance.dims, statomorphism=True)
    broken = perturb_transition(instance, "1", "0", p, tau)
    transitions = dict(instance.transitions)
    transitions[("1", "0", p)] = broken.transitions[("1", "0", p)]
    return AtlasPresentation(instance.n, instance.dims, instance.base, instance.charts,
                             transitions)


REPORTED = {
    "validate": ["validate", "{atlas}"],
    "validate-fail": ["validate", "{broken}"],
    "gen": ["gen", "--seed", "5", "--n", "2", "-o", "{out}"],
    "stato-compose": ["stato", "compose", "{g}", "{h}", "-o", "{out}"],
    "stato-invert": ["stato", "invert", "{g}", "-o", "{out}"],
    "decompose": ["decompose", "{atlas}", "-o", "{out}"],
    "face": ["face", "{atlas}", "--outer", "1,2", "--inner", "1", "-o", "{out}"],
}


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize("name", list(REPORTED))
def test_reports_match_the_oracle_encoder(tmp_path, capsys, monkeypatch, name, output):
    """stdout (timing masked) and ``-o`` bytes equal those of the encoder
    that built the report as one dict and encoded it per use."""
    atlas = twisted_instance(410, n=2, n_points=2, n_charts=2)
    gauges = [g for key, g in sorted(atlas.transitions.items()) if key[0] != key[1]]
    paths = {"atlas": write_instance(tmp_path, "a.json", atlas),
             "broken": write_instance(tmp_path, "b.json", _inverse_pair_broken(atlas)),
             "g": write_instance(tmp_path, "g.json", gauges[0]),
             "h": write_instance(tmp_path, "h.json", gauges[1]),
             "out": str(tmp_path / "out.json")}
    argv = [arg.format(**paths) for arg in REPORTED[name]]

    results, oracle_out = [], io.StringIO()
    set_result, emit = cli.Report.set_result, cli._emit

    def keep_result(report, text, outfile):
        results.append(json.loads(text))
        set_result(report, text, outfile)

    def emit_both(report, args):
        report_oracle.emit(report, results[0] if results else None, args.output,
                           args.out and args.out + ".oracle", oracle_out.write)
        return emit(report, args)

    monkeypatch.setattr(cli.Report, "set_result", keep_result)
    monkeypatch.setattr(cli, "_emit", emit_both)
    code = run(["--output", output] + argv)
    assert code == (1 if name == "validate-fail" else 0)

    def masked(text):
        return re.sub(r'(timing_ms"?:) ?\d+', r"\1", text)
    out = capsys.readouterr().out
    assert out.count("\n") >= 1 and masked(out) == masked(oracle_out.getvalue())
    if "-o" in argv:
        with open(paths["out"], "rb") as new, open(paths["out"] + ".oracle", "rb") as old:
            assert new.read() == old.read()


def test_torsor_validates_its_atlas_once(tmp_path, capsys, monkeypatch):
    """Both strategies decompose one validated atlas; an invalid atlas
    exits 1 with the same message as ``decompose`` gives."""
    from mvb import split
    atlas = twisted_instance(410, n=2, n_points=2, n_charts=2)
    good = write_instance(tmp_path, "a.json", atlas)
    bad = write_instance(tmp_path, "b.json", _inverse_pair_broken(atlas))
    calls = []
    validate = split.validate
    monkeypatch.setattr(split, "validate", lambda a: calls.append(1) or validate(a))
    code, out, _ = invoke(capsys, ["torsor", good])
    assert code == 0 and report_of(out)["status"] == "ok"
    assert len(calls) == 1
    code, _, decompose_err = invoke(capsys, ["decompose", bad])
    assert code == 1 and decompose_err.startswith("semantic failure: presentation does not")
    assert invoke(capsys, ["torsor", bad])[::2] == (1, decompose_err)
