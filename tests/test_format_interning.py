"""One read decodes each distinct piece of an input once; one
serialization writes each distinct tensor once.

``formats`` interns, for the length of one top-level read, every tensor
and dims list under a key of exact JSON types, and caches, for the
length of one ``to_json`` call, each tensor's entries text by identity.
These tests compare both with the eager reader and writer kept in
``format_oracle`` (the same object or the same error, the same tree),
and pin what the interning promises: shared dims, shared equal tensors,
no shared mutable container in an output tree, and an unchanged input
fingerprint.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import sys
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import format_oracle as oracle
from mvb import cli, formats
from mvb.atlas import AtlasPresentation, validate
from mvb.errors import SchemaError
from mvb.rand import random_dims, random_gauge, seeded, twisted_instance
from mvb.split import decompose

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
import workloads  # noqa: E402

DIFFERENTIAL = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])

# atlases and a gauge whose files repeat dims lists and tensors
# (identity blocks, +-1, 1/2) across components and charts
BASES = [json.loads(formats.dumps(x)) for x in (
    twisted_instance(11, n=1, max_dim=2, n_points=2, n_charts=2),
    twisted_instance(12, n=2, max_dim=2, n_points=2, n_charts=3),
    twisted_instance(13, n=3, max_dim=1, n_points=2, n_charts=2),
    random_gauge(seeded(14), random_dims(seeded(15), 2, max_dim=2)),
)]


def gen_atlas(seed=602):
    """The atlas ``mvb gen`` writes for one of the ingest workload's seeds."""
    seed, n, points, charts, max_dim = next(g for g in workloads.INGEST_GEN if g[0] == seed)
    return twisted_instance(seed, n=n, max_dim=max_dim, n_points=points, n_charts=charts)


def gauges_of(body):
    if body.get("kind") == "gauge":
        return [body]
    return [t["gauge"] for t in body.get("transitions", [])
            if isinstance(t, dict) and isinstance(t.get("gauge"), dict)]


def components_of(body):
    return [c for g in gauges_of(body) if isinstance(g.get("components"), list)
            for c in g["components"] if isinstance(c, dict)]


def tensors_of(body):
    return [c["tensor"] for c in components_of(body) if isinstance(c.get("tensor"), dict)]


def int_slots(body):
    """(container, key) of every JSON integer a reader checks for exact type."""
    slots = [(body, "n")] if isinstance(body.get("n"), int) else []
    for dims in [body.get("dims")] + [g.get(k) for g in gauges_of(body)
                                      for k in ("source_dims", "target_dims")]:
        if isinstance(dims, list):
            slots += [(d, "dim") for d in dims if isinstance(d, dict) and "dim" in d]
    for g in gauges_of(body):
        slots.append((g, "n"))
    for c in components_of(body):
        if isinstance(c.get("target"), list):
            slots += [(c["target"], i) for i in range(len(c["target"]))]
    for t in tensors_of(body):
        slots.append((t, "out_dim"))
        if isinstance(t.get("in_dims"), list):
            slots += [(t["in_dims"], i) for i in range(len(t["in_dims"]))]
    return slots


def _retype(choose, slots):
    """One of the JSON integers at ``slots`` as the equal bool or float."""
    if slots:
        box, key = choose(slots)
        if isinstance(box[key], int):
            box[key] = choose([bool(box[key]), float(box[key])])


def _bool_or_float(choose, body):
    _retype(choose, int_slots(body))


def _bool_or_float_in_a_repeat(choose, body):
    """A bool or float in a later copy of a tensor or dims list, where a
    key that ignored types would find the copy read before."""
    seen, repeats = set(), []
    for tensor in tensors_of(body):
        key = json.dumps(tensor, sort_keys=True)
        if key in seen:
            repeats.append(tensor)
        seen.add(key)
    slots = [(t, "out_dim") for t in repeats] + [
        (t["in_dims"], i) for t in repeats if isinstance(t.get("in_dims"), list)
        for i in range(len(t["in_dims"]))]
    for gauge in gauges_of(body):
        for dims in (gauge.get("source_dims"), gauge.get("target_dims")):
            if isinstance(dims, list):
                for item in dims:
                    if isinstance(item, dict):
                        slots.append((item, "dim"))
                        if isinstance(item.get("set"), list):
                            slots += [(item["set"], i) for i in range(len(item["set"]))]
    _retype(choose, slots)


def _entry_not_a_string(choose, body):
    tensors = [t for t in tensors_of(body) if isinstance(t.get("entries"), list) and t["entries"]]
    if tensors:
        entries = choose(tensors)["entries"]
        at = choose(range(len(entries)))
        entries[at] = choose([[entries[at]], 1, 1.0, True, None, {"p": 1}])


def _duplicate_component(choose, body):
    gauges = [g for g in gauges_of(body) if isinstance(g.get("components"), list)
              and g["components"]]
    if gauges:
        components = choose(gauges)["components"]
        components.append(copy.deepcopy(choose(components)))


def _wrong_shape(choose, body):
    """A tensor one output row longer: it reads, but not at its component."""
    tensors = [t for t in tensors_of(body) if isinstance(t.get("out_dim"), int)
               and isinstance(t.get("in_dims"), list) and isinstance(t.get("entries"), list)
               and all(type(d) is int for d in t["in_dims"])]
    if tensors:
        tensor = choose(tensors)
        tensor["out_dim"] += 1
        tensor["entries"] += ["0"] * prod(tensor["in_dims"])


def _copy_tensor(choose, body):
    """One component's tensor over another's: a repeat, or a wrong shape."""
    components = [c for c in components_of(body) if "tensor" in c]
    if components:
        source, target = choose(components), choose(components)
        target["tensor"] = copy.deepcopy(source["tensor"])


def _drop_component(choose, body):
    gauges = [g for g in gauges_of(body) if isinstance(g.get("components"), list)
              and g["components"]]
    if gauges:
        components = choose(gauges)["components"]
        del components[choose(range(len(components)))]


EDITS = [_bool_or_float, _bool_or_float_in_a_repeat, _entry_not_a_string, _duplicate_component, _wrong_shape,
         _copy_tensor, _drop_component]


def edited(choose):
    """A copy of one of ``BASES`` with up to three edits, each choice
    made by ``choose(options)``."""
    body = copy.deepcopy(choose(BASES))
    for _ in range(choose(range(4))):
        choose(EDITS)(choose, body)
    return json.dumps(body)


def outcome(read, text):
    """What ``read`` makes of ``text``: comparable fields of the object, or
    the class and message of the exception."""
    try:
        value = read(text)
    except Exception as err:
        return type(err), str(err)
    if isinstance(value, AtlasPresentation):
        return value.n, value.dims, value.base, value.charts, value.transitions
    return value


@DIFFERENTIAL
@given(st.data())
def test_the_interning_reader_reads_as_the_eager_one(data):
    text = edited(lambda options: data.draw(st.sampled_from(options)))
    assert outcome(formats.parse, text) == outcome(
        lambda t: oracle.from_json(json.loads(t)), text)


def test_the_edits_reach_every_check_the_interning_must_keep():
    rng = seeded(3)
    messages = " ".join(
        str(result[1]) for result in (outcome(formats.parse, edited(rng.choice))
                                      for _ in range(400))
        if isinstance(result, tuple) and isinstance(result[0], type))
    for needle in ("must be an integer", 'must be a rational "p" or "p/q"',
                   "duplicate component", "has shape", "missing explicit one-block",
                   "tensor of transition"):
        assert needle in messages, needle


def test_every_gauge_of_a_parsed_gen_atlas_shares_the_atlas_dims():
    atlas = formats.parse(formats.dumps(gen_atlas()))
    assert len(atlas.transitions) > 1
    for gauge in atlas.transitions.values():
        assert gauge.source_dims is atlas.dims and gauge.target_dims is atlas.dims


def test_equal_tensors_in_one_file_are_one_object():
    atlas = formats.parse(formats.dumps(gen_atlas()))
    tensors = [t for g in atlas.transitions.values() for t in g.tensors if t is not None]
    distinct = set(tensors)
    assert len(distinct) < len(tensors) / 2
    assert len({id(t) for t in tensors}) == len(distinct)


def test_each_distinct_tensor_is_decoded_once(monkeypatch):
    body = formats.atlas_to_json(gen_atlas())
    keys = {(t["out_dim"], tuple(t["in_dims"]), tuple(t["entries"])) for t in tensors_of(body)}
    calls = []
    decode = formats.tensor_from_json
    monkeypatch.setattr(formats, "tensor_from_json",
                        lambda obj, where="": calls.append(1) or decode(obj, where))
    formats.parse(formats.canonical_bytes(body))
    assert len(calls) == len(keys) < len(tensors_of(body))


def test_a_bound_morphism_reads_as_the_eager_one():
    atlas = twisted_instance(21, n=2, n_points=2, n_charts=2)
    dec = decompose(atlas)
    body = json.loads(formats.dumps(dec))
    bound = formats.morphism_from_json(body, dec.source, dec.target)
    assert bound == oracle.morphism_from_json(body, dec.source, dec.target) == dec
    gauges = list(bound.data.values())
    assert all(g.source_dims is gauges[0].source_dims for g in gauges)


def test_validate_compose_and_invert_leave_interned_tensors_unchanged():
    atlas = formats.parse(formats.dumps(twisted_instance(22, n=3, n_points=2, n_charts=3)))
    tensors = {id(t): t for g in atlas.transitions.values() for t in g.tensors if t is not None}
    before = {key: (list(t.integer_form()[0]), t.integer_form()[1])
              for key, t in tensors.items()}
    assert validate(atlas).valid
    for gauge in atlas.transitions.values():
        assert gauge.compose(gauge.invert()).is_identity()
        gauge.invert().compose(gauge)
    assert {key: (list(t.integer_form()[0]), t.integer_form()[1])
            for key, t in tensors.items()} == before


def containers(tree):
    """Every dict and list of a JSON tree, one entry per place."""
    out = [tree]
    for child in (tree.values() if isinstance(tree, dict) else tree):
        if isinstance(child, (dict, list)):
            out += containers(child)
    return out


def test_a_to_json_tree_shares_no_mutable_container():
    atlas = formats.parse(formats.dumps(gen_atlas()))
    tree = formats.to_json(atlas)
    places = containers(tree)
    assert len({id(c) for c in places}) == len(places)

    # edit one component and one dims entry, then put back only those:
    # the rest of the tree never saw the edits
    before = copy.deepcopy(tree)
    gauge, kept = tree["transitions"][0]["gauge"], before["transitions"][0]["gauge"]
    gauge["components"][0]["tensor"]["entries"][0] = "7"
    gauge["components"][0]["tensor"]["in_dims"].append(1)
    gauge["source_dims"][0]["set"].append(9)
    gauge["components"][0] = copy.deepcopy(kept["components"][0])
    gauge["source_dims"][0] = copy.deepcopy(kept["source_dims"][0])
    assert tree == before


@pytest.mark.parametrize("value", [
    gen_atlas(601), gen_atlas(604),
    twisted_instance(23, n=2, n_points=2, n_charts=2),
    random_gauge(seeded(24), random_dims(seeded(25), 3, max_dim=2)),
], ids=["gen-601", "gen-604", "atlas", "gauge"])
def test_the_writer_writes_as_the_eager_one(value):
    parsed = formats.parse(formats.dumps(value))
    assert formats.to_json(value) == oracle.to_json(value)
    assert formats.to_json(parsed) == oracle.to_json(parsed)


def test_the_writer_of_a_morphism_writes_as_the_eager_one():
    dec = decompose(twisted_instance(26, n=2, n_points=2, n_charts=2))
    assert formats.to_json(dec) == oracle.to_json(dec)


def workload_inputs(tmp_path, name):
    """The parsed input files of a workload's seed-0 pass: written by its
    set-up, by its ``gen`` operations and by the preparation of others."""
    workdir = str(tmp_path / name)
    ops = workloads.setup(name, workdir, workloads.DEFAULT_SEED)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for op in ops:
            if op.prepare:
                op.prepare()
            if op.subcommand == "gen":
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.run(op.argv) == 0
        found = {}
        for file_name in sorted(os.listdir(workdir)):
            with open(file_name, "rb") as handle:
                try:
                    found[file_name] = formats.parse(handle.read())
                except SchemaError:
                    assert file_name.startswith("malformed-")
        return found
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", ["corpus", "ingest"])
def test_the_fingerprint_is_the_hash_of_the_eager_serialization(tmp_path, name):
    inputs = workload_inputs(tmp_path, name)
    assert len(inputs) >= 10
    for file_name, value in inputs.items():
        expected = hashlib.sha256(formats.canonical_bytes(oracle.to_json(value))).hexdigest()
        assert cli._fingerprint(value) == expected, file_name
