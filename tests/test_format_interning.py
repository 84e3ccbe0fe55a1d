"""One read decodes each distinct piece of an input once; one
serialization writes each distinct tensor once.

``formats`` reads every atlas and gauge by its canonical text, the
input as it stands or its JSON tree written canonically, interning each
tensor and dims text for the length of one read, and writes canonical
text straight from the objects, keeping for the length of one
``to_text`` call the text of each distinct tensor and dims list by
value.  These tests compare both with the eager reader and tree writer
kept in ``format_oracle`` (the same object or the same error, the same
bytes), and pin what the interning promises: shared dims, shared equal
tensors, each distinct tensor written once, no shared mutable
container in a ``to_json`` tree, and an input fingerprint that depends
only on the values an input holds.  Edits written with ``json.dumps``,
canonically, and with blocks reversed (which the JSON reader reads),
and mutations of canonical text, must read as the eager reader or the
JSON reader reads them, and no canonical or indented input may reach
the JSON reader's component checks.  The text reader calls what it read
exact just when ``to_text`` writes that text, so an input is fingerprinted
by its own bytes only then, and by the text written from it otherwise.
"""
import contextlib
import copy
import hashlib
import io
import json
import os
import re
import sys
import time
from math import prod

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import format_oracle as oracle
from helpers import seeded
from mvb import cli, formats
from mvb.atlas import AtlasPresentation, validate
from mvb.bundle import BundleMorphism
from mvb.cores import ultracore_sequence
from mvb.cubecat import Partition, cube_plan, full_set, nonempty_subsets
from mvb.errors import InvalidInput, SchemaError
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment, Gauge
from mvb.rand import random_dims, random_element, random_gauge, twisted_instance
from mvb.split import decompose, find_splitting
from mvb.tower import InfinityPresentation, RuleGenerator, StabilizingGenerator
from test_routing import SMALL, small_instances

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


def eager_bytes(value):
    """The bytes the eager tree writer gives for ``value``."""
    return oracle.canonical_bytes(oracle.to_json(value))


def written(write, value):
    """``write(value)``, or the class and message of what it raised."""
    try:
        return write(value)
    except Exception as err:
        return type(err), str(err)


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


def edited(choose, write=json.dumps):
    """A copy of one of ``BASES`` with up to three edits, each choice
    made by ``choose(options)``, written by ``write``."""
    body = copy.deepcopy(choose(BASES))
    for _ in range(choose(range(4))):
        choose(EDITS)(choose, body)
    return write(body)


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


@DIFFERENTIAL
@given(st.data())
def test_the_text_reader_reads_canonical_edits_as_the_eager_one(data):
    """The same edits written canonically, which the text reader reads
    unless it declines."""
    text = edited(lambda options: data.draw(st.sampled_from(options)), formats.canonical_text)
    assert outcome(formats.parse, text) == outcome(
        lambda t: oracle.from_json(json.loads(t)), text)


def _reversed_component_lists(body):
    """``body`` with every gauge component's ``blocks`` and ``target``
    lists reversed: the same values, a spelling the text reader declines
    once the cube has two axes."""
    for component in components_of(body):
        for field in ("blocks", "target"):
            if isinstance(component.get(field), list):
                component[field].reverse()
    return body


def reversed_blocks(body):
    """``json.dumps`` of ``body`` with every component's blocks and target
    reversed: a spelling the text reader declines past one axis, so the
    JSON reader reads it."""
    return json.dumps(_reversed_component_lists(body))


@DIFFERENTIAL
@given(st.data())
def test_the_json_reader_reads_reversed_blocks_as_the_eager_one(data):
    text = edited(lambda options: data.draw(st.sampled_from(options)), reversed_blocks)
    assert outcome(formats.parse, text) == outcome(
        lambda t: oracle.from_json(json.loads(t)), text)


def test_canonical_edits_reach_the_text_reader_and_its_declines():
    rng = seeded(4)
    read = [formats._read_canonical(edited(rng.choice, formats.canonical_text)) is not None
            for _ in range(200)]
    assert 20 < sum(read) < 180


def tree_outcome(monkeypatch, data):
    """What the JSON reader alone makes of ``data``."""
    with monkeypatch.context() as patch:
        patch.setattr(formats, "_read_canonical", lambda data: None)
        return outcome(formats.parse, data)


def _spot(rng, text, needle):
    """The offset of a random occurrence of ``needle`` in ``text``."""
    return rng.choice([m.start() for m in re.finditer(re.escape(needle), text)])


def _replaced(rng, text, needle, options):
    if needle not in text:
        return text
    at = _spot(rng, text, needle)
    return text[:at] + rng.choice(options) + text[at + len(needle):]


def _id_at(rng, text):
    """The offset just inside a random id or point string of an atlas
    text, or inside an entry of a gauge text."""
    needles = ['"base":["', '"id":"', '"from":"', '"to":"', '"point":"']
    found = [needle for needle in needles if needle in text] or ['"entries":["']
    needle = rng.choice(found)
    return _spot(rng, text, needle) + len(needle)


def _escaped(rng, text):
    """An id's first character as a ``\\u`` escape: the same value."""
    at = _id_at(rng, text)
    return text[:at] + "\\u%04x" % ord(text[at]) + text[at + 1:]


def _trailing_comma(rng, text):
    at = _spot(rng, text, rng.choice(["]}", "}]", "]]"]))
    return text[:at] + "," + text[at:]


def _dims_as_tensor(rng, text):
    """The last gauge's target dims replaced by a tensor text read before,
    which must not be taken for the dims read from the same text."""
    tensor = rng.choice(re.findall(r'\{"entries":\[[^]]*\],"in_dims":\[[^]]*\],"out_dim":\d+\}',
                                   text))
    at = text.rindex('"target_dims":') + len('"target_dims":')
    return text[:at] + tensor + text[text.index("}]", at) + 2:]


BYTES = '019",:{}[]/-+ .ex\\\x00\x1f\x7f\u00e9'
TEXT_MUTATIONS = {
    "deleted": lambda rng, t: (lambda at: t[:at] + t[at + 1:])(rng.randrange(len(t))),
    "duplicated": lambda rng, t: (lambda at: t[:at] + t[at] + t[at:])(rng.randrange(len(t))),
    "replaced": lambda rng, t: (lambda at: t[:at] + rng.choice(BYTES) + t[at + 1:])(
        rng.randrange(len(t))),
    "leading-zero": lambda rng, t: _replaced(rng, t, "1", ["01"]),
    "minus-zero": lambda rng, t: _replaced(rng, t, "1", ["-0"]),
    "decimal": lambda rng, t: _replaced(rng, t, "1", ["1.0"]),
    "zero-denominator": lambda rng, t: _replaced(rng, t, '"1"', ['"1/0"']),
    "unreduced": lambda rng, t: _replaced(rng, t, '"1"', ['"2/2"', '"+1"', '"01"', '"-0"']),
    # spellings int() reads and the entry grammar does not
    "int-spelling": lambda rng, t: _replaced(rng, t, '"1"', ['" 1"', '"1 "', '"1_0"', '"\u0661"',
                                                             '"1/ 2"', '"1/+2"']),
    "control-character": lambda rng, t: (lambda at: t[:at] + rng.choice("\x00\x01\n\x1f")
                                         + t[at:])(_id_at(rng, t)),
    "escape": _escaped,
    "bom": lambda rng, t: "\ufeff" + t,
    "trailing-comma": _trailing_comma,
    "trailing-space": lambda rng, t: t + rng.choice(["\n", " \r\n\t", "\x0b"]),
    "dims-as-tensor": _dims_as_tensor,
    "component-unclosed": lambda rng, t: _replaced(rng, t, '}}],"', ['}]],"', '}],"', '}}}],"']),
    "transition-unclosed": lambda rng, t: _replaced(rng, t, '"to":"0"}', [
        '"to":"0"' + rng.choice(["]", " ", "", ",", '"'])]),
}


@pytest.mark.parametrize("mutation", list(TEXT_MUTATIONS), ids=list(TEXT_MUTATIONS))
def test_text_mutations_read_as_the_json_reader_reads_them(monkeypatch, mutation):
    """Mutated canonical atlas and gauge texts: whatever the text reader
    makes of them, read or declined, is what the JSON reader makes."""
    rng = seeded(len(mutation))
    texts = [formats.canonical_text(body) for body in BASES] + [formats.to_text(gen_atlas())]
    for _ in range(12):
        data = TEXT_MUTATIONS[mutation](rng, rng.choice(texts)).encode()
        assert outcome(formats.parse, data) == tree_outcome(monkeypatch, data), data


def test_the_text_reader_reads_equal_spellings_it_accepts():
    """Escapes, unreduced entries and trailing JSON whitespace are read by
    the text reader, with the JSON reader's objects."""
    text = formats.to_text(gen_atlas())
    for variant in (_escaped(seeded(1), text), text.replace('"1"', '"2/2"'), text + " \n"):
        assert formats._read_canonical(variant) is not None
        assert outcome(formats.parse, variant) == outcome(
            lambda t: oracle.from_json(json.loads(t)), variant)


@pytest.mark.parametrize("fragment", ['],"n":', '},', '},"point":', '"1",',
                                      '{"entries":["1"],"in_dims":[],"out_dim":1}},'])
def test_long_adversarial_inputs_are_read_in_linear_time(monkeypatch, fragment):
    """No scan of the text reader backtracks over a list or restarts from
    each fragment: a megabyte of fragments is declined at once."""
    atlas = formats.to_text(gen_atlas())
    transitions = atlas.index('"transitions":[') + len('"transitions":[')
    gauge = formats.canonical_text(BASES[-1])
    entries = gauge.index('"entries":[') + len('"entries":[')
    count = 10 ** 6 // len(fragment)
    for head in (atlas[:transitions], gauge[:entries], formats._GAUGE_START):
        data = (head + fragment * count + "]}").encode()
        started = time.process_time()
        got = outcome(formats.parse, data)
        assert time.process_time() - started < 2.0, (head[:40], fragment)
        assert got == tree_outcome(monkeypatch, data)


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
    # indented, so that its JSON tree is written canonically and read as text
    body = formats.atlas_to_json(gen_atlas())
    texts = {formats.canonical_text(t) for t in tensors_of(body)}
    calls = []
    decode = formats._text_tensor
    monkeypatch.setattr(formats, "_text_tensor", lambda text: calls.append(text) or decode(text))
    formats.parse(json.dumps(body, indent=1).encode())
    assert sorted(calls) == sorted(texts) and len(texts) < len(tensors_of(body))


def test_each_distinct_tensor_text_is_decoded_once(monkeypatch):
    body = formats.atlas_to_json(gen_atlas())
    texts = {formats.canonical_text(t) for t in tensors_of(body)}
    calls = []
    decode = formats._text_tensor
    monkeypatch.setattr(formats, "_text_tensor", lambda text: calls.append(text) or decode(text))
    formats.parse(formats.canonical_bytes(body))
    assert sorted(calls) == sorted(texts) and len(texts) < len(tensors_of(body))


def test_a_bound_morphism_reads_as_the_eager_one():
    atlas = twisted_instance(21, n=2, n_points=2, n_charts=2)
    dec = decompose(atlas)
    body = json.loads(formats.dumps(dec))
    bound = formats.morphism_from_json(body, dec.source, dec.target)
    assert bound == oracle.morphism_from_json(body, dec.source, dec.target) == dec


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
    assert formats.dumps(value) == formats.dumps(parsed) == eager_bytes(value)


def test_the_writer_of_a_morphism_writes_as_the_eager_one():
    dec = decompose(twisted_instance(26, n=2, n_points=2, n_charts=2))
    assert formats.to_json(dec) == oracle.to_json(dec)


def workload_files(tmp_path, name):
    """The bytes of each input file of a workload's seed-0 pass: written
    by its set-up, by its ``gen`` operations and by the preparation of
    others."""
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
                found[file_name] = handle.read()
        return found
    finally:
        os.chdir(cwd)


def workload_inputs(tmp_path, name):
    """The parsed input files of a workload's seed-0 pass."""
    found = {}
    for file_name, data in workload_files(tmp_path, name).items():
        try:
            found[file_name] = formats.parse(data)
        except SchemaError:
            assert file_name.startswith("malformed-")
    return found


def canonical_files(tmp_path):
    """Every atlas and gauge file a test or bench run reads: the acceptance
    and format fixtures, the well-formed atlas and gauge inputs of the
    corpus and ingest workloads, a ``gen`` atlas and a gauge."""
    from test_acceptance import corpus
    from test_formats import fixture_corpus
    files = {name: formats.dumps(value) for name, value in corpus()}
    files.update(("fixture-%d" % k, formats.dumps(value))
                 for k, value in enumerate(fixture_corpus()))
    for workload in ("corpus", "ingest"):
        files.update((workload + "/" + name, data)
                     for name, data in workload_files(tmp_path, workload).items()
                     if not name.startswith("malformed-")
                     and json.loads(data)["kind"] in ("atlas", "gauge"))
    files["gen"] = formats.dumps(gen_atlas()) + b"\n"
    files["gauge"] = formats.dumps(random_gauge(seeded(5), random_dims(seeded(6), 3, max_dim=2)))
    return files


def test_every_canonical_file_is_read_by_its_text(tmp_path, monkeypatch):
    """No canonical input, and no indented copy of one, reaches the JSON
    reader's component checks or tensor decoder; a copy with reversed
    blocks and targets reaches both (past one axis, where there is
    something to reverse).  All three read to the same text."""
    calls = []
    for name in ("_component_position", "tensor_from_json"):
        read = getattr(formats, name)
        monkeypatch.setattr(formats, name, lambda *args, name=name, read=read:
                            calls.append(name) or read(*args))
    files = canonical_files(tmp_path)
    assert len(files) > 30 and any(b'"kind":"gauge"' in data for data in files.values())
    assert sum(json.loads(data)["n"] > 1 for data in files.values()) > 30
    for name, data in files.items():
        by_text = formats.parse(data)
        indented = formats.parse(json.dumps(json.loads(data), indent=1))
        assert calls == [], name
        by_tree = formats.parse(json.dumps(_reversed_component_lists(json.loads(data))))
        assert set(calls) == ({"_component_position", "tensor_from_json"}
                              if json.loads(data)["n"] > 1 else set()), name
        del calls[:]
        assert formats.to_text(by_text) == formats.to_text(indented) \
            == formats.to_text(by_tree) == data.decode().strip()


@pytest.mark.parametrize("name", ["corpus", "ingest"])
def test_the_fingerprint_is_the_hash_of_the_eager_serialization(tmp_path, name):
    inputs = workload_inputs(tmp_path, name)
    assert len(inputs) >= 10
    for file_name, value in inputs.items():
        assert formats.dumps(value) == eager_bytes(value), file_name
        expected = hashlib.sha256(eager_bytes(value)).hexdigest()
        assert formats.fingerprint(value) == expected, file_name


@SMALL
@given(small_instances())
def test_the_writer_writes_small_instances_as_the_eager_one(presentation):
    parsed = formats.parse(formats.dumps(presentation))
    for value in (presentation, parsed, decompose(parsed),
                  random_element(seeded(len(parsed.transitions)), parsed)):
        assert formats.dumps(value) == eager_bytes(value)


@pytest.mark.parametrize("seed", range(4))
def test_the_writer_writes_rational_gauges_with_empty_slots_as_the_eager_one(seed):
    rng = seeded(seed)
    dims = DimAssignment(3, {s: 0 if s in ((1, 2), (3,)) else rng.randint(1, 2)
                             for s in nonempty_subsets(full_set(3))})
    gauge = random_gauge(rng, dims)
    values = (gauge, gauge.invert(), gauge.compose(random_gauge(rng, dims)).invert())
    for value in values:
        assert formats.dumps(value) == eager_bytes(value)
    texts = [formats.to_text(value) for value in values]
    assert all('"dim":0' in text for text in texts) and any("/" in text for text in texts)


def test_the_writer_writes_every_kind_as_the_eager_one():
    a = twisted_instance(27, n=3, n_points=2, n_charts=3)
    values = [
        decompose(a), find_splitting(a, "uniform-average"), random_element(seeded(28), a),
        InfinityPresentation(StabilizingGenerator(a)),
        InfinityPresentation(RuleGenerator(
            ["p", "q"], [("0", ("p",)), ("1", ("p", "q"))],
            {"kind": "threshold", "dim": 1, "max_card": 2},
            {"kind": "conjugate", "seed": 3})),
    ]
    for value in values:
        assert formats.dumps(value) == eager_bytes(value), type(value)


def test_the_ultracore_result_is_its_two_morphisms_as_the_eager_writer_writes_them(tmp_path):
    a = twisted_instance(29, n=3, n_points=2, n_charts=2)
    path, out = tmp_path / "a.json", tmp_path / "u.json"
    path.write_bytes(formats.dumps(a))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["ultracore", str(path), "--k", "1", "-o", str(out)]) == 0
    iota, pi, _ = ultracore_sequence(formats.parse(path.read_bytes()), 1)
    expected = {"inclusion": oracle.to_json(iota), "projection": oracle.to_json(pi)}
    assert out.read_bytes() == oracle.canonical_bytes(expected) + b"\n"


def _with_long_entry(gauge):
    """``gauge`` with a part of MAX_DIGITS + 1 digits in its top one-block
    component."""
    tensors = list(gauge.tensors)
    top_set = full_set(gauge.n)
    at = cube_plan(gauge.n).index[(top_set, Partition([top_set]))]
    top = tensors[at]
    long = MultiTensor(top.out_dim, top.in_dims,
                       [Fraction(1, 10 ** formats.MAX_DIGITS)] + [0] * (len(top.entries) - 1))
    tensors[at] = top.plus(long)
    return Gauge.from_tensors(gauge.source_dims, gauge.target_dims, tensors)


def test_the_writer_fails_on_long_parts_as_the_eager_one():
    a = twisted_instance(304, n=2, n_points=2, n_charts=2)
    key, gauge = sorted(a.transitions.items())[1]
    transitions = dict(a.transitions)
    transitions[key] = _with_long_entry(gauge)
    atlas = AtlasPresentation(a.n, a.dims, a.base, a.charts, transitions)
    dec = decompose(a)
    location = sorted(dec.data)[-1]
    data = dict(dec.data)
    data[location] = _with_long_entry(data[location])
    elem = random_element(seeded(1), a)
    elem.components[(1,)] = (Fraction(10 ** formats.MAX_DIGITS),) + elem.components[(1,)][1:]
    values = [atlas, _with_long_entry(gauge), BundleMorphism(dec.source, dec.target, data),
              elem, InfinityPresentation(StabilizingGenerator(atlas))]
    for value in values:
        got = written(formats.dumps, value)
        assert got == written(eager_bytes, value), type(value)
        assert got[0] is InvalidInput and "more than 4300 digits" in got[1]


def test_gen_writes_each_distinct_tensor_text_once(tmp_path, monkeypatch):
    calls = []
    write = formats._tensor_text
    monkeypatch.setattr(formats, "_tensor_text",
                        lambda tensor: calls.append(tensor) or write(tensor))
    out = tmp_path / "gen.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["gen", "--seed", "602", "--n", "4", "--points", "4", "--charts", "3",
                        "--max-dim", "1", "-o", str(out)]) == 0
    assert len(calls) == len(set(calls)) == 114
    assert len(tensors_of(json.loads(out.read_bytes()))) > 9 * 114


def _rewrite_entries(body, rewrite):
    for tensor in tensors_of(body):
        tensor["entries"] = [rewrite(Fraction(x)) for x in tensor["entries"]]
    return body


def _unreduced(body):
    return _rewrite_entries(body, lambda x: "%d/%d" % (2 * x.numerator, 2 * x.denominator))


def _plus_signs(body):
    return _rewrite_entries(body, lambda x: ("+" if x >= 0 else "") + str(x))


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in sorted(value, reverse=True)}
    return [_reversed_keys(v) for v in value] if isinstance(value, list) else value


def _shuffled(body):
    """Keys in reverse order, and transitions, dims and components (whose
    order carries nothing) reversed."""
    body["transitions"].reverse()
    body["dims"].reverse()
    for gauge in gauges_of(body):
        for field in ("components", "source_dims", "target_dims"):
            gauge[field].reverse()
    return _reversed_keys(body)


def _explicit_zeros(body):
    """Every absent multi-block component written as an all-zero tensor."""
    dims = {tuple(d["set"]): d["dim"] for d in body["dims"]}
    for gauge in gauges_of(body):
        present = {(tuple(c["target"]), tuple(map(tuple, c["blocks"])))
                   for c in gauge["components"]}
        for subset, rho in cube_plan(body["n"]).keys:
            if len(rho) > 1 and (tuple(subset), tuple(map(tuple, rho))) not in present:
                tensor = MultiTensor.zeros(dims[subset], [dims[b] for b in rho])
                gauge["components"].append({"target": list(subset),
                                            "blocks": [list(b) for b in rho],
                                            "tensor": formats.tensor_to_json(tensor)})
    return body


def validate_fingerprint(capsys, path):
    cli.run(["validate", str(path)])
    return json.loads(capsys.readouterr().out)["fingerprint"]


def test_inputs_that_write_the_same_values_differently_share_one_fingerprint(
        tmp_path, capsys):
    atlas = twisted_instance(31, n=3, n_points=2, n_charts=3)
    canonical = formats.dumps(atlas)
    assert b"/" in canonical
    path = tmp_path / "canonical.json"
    path.write_bytes(canonical)
    expected = validate_fingerprint(capsys, path)
    assert expected == hashlib.sha256(canonical).hexdigest()
    for edit in (_unreduced, _plus_signs, _shuffled, _explicit_zeros):
        body = edit(json.loads(canonical))
        assert formats.canonical_bytes(body) != canonical, edit.__name__
        for text in (json.dumps(body), json.dumps(body, indent=2) + "\n"):
            variant = tmp_path / "variant.json"
            variant.write_text(text)
            assert validate_fingerprint(capsys, variant) == expected, edit.__name__


def test_ids_and_points_with_escapes_are_written_as_the_eager_writer_writes_them(
        tmp_path, capsys):
    atlas = twisted_instance(32, n=2, n_points=2, n_charts=2)
    names = {}
    for k, chart in enumerate(atlas.charts):
        names[chart.id] = ['été "q"', "back\\slash", "☃/\t"][k]
    for k, point in enumerate(atlas.base.points):
        names[point] = ['p"0"\\', "üß\U0001d11e"][k]
    body = json.loads(formats.dumps(atlas))
    body["base"] = [names[p] for p in body["base"]]
    for chart in body["charts"]:
        chart["id"], chart["domain"] = names[chart["id"]], [names[p] for p in chart["domain"]]
    for transition in body["transitions"]:
        for field in ("from", "to", "point"):
            transition[field] = names[transition[field]]
    escaped, raw = tmp_path / "escaped.json", tmp_path / "raw.json"
    escaped.write_text(json.dumps(body))
    raw.write_bytes(json.dumps(body, ensure_ascii=False).encode("utf-8"))
    parsed = formats.parse(raw.read_bytes())
    assert {c.id for c in parsed.charts} == {names[c.id] for c in atlas.charts}
    for value in (parsed, decompose(parsed)):
        assert formats.dumps(value) == eager_bytes(value)
    assert validate_fingerprint(capsys, raw) == validate_fingerprint(capsys, escaped) \
        == hashlib.sha256(eager_bytes(parsed)).hexdigest()


# The text reader also tells whether the text it read is byte for byte what
# ``to_text`` writes for the value; a fingerprint then hashes the bytes read,
# and the value is written only when they are not that text.

def exact_text(text):
    """``_read_canonical``'s verdict on ``text``, checked against the
    writer: None when it declines, else the length of the text it found
    exact, or None."""
    found = formats._read_canonical(text)
    if found is None:
        return None
    value, exact = found
    written = formats.to_text(value)
    assert (exact is not None) == (written == text.rstrip(" \t\n\r")), text[:200]
    assert exact is None or text[:exact] == written
    return exact


def fingerprinted(monkeypatch, data):
    """``parse(data, fingerprinted=True)`` and whether it wrote the value."""
    written = []
    write = formats.fingerprint
    monkeypatch.setattr(formats, "fingerprint", lambda value: written.append(value) or write(value))
    value, digest = formats.parse(data, fingerprinted=True)
    monkeypatch.setattr(formats, "fingerprint", write)
    assert digest == formats.fingerprint(value)
    return value, digest, bool(written)


@pytest.fixture(scope="module")
def writer_texts(tmp_path_factory):
    """The text of every atlas and gauge file a test or bench run reads."""
    return [data.decode() for data in canonical_files(tmp_path_factory.mktemp("files")).values()]


def test_every_canonical_file_is_fingerprinted_by_its_own_bytes(writer_texts, monkeypatch):
    """The canonical files, with a trailing newline or not, given as bytes or
    as text, and their indented copies: none is written to be fingerprinted."""
    for text in writer_texts:
        assert exact_text(text) == len(text.rstrip())
        digest = hashlib.sha256(text.rstrip().encode()).hexdigest()
        for data in (text, text.encode(), text.rstrip() + "\n",
                     json.dumps(json.loads(text), indent=1)):
            value, got, written = fingerprinted(monkeypatch, data)
            assert (got, written) == (digest, False)


@DIFFERENTIAL
@given(st.data())
def test_the_exact_flag_holds_just_when_the_writer_writes_the_text(writer_texts, data):
    """Mutated canonical texts: whenever the text reader reads one, it
    calls it exact just when ``to_text`` of what it read is that text."""
    text = data.draw(st.sampled_from(writer_texts))
    mutation = data.draw(st.sampled_from(sorted(TEXT_MUTATIONS)))
    exact_text(TEXT_MUTATIONS[mutation](seeded(data.draw(st.integers(0, 999))), text))


@DIFFERENTIAL
@given(st.data())
def test_the_exact_flag_holds_just_when_the_writer_writes_edited_texts(data):
    exact_text(edited(lambda options: data.draw(st.sampled_from(options)),
                      formats.canonical_text))


def _plan_ordered(body):
    """``body`` with every gauge's components in plan order."""
    plan = cube_plan(body["n"])
    for gauge in gauges_of(body):
        gauge["components"].sort(key=lambda c: plan.index[
            (tuple(c["target"]), Partition(c["blocks"]))])
    return body


def _entry_spelled(old, new):
    """An edit of a canonical text: the first tensor entry ``old`` spelled ``new``."""
    def edit(text):
        entry = re.search(r'(?<="entries":\[)(?:"[^"]*",)*"%s"(?=[],])' % re.escape(old), text)
        return text[:entry.end() - len(old) - 1] + new + text[entry.end() - 1:]
    return edit


def _edit(edit):
    """An edit of a canonical text made on its JSON tree."""
    return lambda text: formats.canonical_text(edit(json.loads(text)))


def _integer_from(body):
    """The first transition's ``from``, a chart id of digits, as that JSON integer."""
    body["transitions"][0]["from"] = int(body["transitions"][0]["from"])
    return body


def _raw_point(text):
    """Every transition's point ``é`` written raw, not escaped as in the base
    and charts and as the writer writes it."""
    at = text.index('"transitions":[')
    return text[:at] + text[at:].replace('"point":"\\u00e9"', '"point":"é"')


def _reversed_transitions(body):
    body["transitions"].reverse()
    return body


def _reversed_in_gauges(field):
    """An edit of a JSON tree: ``field`` of every gauge reversed."""
    def edit(body):
        for gauge in gauges_of(body):
            gauge[field].reverse()
        return body
    return edit


NOT_EXACT = {
    "2/4": _entry_spelled("1/2", "2/4"),
    "+1": _entry_spelled("1", "+1"),
    "01": _entry_spelled("1", "01"),
    "1/1": _entry_spelled("1", "1/1"),
    "0/5": _entry_spelled("0", "0/5"),
    "zero-component": _edit(lambda body: _plan_ordered(_explicit_zeros(body))),
    "transitions-reordered": _edit(_reversed_transitions),
    "dims-reordered": _edit(_reversed_in_gauges("source_dims")),
    "components-reordered": _edit(_reversed_in_gauges("components")),
    "integer-chart-id": _edit(_integer_from),
    "raw-point": _raw_point,
}


def _fraction_atlas():
    """A canonical atlas text holding ``"1/2"``, ``"1"`` and ``"0"`` entries
    and an absent multi-block component, its point ``p0`` renamed ``é``."""
    for seed in range(100):
        text = formats.to_text(twisted_instance(seed, n=3, n_points=2, n_charts=2))
        if all(entry in text for entry in ('"1/2"', '"1"', '"0"')):
            return formats.to_text(formats.parse(text.replace('"p0"', '"\\u00e9"')))
    raise AssertionError("no seed gives a 1/2 entry")


@pytest.mark.parametrize("name", list(NOT_EXACT))
def test_spellings_the_text_reader_reads_are_not_exact(tmp_path, capsys, monkeypatch, name):
    """Each spelling is read by the text reader, is not the writer's text,
    and gets the writer's text's fingerprint all the same."""
    canonical = _fraction_atlas()
    text = NOT_EXACT[name](canonical)
    assert text != canonical
    assert formats._read_canonical(text) is not None and exact_text(text) is None
    value, digest, written = fingerprinted(monkeypatch, text.encode())
    assert written and formats.to_text(value) == canonical
    path = tmp_path / "atlas.json"
    path.write_bytes(text.encode())
    assert validate_fingerprint(capsys, path) == digest \
        == hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("spelling", ["canonical", "newline", "indented", "edited"])
def test_the_reported_fingerprint_is_the_writers_text_hashed(tmp_path, capsys, spelling):
    atlas = twisted_instance(33, n=3, n_points=2, n_charts=3)
    text = formats.to_text(atlas)
    text = {"canonical": text, "newline": text + "\n",
            "indented": json.dumps(json.loads(text), indent=2),
            "edited": formats.canonical_text(_shuffled(json.loads(text)))}[spelling]
    path = tmp_path / "atlas.json"
    path.write_text(text)
    value = formats.parse(text)
    for command in (["validate"], ["decompose"], ["hom", str(path)]):
        assert cli.run(command[:1] + [str(path)] + command[1:]) in (0, 1)
        got = json.loads(capsys.readouterr().out)["fingerprint"]
        assert got == formats.fingerprint(value) == hashlib.sha256(
            formats.dumps(atlas)).hexdigest(), command


@pytest.mark.parametrize("command", ["validate", "decompose"])
def test_a_canonical_atlas_is_fingerprinted_with_nothing_written(tmp_path, monkeypatch, command):
    path = tmp_path / "atlas.json"
    path.write_bytes(formats.dumps(gen_atlas()) + b"\n")
    calls = []
    write = formats._atlas_text
    monkeypatch.setattr(formats, "_atlas_text", lambda a: calls.append(a) or write(a))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run([command, str(path)]) == 0
    assert calls == []
    assert json.loads(out.getvalue())["fingerprint"] == hashlib.sha256(
        formats.dumps(gen_atlas())).hexdigest()


def test_a_declined_canonical_input_is_read_by_text_once(tmp_path, monkeypatch):
    """Ingest's malformed atlases, written canonically as the workload
    writes them, reach the text reader once each: their JSON tree written
    canonically is the same text, so it is not read again."""
    files = {name: data for name, data in workload_files(tmp_path, "ingest").items()
             if name.startswith("malformed-")}
    assert len(files) == 3
    calls = []
    read = formats._read_canonical
    monkeypatch.setattr(formats, "_read_canonical", lambda text: calls.append(text) or read(text))
    for name, data in files.items():
        with pytest.raises(SchemaError):
            formats.parse(data)
        assert calls == [data.decode()], name
        del calls[:]
