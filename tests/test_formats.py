import json
import math
import sys
from fractions import Fraction

import pytest
from helpers import random_morphism_gauge, seeded
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvb import formats
from mvb.atlas import AtlasPresentation, decomposed, FiniteBase, validate
from mvb.cli import run
from mvb.cubecat import full_set, nonempty_subsets
from mvb.errors import InvalidInput, ParseError, SchemaError
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment, Gauge, identity_gauge
from mvb.rand import (
    random_dims,
    random_element,
    random_gauge,
    twisted_instance,
)
from mvb.split import decompose
from mvb.tower import InfinityPresentation, RuleGenerator, StabilizingGenerator


def fixture_corpus():
    out = [
        decomposed(DimAssignment(2, {s: 1 for s in nonempty_subsets(full_set(2))}),
                   FiniteBase(["p"])),
        twisted_instance(301, n=1, n_points=2, n_charts=2),
        twisted_instance(302, n=2, n_points=2, n_charts=2),
        twisted_instance(303, n=3, n_points=2, n_charts=3),
    ]
    return out


def test_atlas_round_trip_bit_exact():
    for instance in fixture_corpus():
        blob = formats.dumps(instance)
        parsed = formats.parse(blob)
        assert formats.dumps(parsed) == blob
        assert parsed.dims == instance.dims
        assert parsed.transitions == instance.transitions
        assert validate(parsed).valid


def test_element_round_trip():
    rng = seeded(1)
    a = twisted_instance(304, n=2, n_points=2, n_charts=2)
    e = random_element(rng, a)
    blob = formats.dumps(e)
    back = formats.parse(blob)
    assert back == e
    assert formats.dumps(back) == blob


def test_gauge_round_trip():
    a = twisted_instance(305, n=2, n_points=1, n_charts=2)
    g = next(iter(a.transitions.values()))
    body = formats.to_json(g)
    blob = formats.canonical_bytes(body)
    back = formats.parse(blob)
    assert back == g


def test_morphism_round_trip_with_binding():
    a = twisted_instance(306, n=2, n_points=2, n_charts=2)
    dec = decompose(a)
    blob = formats.dumps(dec)
    parsed = json.loads(blob.decode("utf-8"))
    bound = formats.morphism_from_json(parsed, dec.source, dec.target)
    assert bound.data == dec.data


def test_generator_round_trips():
    stab = InfinityPresentation(
        StabilizingGenerator(twisted_instance(307, n=2, n_points=2, n_charts=2)))
    rule = InfinityPresentation(RuleGenerator(
        ["p"], [("0", ("p",))],
        {"kind": "threshold", "dim": 1, "max_card": 2},
        {"kind": "conjugate", "seed": 3}))
    for gen in (stab, rule):
        blob = formats.dumps(gen)
        back = formats.parse(blob)
        assert formats.dumps(back) == blob
        assert back.truncate(2).dims == gen.truncate(2).dims
        assert back.truncate(2).transitions == gen.truncate(2).transitions


def test_truncated_file_reports_byte_offset():
    blob = formats.dumps(fixture_corpus()[0])
    with pytest.raises(ParseError) as err:
        formats.parse(blob[:max(1, len(blob) // 2)])
    assert err.value.position is not None


def test_wrong_tensor_length_names_component():
    instance = fixture_corpus()[0]
    body = formats.atlas_to_json(instance)
    bad = json.loads(json.dumps(body))
    target = bad["transitions"][0]["gauge"]["components"][0]
    target["tensor"]["entries"].append("1")
    with pytest.raises(SchemaError) as err:
        formats.parse(formats.canonical_bytes(bad))
    message = str(err.value)
    assert "entries" in message
    assert str(target["target"]) in message or "at (" in message


def test_missing_trivial_component_rejected():
    instance = fixture_corpus()[0]
    body = formats.atlas_to_json(instance)
    bad = json.loads(json.dumps(body))
    bad["transitions"][0]["gauge"]["components"] = []
    with pytest.raises(SchemaError) as err:
        formats.parse(formats.canonical_bytes(bad))
    assert "one-block" in str(err.value)


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        formats.parse(b'{"kind": "mystery"}')


def test_not_utf8_is_parse_error():
    with pytest.raises(ParseError):
        formats.parse(b"\xff\xfe{}")


def test_fingerprint_stable_and_sensitive():
    instance = fixture_corpus()[2]
    f1 = formats.fingerprint(instance)
    f2 = formats.fingerprint(formats.parse(json.dumps(formats.to_json(instance), indent=1)))
    assert f1 == f2
    assert formats.fingerprint(fixture_corpus()[3]) != f1


def test_zero_dimensional_slots_round_trip():
    from mvb.gauge import DimAssignment
    from mvb.cubecat import IndexSet
    dims = DimAssignment(2, {IndexSet([1]): 1, IndexSet([2]): 0,
                             IndexSet([1, 2]): 2})
    instance = twisted_instance(308, n=2, n_points=2, n_charts=2, dims=dims)
    blob = formats.dumps(instance)
    parsed = formats.parse(blob)
    assert formats.dumps(parsed) == blob
    assert parsed.dims.dim(IndexSet([2])) == 0
    assert validate(parsed).valid


def test_zero_components_omitted_in_serialized_form():
    instance = fixture_corpus()[0]  # identity transitions
    body = formats.atlas_to_json(instance)
    for item in body["transitions"]:
        for comp in item["gauge"]["components"]:
            assert len(comp["blocks"]) == 1


def _edited_atlas(edit):
    body = json.loads(json.dumps(formats.atlas_to_json(fixture_corpus()[2])))
    edit(body)
    return formats.canonical_bytes(body)


def _append_component(target, blocks, out_dim, in_dims):
    def edit(body):
        tensor = MultiTensor(out_dim, in_dims, [1] * (out_dim * math.prod(in_dims)))
        body["transitions"][0]["gauge"]["components"].append({
            "target": target, "blocks": blocks,
            "tensor": formats.tensor_to_json(tensor)})
    return edit


def test_non_integer_n_is_schema_error():
    def edit(body):
        body["n"] = "x"
    with pytest.raises(SchemaError) as err:
        formats.parse(_edited_atlas(edit))
    assert "'x'" in str(err.value)

    def edit_gauge(body):
        body["transitions"][0]["gauge"]["n"] = "x"
    with pytest.raises(SchemaError) as err:
        formats.parse(_edited_atlas(edit_gauge))
    assert "'x'" in str(err.value) and "transition" in str(err.value)


def _coerced_forms(value):
    """A float, a string and a boolean that ``int`` reads back as ``value``
    (the boolean only for 1)."""
    forms = [value + 0.5, str(value)]
    return forms + [True] if value == 1 else forms


@pytest.mark.parametrize("where", ["atlas", "gauge"])
def test_cube_dimension_must_be_a_json_integer(where):
    n = fixture_corpus()[2].n
    for bad in _coerced_forms(n) + [True]:
        def edit(body):
            target = body if where == "atlas" else body["transitions"][0]["gauge"]
            target["n"] = bad
        with pytest.raises(SchemaError) as err:
            formats.parse(_edited_atlas(edit))
        assert "n must be an integer, got %r" % (bad,) in str(err.value)


@pytest.mark.parametrize("where", ["atlas", "gauge"])
def test_negative_cube_dimension_is_schema_error(where):
    def build(n):
        if where == "atlas":
            return twisted_instance(1, n=n)
        return identity_gauge(DimAssignment(n, {}))
    with pytest.raises(SchemaError) as err:
        formats.parse(formats.dumps(build(-1)))
    assert "%s: n must be at least 0, got -1" % where in str(err.value)
    assert formats.parse(formats.dumps(build(0))).n == 0


@pytest.mark.parametrize("field", ["dims", "source_dims", "target_dims"])
def test_slot_dimension_must_be_a_json_integer(field):
    body = formats.atlas_to_json(fixture_corpus()[2])
    for at, entry in enumerate(body["dims"]):
        for bad in _coerced_forms(entry["dim"]):
            def edit(body):
                owner = body if field == "dims" else body["transitions"][0]["gauge"]
                owner[field][at]["dim"] = bad
            with pytest.raises(SchemaError) as err:
                formats.parse(_edited_atlas(edit))
            assert "%s entry: dim must be an integer, got %r" % (field, bad) \
                in str(err.value)


def test_component_target_outside_cube_is_schema_error():
    with pytest.raises(SchemaError) as err:
        formats.parse(_edited_atlas(_append_component([3], [[3]], 1, (1,))))
    assert "[3]" in str(err.value) and "cube" in str(err.value)


def test_blocks_not_partitioning_target_is_schema_error():
    instance = fixture_corpus()[2]
    out_dim = instance.dims.dim([1, 2])
    in_dim = instance.dims.dim([1])
    with pytest.raises(SchemaError) as err:
        formats.parse(_edited_atlas(
            _append_component([1, 2], [[1]], out_dim, (in_dim,))))
    assert "([1, 2], [[1]])" in str(err.value) and "partition" in str(err.value)


ROUND_TRIP = settings(max_examples=25, derandomize=True, database=None, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])


def atlas_fields(a):
    return (a.n, a.dims, a.base, a.charts, a.transitions)


@ROUND_TRIP
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3), max_dim=st.integers(1, 2),
       n_points=st.integers(1, 3), n_charts=st.integers(1, 3))
def test_parse_dumps_round_trip_random_atlases(seed, n, max_dim, n_points, n_charts):
    instance = twisted_instance(seed, n=n, max_dim=max_dim, n_points=n_points,
                                n_charts=n_charts)
    parsed = formats.parse(formats.dumps(instance))
    assert atlas_fields(parsed) == atlas_fields(instance)


@ROUND_TRIP
@given(seed=st.integers(0, 2 ** 16), n=st.integers(0, 3), max_dim=st.integers(0, 2),
       kind=st.sampled_from(["invertible", "statomorphism", "rectangular"]))
def test_parse_dumps_round_trip_random_gauges(seed, n, max_dim, kind):
    rng = seeded(seed)
    source = random_dims(rng, n, max_dim=max_dim)
    if kind == "rectangular":
        gauge = random_morphism_gauge(rng, source, random_dims(rng, n, max_dim=max_dim))
    else:
        gauge = random_gauge(rng, source, statomorphism=kind == "statomorphism")
    assert formats.parse(formats.dumps(gauge)) == gauge


def _element_body():
    a = twisted_instance(304, n=2, n_points=2, n_charts=2)
    return json.loads(formats.dumps(random_element(seeded(1), a)))


def _morphism_body():
    dec = decompose(twisted_instance(306, n=2, n_points=2, n_charts=2))
    return json.loads(formats.dumps(dec)), dec


def test_element_duplicate_component_is_schema_error():
    body = _element_body()
    first = body["components"][0]
    body["components"].append({"set": first["set"], "vector": first["vector"]})
    with pytest.raises(SchemaError) as err:
        formats.parse(json.dumps(body))
    assert "duplicate" in str(err.value) and str(first["set"]) in str(err.value)


@pytest.mark.parametrize("field", ["chart", "point"])
def test_element_non_string_label_is_schema_error(field):
    body = _element_body()
    body[field] = [body[field]]
    with pytest.raises(SchemaError) as err:
        formats.parse(json.dumps(body))
    assert field in str(err.value)


@pytest.mark.parametrize("data", [5, "data", {"chart": "0"}])
def test_morphism_non_list_data_is_schema_error(data):
    body, dec = _morphism_body()
    body["data"] = data
    with pytest.raises(SchemaError) as err:
        formats.morphism_from_json(body, dec.source, dec.target)
    assert "data" in str(err.value)


def test_morphism_non_string_chart_is_schema_error():
    body, dec = _morphism_body()
    body["data"][0]["chart"] = [body["data"][0]["chart"]]
    with pytest.raises(SchemaError) as err:
        formats.morphism_from_json(body, dec.source, dec.target)
    assert "chart" in str(err.value)


def test_morphism_duplicate_entry_is_schema_error():
    body, dec = _morphism_body()
    entry = body["data"][0]
    body["data"].append(dict(entry))
    with pytest.raises(SchemaError) as err:
        formats.morphism_from_json(body, dec.source, dec.target)
    message = str(err.value)
    assert "duplicate" in message
    assert entry["chart"] in message and entry["point"] in message


# A list field given as a string would iterate as its characters.  On the
# n=2 atlas with every dimension 1 over the one point "p", each of the
# strings below reads as the list it spells, so only a type check on the
# field itself rejects it.

def _unit_atlas_body():
    return json.loads(formats.dumps(fixture_corpus()[0]))


def _unit_element_body():
    return {"format_version": formats.FORMAT_VERSION, "kind": "element",
            "node": [1], "chart": "0", "point": "p",
            "components": [{"set": [1], "vector": ["1"]}]}


def test_unit_bodies_parse():
    assert validate(formats.parse(json.dumps(_unit_atlas_body()))).valid
    assert formats.parse(json.dumps(_unit_element_body())).components == {(1,): (1,)}


# Every top-level object carries format_version 1; any other value, or
# none, is an input error for every kind, not for atlases alone.

def _with_version(body, version):
    """``body`` with its format_version set to ``version``; dropped for None."""
    body = dict(body)
    body.pop("format_version")
    if version is not None:
        body["format_version"] = version
    return body


def _unit_gauge_file_body():
    return json.loads(formats.dumps(identity_gauge(fixture_corpus()[0].dims)))


def _unit_generator_body():
    return json.loads(formats.dumps(
        InfinityPresentation(StabilizingGenerator(fixture_corpus()[0]))))


@pytest.mark.parametrize("version", [2, None, "1"])
@pytest.mark.parametrize("body", [_unit_element_body, _unit_generator_body,
                                  _unit_gauge_file_body],
                         ids=["element", "generator", "gauge"])
def test_every_kind_needs_format_version_1(body, version):
    with pytest.raises(SchemaError) as err:
        formats.parse(json.dumps(_with_version(body(), version)))
    assert "format_version" in str(err.value)


@pytest.mark.parametrize("version", [2, None])
@pytest.mark.parametrize("argv, body", [
    (["stato", "check"], _unit_gauge_file_body),
    (["inf", "truncate", "--n", "2"], _unit_generator_body),
], ids=["stato-check", "inf-truncate"])
def test_cli_rejects_a_file_of_another_format_version(tmp_path, capsys, argv, body, version):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_with_version(body(), version)))
    assert run(argv[:2] + [str(path)] + argv[2:]) == 2
    assert "format_version" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [["in_dims"], ["entries"], ["in_dims", "entries"]])
def test_tensor_string_list_field_is_schema_error(fields):
    tensor = {"out_dim": 1, "in_dims": [1], "entries": ["1"]}
    for field in fields:
        tensor[field] = "1"
    with pytest.raises(SchemaError) as err:
        formats.tensor_from_json(tensor)
    assert fields[0] in str(err.value)

    body = _unit_atlas_body()
    body["transitions"][0]["gauge"]["components"][0]["tensor"] = tensor
    with pytest.raises(SchemaError) as err:
        formats.parse(json.dumps(body))
    assert fields[0] in str(err.value) and "transition" in str(err.value)


ATLAS_STRING_EDITS = {
    "base": lambda body: body.update(base="p"),
    "domain": lambda body: body["charts"][0].update(domain="p"),
    "set": lambda body: body["dims"][0].update(set="1"),
    "target": lambda body: body["transitions"][0]["gauge"]["components"][0].update(
        target="1"),
    "blocks": lambda body: body["transitions"][0]["gauge"]["components"][0].update(
        blocks=["1"]),
}


@pytest.mark.parametrize("field", sorted(ATLAS_STRING_EDITS))
def test_atlas_string_list_field_is_schema_error(field):
    body = _unit_atlas_body()
    ATLAS_STRING_EDITS[field](body)
    with pytest.raises(SchemaError) as err:
        formats.parse(json.dumps(body))
    assert field in str(err.value)


ELEMENT_STRING_EDITS = {
    "vector": lambda body: body["components"][0].update(vector="1"),
    "set": lambda body: body["components"][0].update(set="1"),
    "node": lambda body: body.update(node="1"),
    "components": lambda body: body.update(components="1"),
}


@pytest.mark.parametrize("field", sorted(ELEMENT_STRING_EDITS))
def test_element_string_list_field_is_schema_error(field):
    body = _unit_element_body()
    ELEMENT_STRING_EDITS[field](body)
    with pytest.raises(SchemaError) as err:
        formats.parse(json.dumps(body))
    assert field in str(err.value)


@pytest.mark.parametrize("field", ["base", "domain"])
def test_rule_generator_string_list_field_is_schema_error(field):
    body = json.loads(formats.dumps(InfinityPresentation(RuleGenerator(
        ["p"], [("0", ("p",))],
        {"kind": "threshold", "dim": 1, "max_card": 2}, {"kind": "identity"}))))
    rule = body["generator"]
    if field == "base":
        rule["base"] = "p"
    else:
        rule["charts"][0]["domain"] = "p"
    with pytest.raises(SchemaError) as err:
        formats.parse(json.dumps(body))
    assert field in str(err.value)


def _unit_gauge_body():
    return _unit_atlas_body()["transitions"][0]["gauge"]


@pytest.mark.parametrize("field", ["target", "blocks"])
@pytest.mark.parametrize("bad", [[True], [1.0], [[1.0]], [[True]]])
def test_component_keys_hold_json_integers(field, bad):
    """``True`` and ``1.0`` equal 1 and hash like it, so they must be
    rejected before a component key is looked up."""
    body = _unit_gauge_body()
    component = body["components"][0]
    assert (component["target"], component["blocks"]) == ([1], [[1]])
    component[field] = bad
    with pytest.raises(SchemaError) as err:
        formats.gauge_from_json(body)
    assert field in str(err.value)


def test_duplicate_gauge_component_is_schema_error():
    body = _unit_gauge_body()
    body["components"].append(json.loads(json.dumps(body["components"][0])))
    with pytest.raises(SchemaError) as err:
        formats.gauge_from_json(body)
    assert "duplicate component at ([1], [[1]])" in str(err.value)


def test_non_canonical_component_keys_parse_to_the_canonical_key():
    body = _unit_gauge_body()
    body["components"].append({
        "target": [2, 1], "blocks": [[2], [1]],
        "tensor": {"out_dim": 1, "in_dims": [1, 1], "entries": ["3"]}})
    gauge = formats.gauge_from_json(body)
    assert gauge.component([1, 2], [[1], [2]]).entries == (3,)
    body["components"].append({
        "target": [1, 2], "blocks": [[1], [2]],
        "tensor": {"out_dim": 1, "in_dims": [1, 1], "entries": ["3"]}})
    with pytest.raises(SchemaError) as err:
        formats.gauge_from_json(body)
    assert "duplicate component at ([1, 2], [[1], [2]])" in str(err.value)


@pytest.mark.parametrize("edit", [
    {"out_dim": 1.5}, {"out_dim": "1"}, {"out_dim": True},
    {"in_dims": [1.5]}, {"in_dims": ["1"]}, {"in_dims": [True]}])
def test_tensor_shape_must_be_json_integers(edit):
    tensor = {"out_dim": 1, "in_dims": [1], "entries": ["2"], **edit}
    field = next(iter(edit))
    with pytest.raises(SchemaError) as err:
        formats.tensor_from_json(tensor)
    assert field in str(err.value) and "must be an integer" in str(err.value)

    body = _unit_gauge_body()
    body["components"][0]["tensor"] = tensor
    with pytest.raises(SchemaError) as err:
        formats.gauge_from_json(body)
    assert field in str(err.value) and "at ([1], [[1]])" in str(err.value)


@ROUND_TRIP
@given(seed=st.integers(0, 2 ** 16), n=st.integers(0, 3), max_dim=st.integers(0, 2),
       kind=st.sampled_from(["gauge", "composite", "inverse"]))
def test_gauge_json_round_trip(seed, n, max_dim, kind):
    """Composites and inverses are made in integer form; they serialize
    and parse back to equal gauges like drawn ones."""
    rng = seeded(seed)
    dims = random_dims(rng, n, max_dim=max_dim)
    gauge = random_gauge(rng, dims)
    if kind == "composite":
        gauge = gauge.compose(random_gauge(rng, dims))
    elif kind == "inverse":
        gauge = gauge.invert()
    parsed = formats.gauge_from_json(formats.to_json(gauge))
    assert parsed == gauge and hash(parsed) == hash(gauge)


def test_element_entries_use_the_rational_grammar():
    a = twisted_instance(304, n=2, n_points=2, n_charts=2)
    body = formats.to_json(random_element(seeded(1), a))
    component = next(c for c in body["components"] if c["vector"])
    component["vector"][0] = "1e5000"
    with pytest.raises(SchemaError) as err:
        formats.parse(formats.canonical_bytes(body))
    assert "element component at %s entry 0" % component["set"] in str(err.value)


GRAMMAR = settings(max_examples=300, derandomize=True, database=None, deadline=None)
DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=40)
# "p" or "p/q": signs, leading zeros and non-lowest terms included
RATIONAL_TEXTS = st.builds(
    lambda sign, num, den: sign + num + ("/" + den if den else ""),
    st.sampled_from(["", "+", "-"]), DIGITS,
    st.none() | DIGITS.filter(lambda d: d.strip("0")))


@GRAMMAR
@given(text=RATIONAL_TEXTS)
def test_rational_parser_agrees_with_fraction(text):
    assert Fraction(*formats.rational_from_str(text, "tensor", 0)) == Fraction(text)


@GRAMMAR
@given(texts=st.lists(RATIONAL_TEXTS, max_size=6))
def test_parsed_integer_form_is_the_fraction_form(texts):
    parsed = formats.tensor_from_json({"out_dim": len(texts), "in_dims": [],
                                       "entries": texts})
    oracle = MultiTensor(len(texts), (), [Fraction(x) for x in texts])
    assert parsed.integer_form() == oracle.integer_form()
    assert parsed == oracle and hash(parsed) == hash(oracle)
    assert parsed.entries == oracle.entries


@GRAMMAR
@given(values=st.lists(st.fractions(), max_size=6), scale=st.integers(1, 12),
       built=st.sampled_from(["fractions", "integers"]), wide=st.booleans())
def test_tensor_json_round_trip(values, scale, built, wide):
    """Fraction-built and integer-built tensors (unreduced numerators
    included) are written in lowest terms and parse back to equal
    tensors."""
    out_dim, in_dims = (1, (len(values),)) if wide else (len(values), ())
    if built == "fractions":
        tensor = MultiTensor(out_dim, in_dims, values)
    else:
        den = math.lcm(*(v.denominator for v in values)) * scale
        tensor = MultiTensor.from_integers(
            out_dim, in_dims, [int(v * den) for v in values], den)
    body = formats.tensor_to_json(tensor)
    assert [str(Fraction(x)) for x in body["entries"]] == body["entries"]
    parsed = formats.tensor_from_json(body)
    assert parsed == tensor and hash(parsed) == hash(tensor)


def test_long_parts_are_read_and_written_under_the_lowest_int_to_string_limit():
    """Tensor and element entries with parts of 641 to 4300 digits, signs
    included, read and write the same texts under CPython's lowest
    int-to-string limit as under the default one."""
    texts = ["-" + "9" * 4300, "1" * 641 + "/" + "3" * 4300, "-1/" + "7" * 1281, "5"]
    a = twisted_instance(304, n=2, n_points=2, n_charts=2)
    elem = random_element(seeded(1), a)
    key = max(elem.components, key=len)
    default = sys.get_int_max_str_digits()
    written = []
    for limit in (default, 640):
        sys.set_int_max_str_digits(limit)
        try:
            tensor = formats.tensor_from_json({"out_dim": 4, "in_dims": [], "entries": texts})
            elem.components[key] = tensor.entries[:len(elem.components[key])]
            body = formats.to_json(elem)
            written.append((tensor.integer_form(), formats.tensor_to_json(tensor), body,
                            formats.element_from_json(body).components))
        finally:
            sys.set_int_max_str_digits(default)
    assert written[0] == written[1]
    assert written[0][1]["entries"] == texts
    assert written[0][3] == elem.components


def test_writers_name_the_component_of_a_part_beyond_the_digit_limit():
    long = Fraction(1, 10 ** formats.MAX_DIGITS)
    a = twisted_instance(304, n=2, n_points=2, n_charts=2)
    elem = random_element(seeded(1), a)
    key = max(elem.components, key=len)
    elem.components[key] = (long,) + elem.components[key][1:]
    with pytest.raises(InvalidInput, match=r"^element component at \[1, 2\] entry 0 has"
                       r" a part of more than 4300 digits, the format's limit$"):
        formats.to_json(elem)
    key, gauge = sorted(a.transitions.items())[0]
    dst, src, p = key
    tensors = list(gauge.tensors)
    top = tensors[2]  # the one-block component at [1, 2]
    tensors[2] = top.plus(MultiTensor(top.out_dim, top.in_dims,
                                      [long] + [0] * (len(top.entries) - 1)))
    transitions = dict(a.transitions)
    transitions[key] = Gauge.from_tensors(gauge.source_dims, gauge.target_dims, tensors)
    with pytest.raises(InvalidInput, match=r"^transition %s<-%s at %s component at"
                       r" \(\[1, 2\], \[\[1, 2\]\]\): tensor entry 0 has"
                       % (dst, src, p)):
        formats.atlas_to_json(AtlasPresentation(a.n, a.dims, a.base, a.charts, transitions))
