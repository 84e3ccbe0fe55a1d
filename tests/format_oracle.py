"""The eager JSON reader and tree writer, kept as differential oracles.

Before the reader interned repeated pieces, every tensor and every dims
list of an input was decoded again wherever it appeared.  Before the
writer wrote text straight from the objects, it built a JSON tree of
every object, writing every component out again, shared or not, and
encoded the tree with ``json.dumps``.  These copies of that code are
the reference that ``tests/test_format_interning.py`` compares
``mvb.formats`` against: the same object or the same exception class
and message for every input, and the same bytes (``canonical_bytes``
of the tree) for every object.  They reuse the unchanged helpers of
``mvb.formats``.
"""

import json
from math import lcm, prod

from mvb import formats
from mvb.atlas import AtlasPresentation, Chart, FiniteBase
from mvb.bundle import BundleElement, BundleMorphism
from mvb.cubecat import cube_plan
from mvb.errors import InvalidInput, SchemaError
from mvb.exactlin import MultiTensor
from mvb.formats import (
    FORMAT_VERSION,
    _check_digits,
    _check_header,
    _component_position,
    _cube_dimension,
    _DIGIT_BOUND,
    _index_set_value,
    _integer_value,
    _label,
    _list_value,
    _rational_text,
    _string_field,
    rational_from_str,
)
from mvb.gauge import DimAssignment, Gauge
from mvb.tower import InfinityPresentation, RuleGenerator, StabilizingGenerator


def tensor_from_json(obj, where=""):
    if not isinstance(obj, dict):
        raise SchemaError("tensor%s must be an object" % where)
    where = "tensor" + where
    in_dims = _list_value(obj, "in_dims", where)
    entries = _list_value(obj, "entries", where)
    out_dim = _integer_value(obj.get("out_dim"), "out_dim", where)
    in_dims = tuple(_integer_value(d, "in_dims entry", where) for d in in_dims)
    expected = out_dim * prod(in_dims)
    if len(entries) != expected or out_dim < 0 or min(in_dims, default=0) < 0:
        raise SchemaError("%s has %d entries, expected %d for shape %dx%s"
                          % (where, len(entries), expected, out_dim, list(in_dims)))
    pairs = [rational_from_str(x, where, k) for k, x in enumerate(entries)]
    den = lcm(*{d for _, d in pairs})
    return MultiTensor.from_integers(
        out_dim, in_dims, [x * (den // d) for x, d in pairs], den)


def dims_from_json(n, obj, where="dims"):
    if not isinstance(obj, list):
        raise SchemaError("%s must be a list" % where)
    out = {}
    for item in obj:
        if not isinstance(item, dict):
            raise SchemaError("%s entry must be an object, got %r" % (where, item))
        key = _index_set_value(item, "set", where + " entry")
        dim = _integer_value(item.get("dim"), "dim", where + " entry")
        if key in out:
            raise SchemaError("%s: duplicate entry for %s" % (where, list(key)))
        out[key] = dim
    try:
        return DimAssignment(n, out)
    except Exception as err:
        raise SchemaError("%s incomplete: %s" % (where, err))


def gauge_from_json(obj, where="gauge"):
    if not isinstance(obj, dict):
        raise SchemaError("%s must be an object" % where)
    n = _cube_dimension(obj, where)
    src = dims_from_json(n, obj.get("source_dims"), where + ".source_dims")
    tgt = dims_from_json(n, obj.get("target_dims"), where + ".target_dims")
    plan = cube_plan(n)
    tensors = [None] * len(plan.keys)
    for item in _list_value(obj, "components", where, []):
        if not isinstance(item, dict):
            raise SchemaError("%s component must be an object, got %r" % (where, item))
        at = _component_position(plan, item, where)
        raw = item.get("tensor")
        try:
            tensor = tensor_from_json(raw)
        except SchemaError:
            tensor_from_json(raw, where=" of %s component%s" % (where, _label(*plan.keys[at])))
            raise
        expected_out, expected_in = tgt.shapes[at][0], src.shapes[at][1]
        if tensor.out_dim != expected_out or tensor.in_dims != expected_in:
            raise SchemaError(
                "%s component%s has shape %dx%s, expected %dx%s"
                % (where, _label(*plan.keys[at]), tensor.out_dim, list(tensor.in_dims),
                   expected_out, list(expected_in)))
        if tensors[at] is not None:
            raise SchemaError("%s: duplicate component%s" % (where, _label(*plan.keys[at])))
        tensors[at] = tensor
    for tensor, (subset, rho) in zip(tensors, plan.keys):
        if tensor is None and len(rho) == 1:
            raise SchemaError(
                "%s missing explicit one-block component at %s"
                % (where, list(subset)))
    return Gauge.from_tensors(src, tgt, tensors)


def atlas_from_json(obj):
    _check_header(obj, "atlas", "an atlas")
    n = _cube_dimension(obj, "atlas")
    base = FiniteBase(_list_value(obj, "base", "atlas"))
    charts = []
    for c in _list_value(obj, "charts", "atlas"):
        if not isinstance(c, dict):
            raise SchemaError("atlas: chart must be an object, got %r" % (c,))
        try:
            charts.append(Chart(c["id"], tuple(_list_value(c, "domain", "atlas chart"))))
        except KeyError as err:
            raise SchemaError("atlas chart malformed: missing %s" % err)
    dims = dims_from_json(n, obj.get("dims"))
    transitions = {}
    for item in _list_value(obj, "transitions", "atlas", []):
        try:
            src, dst, p = str(item["from"]), str(item["to"]), str(item["point"])
        except (KeyError, TypeError) as err:
            raise SchemaError("transition malformed: %s" % err)
        where = "transition %s<-%s at %s" % (dst, src, p)
        if (dst, src, p) in transitions:
            raise SchemaError("duplicate %s" % where)
        transitions[(dst, src, p)] = gauge_from_json(item.get("gauge"), where=where)
    try:
        return AtlasPresentation(n, dims, base, tuple(charts), transitions)
    except Exception as err:
        raise SchemaError("atlas inconsistent: %s" % err)


def morphism_from_json(obj, source, target):
    _check_header(obj, "morphism", "a morphism")
    data = {}
    for item in _list_value(obj, "data", "morphism", []):
        if not isinstance(item, dict):
            raise SchemaError("morphism data entry must be an object, got %r" % (item,))
        chart = _string_field(item, "chart", "morphism data")
        p = _string_field(item, "point", "morphism data")
        where = "morphism data at (%s, %s)" % (chart, p)
        if (chart, p) in data:
            raise SchemaError("duplicate %s" % where)
        data[(chart, p)] = gauge_from_json(item.get("gauge"), where=where)
    try:
        return BundleMorphism(source, target, data)
    except Exception as err:
        raise SchemaError("morphism inconsistent with presentations: %s" % err)


def from_json(obj):
    """The eager read of an atlas or a gauge; other kinds, which hold no
    tensors of their own, go to ``formats``."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "atlas":
        return atlas_from_json(obj)
    if kind == "gauge":
        _check_header(obj, "gauge", "a gauge")
        return gauge_from_json(obj)
    return formats.parse(canonical_bytes(obj))


def canonical_bytes(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def dims_to_json(dims):
    return [
        {"set": list(key), "dim": dims.dims[key]}
        for key in sorted(dims.dims, key=lambda s: (len(s), tuple(s)))
    ]


def tensor_to_json(tensor):
    nums, den = tensor.integer_form()
    if den >= _DIGIT_BOUND or max(map(abs, nums), default=0) >= _DIGIT_BOUND:
        _check_digits(tensor.lowest_terms(), "tensor")
    return {
        "out_dim": tensor.out_dim,
        "in_dims": list(tensor.in_dims),
        "entries": [_rational_text(p, q) for p, q in tensor.lowest_terms()],
    }


def gauge_to_json(gauge, where="gauge"):
    components = []
    for (subset, rho), tensor in zip(cube_plan(gauge.n).keys, gauge.tensors):
        if tensor is None and len(rho) > 1:
            continue
        tensor = gauge.linear_part(subset) if tensor is None else tensor
        try:
            body = tensor_to_json(tensor)
        except InvalidInput as err:
            raise InvalidInput("%s component%s: %s" % (where, _label(subset, rho), err))
        components.append({
            "target": list(subset),
            "blocks": [list(b) for b in rho],
            "tensor": body,
        })
    return {
        "n": gauge.n,
        "source_dims": dims_to_json(gauge.source_dims),
        "target_dims": dims_to_json(gauge.target_dims),
        "components": components,
    }


def atlas_to_json(presentation):
    a = presentation
    return {
        "format_version": FORMAT_VERSION,
        "kind": "atlas",
        "n": a.n,
        "base": list(a.base.points),
        "dims": dims_to_json(a.dims),
        "charts": [{"id": c.id, "domain": list(c.domain)} for c in a.charts],
        "transitions": [
            {
                "from": src,
                "to": dst,
                "point": p,
                "gauge": gauge_to_json(g, "transition %s<-%s at %s" % (dst, src, p)),
            }
            for (dst, src, p), g in sorted(a.transitions.items())
        ],
    }


def morphism_to_json(morphism):
    return {
        "format_version": FORMAT_VERSION,
        "kind": "morphism",
        "n": morphism.source.n,
        "base": list(morphism.source.base.points),
        "source_dims": dims_to_json(morphism.source.dims),
        "target_dims": dims_to_json(morphism.target.dims),
        "data": [
            {"chart": chart, "point": p,
             "gauge": gauge_to_json(g, "morphism data at (%s, %s)" % (chart, p))}
            for (chart, p), g in sorted(morphism.data.items())
        ],
    }


def element_to_json(elem):
    for key, vec in elem.components.items():
        _check_digits(((x.numerator, x.denominator) for x in vec),
                      "element component at %s" % (list(key),))
    return {
        "format_version": FORMAT_VERSION,
        "kind": "element",
        "node": list(elem.node),
        "chart": elem.chart,
        "point": elem.point,
        "components": [
            {"set": list(key),
             "vector": [_rational_text(x.numerator, x.denominator) for x in vec]}
            for key, vec in sorted(elem.components.items(),
                                   key=lambda kv: (len(kv[0]), tuple(kv[0])))
        ],
    }


def generator_to_json(gen):
    if isinstance(gen, StabilizingGenerator):
        body = {"kind": "stabilizing", "N": gen.level, "instance": atlas_to_json(gen.instance)}
    elif isinstance(gen, RuleGenerator):
        body = {
            "kind": "rule",
            "base": list(gen.base.points),
            "charts": [{"id": cid, "domain": list(dom)} for cid, dom in gen.chart_specs],
            "dim_rule": gen.dim_rule,
            "transition_rule": gen.transition_rule,
        }
    else:
        raise SchemaError("unknown generator type %r" % (type(gen),))
    return {"format_version": FORMAT_VERSION, "kind": "generator", "generator": body}


def to_json(value):
    """The eager serialization of any supported object, as a JSON tree."""
    if isinstance(value, AtlasPresentation):
        return atlas_to_json(value)
    if isinstance(value, BundleElement):
        return element_to_json(value)
    if isinstance(value, BundleMorphism):
        return morphism_to_json(value)
    if isinstance(value, Gauge):
        out = gauge_to_json(value)
        out["format_version"] = FORMAT_VERSION
        out["kind"] = "gauge"
        return out
    if isinstance(value, InfinityPresentation):
        return generator_to_json(value.generator)
    raise SchemaError("cannot serialize %r" % (type(value),))
