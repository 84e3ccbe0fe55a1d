"""JSON wire formats with canonical serialization.

One versioned JSON dialect covers atlases, elements, gauges, morphism
data, and tower generators.  Serialization is canonical: keys sorted,
compact separators, components listed in enumeration order with zero
non-trivial components omitted (one-block components are always
explicit).  Parsing distinguishes syntax errors (with byte positions),
schema errors (wrong shapes or missing fields, located by component
coordinates), and semantic errors (invariant violations found by
validation).  A tensor's one stored form, integer numerators over a
common denominator, is also its form between text and kernels: entries
are read with one strict grammar straight into it and written from it
in lowest terms, with no ``Fraction`` made on either path.  Both ways a
numerator or denominator has at most ``MAX_DIGITS`` digits; a result
with a longer part is an error naming its component, not a longer text.

``parse`` reads every atlas and gauge by its canonical text: the input
as it stands when it is that text, else its JSON tree written
canonically.  One such read decodes each distinct tensor and dims text
once, in an interning table keyed by the text, so every place a piece
appears holds one object.  The JSON reader names the errors and reads
the spellings the text reader declines, and elements, rule generators
and morphism data.
One serialization (``to_text``) writes canonical text straight from the
objects, with no JSON tree between: a memo that lives for that call
keeps the text of each distinct tensor and dims list by value, so equal
pieces are written once, and the text around each gauge component is
made once per cube dimension.  ``to_json`` is that text read back.
"""

import hashlib
import json
import re
from fractions import Fraction
from math import lcm, prod

from .atlas import AtlasPresentation, Chart, FiniteBase
from .bundle import BundleElement, BundleMorphism
from .cubecat import IndexSet, Partition, _memoized, cube_plan
from .errors import InvalidInput, InvalidPartition, MvbError, ParseError, SchemaError
from .exactlin import MultiTensor
from .gauge import DimAssignment, Gauge, _shaped_gauge

FORMAT_VERSION = 1


# digits in a numerator or denominator, read or written, at most
MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** MAX_DIGITS
# parts are converted in chunks of at most this many digits, the lowest
# int-to-string limit CPython lets a user set, so that no setting of it
# (PYTHONINTMAXSTRDIGITS, sys.set_int_max_str_digits) changes a result
_CHUNK = 640
_CHUNK_BOUND = 10 ** _CHUNK
# a rational "p" or "p/q": optional sign, ASCII digits
_RATIONAL = re.compile(r"([+-]?[0-9]{1,%d})(?:/([0-9]{1,%d}))?"
                       % (MAX_DIGITS, MAX_DIGITS)).fullmatch


def rational_from_str(text, where, index):
    """``(p, q)``, not reduced, for entry ``index`` of ``where`` written
    ``"p"`` (``q`` is 1) or ``"p/q"`` with ``q`` nonzero.  Any other text,
    and any JSON value other than a string, is a schema error naming the
    entry."""
    match = _RATIONAL(text) if type(text) is str else None
    if match is not None:
        num, den = match.groups()
        if den is None:
            return _int_from_text(num), 1
        if den.strip("0"):
            return _int_from_text(num), _int_from_text(den)
    raise SchemaError('%s entry %d must be a rational "p" or "p/q", got %.40r'
                      % (where, index, text))


def _int_from_text(text):
    """``int(text)`` for a sign and ASCII digits, read ``_CHUNK`` digits
    at a time after the first piece, which carries the sign."""
    value = int(text[:_CHUNK])
    for start in range(_CHUNK, len(text), _CHUNK):
        piece = text[start:start + _CHUNK]
        value = value * 10 ** len(piece) + (-int(piece) if text[0] == "-" else int(piece))
    return value


def _int_text(x):
    """``str(x)`` for an integer, written ``_CHUNK`` digits at a time."""
    rest, tail = abs(x), ""
    while rest >= _CHUNK_BOUND:
        rest, piece = divmod(rest, _CHUNK_BOUND)
        tail = str(piece).zfill(_CHUNK) + tail
    return ("-" if x < 0 else "") + str(rest) + tail


def _rational_text(p, q):
    """``"p"`` or ``"p/q"`` for a reduced pair."""
    return _int_text(p) if q == 1 else _int_text(p) + "/" + _int_text(q)


def _check_digits(pairs, where):
    """An error naming the first ``(p, q)`` with over MAX_DIGITS digits."""
    for k, (p, q) in enumerate(pairs):
        if abs(p) >= _DIGIT_BOUND or q >= _DIGIT_BOUND:
            raise InvalidInput("%s entry %d has a part of more than %d digits,"
                               " the format's limit" % (where, k, MAX_DIGITS))


def _list_value(obj, key, where, default=None):
    """The list under ``key`` (``default`` when absent).  Anything else, a
    string above all (read as its characters), is an error naming the key."""
    value = obj.get(key, default)
    if not isinstance(value, list):
        raise SchemaError("%s: %s must be a list, got %s"
                          % (where, key, type(value).__name__))
    return value


def _integer_value(value, key, where):
    """``value``, read from the field ``key``, as a JSON integer.  A float,
    a string or a boolean is a schema error naming the field, never a
    truncated or coerced value."""
    if type(value) is not int:
        raise SchemaError("%s: %s must be an integer, got %r" % (where, key, value))
    return value


def _cube_dimension(obj, where):
    """The cube dimension ``n`` of ``obj``: a JSON integer, at least 0."""
    n = _integer_value(obj.get("n"), "n", where)
    if n < 0:
        raise SchemaError("%s: n must be at least 0, got %d" % (where, n))
    return n


def _index_set_value(obj, key, where):
    """The index set under ``key``, given as a list of positive integers."""
    try:
        return IndexSet(_list_value(obj, key, where))
    except (TypeError, InvalidPartition) as err:
        raise SchemaError("%s: %s malformed: %s" % (where, key, err))


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


def _string_field(obj, key, where):
    """The string under ``key``: a chart id or a base point."""
    value = obj.get(key)
    if not isinstance(value, str):
        raise SchemaError("%s: %s must be a string, got %r" % (where, key, value))
    return value


def gauge_from_json(obj, where="gauge"):
    """The gauge ``obj`` holds."""
    if not isinstance(obj, dict):
        raise SchemaError("%s must be an object" % where)
    n = _cube_dimension(obj, where)
    src = dims_from_json(n, obj.get("source_dims"), where + ".source_dims")
    tgt = dims_from_json(n, obj.get("target_dims"), where + ".target_dims")
    plan = cube_plan(n)
    return _assembled_gauge(src, tgt, plan, _tree_components(obj, plan, where), where)


def _tree_components(obj, plan, where):
    """``(plan position, tensor)`` of each component of a gauge's tree."""
    for item in _list_value(obj, "components", where, []):
        if not isinstance(item, dict):
            raise SchemaError("%s component must be an object, got %r" % (where, item))
        at = _component_position(plan, item, where)
        yield at, tensor_from_json(item.get("tensor"),
                                   " of %s component%s" % (where, _label(*plan.keys[at])))


def _assembled_gauge(src, tgt, plan, components, where):
    """The gauge of (plan position, tensor) pairs: shapes, repeats and
    missing one-block components checked as the pairs are read."""
    tensors = [None] * len(plan.keys)
    out_shapes, in_shapes = tgt.shapes, src.shapes
    for at, tensor in components:
        expected_out, expected_in = out_shapes[at][0], in_shapes[at][1]
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
    return _shaped_gauge(src, tgt, tensors)


def _component_position(plan, item, where):
    """The plan position of a gauge component's ``target`` and ``blocks``,
    read and checked as an index set and a partition of it."""
    target = _index_set_value(item, "target", where + " component")
    blocks = _list_value(item, "blocks", where + " component")
    try:
        if not all(isinstance(b, list) for b in blocks):
            raise TypeError("each block must be a list")
        blocks = Partition(blocks)
    except (TypeError, InvalidPartition) as err:
        raise SchemaError("%s component: blocks malformed: %s" % (where, err))
    label = _label(target, blocks)
    if not target or target[-1] > plan.n:
        raise SchemaError("%s component%s: target is not a nonempty subset"
                          " of the cube {1..%d}" % (where, label, plan.n))
    if set().union(*blocks) != set(target):
        raise SchemaError("%s component%s: blocks do not partition the target"
                          % (where, label))
    return plan.index[(target, blocks)]


def _label(target, blocks):
    return " at (%s, %s)" % (list(target), [list(b) for b in blocks])


def _check_header(obj, kind, noun):
    """Every top-level object names its ``kind`` and carries this
    format's version; ``noun`` names the kind in the error."""
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise SchemaError("expected %s object" % noun)
    if obj.get("format_version") != FORMAT_VERSION:
        raise SchemaError("unsupported format_version %r" % (obj.get("format_version"),))


def _name(value, field):
    """A point or chart id: a JSON string, or a JSON integer as its text."""
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    raise SchemaError("%s must be a string or an integer, got %r" % (field, value))


def _chart_specs(items, where):
    """``(id, domain)`` of each chart object of ``items``, read in turn."""
    for c in items:
        if not isinstance(c, dict):
            raise SchemaError("%s: chart must be an object, got %r" % (where, c))
        chart_id = _name(c.get("id"), where + " chart id")
        yield chart_id, tuple(_name(p, "%s chart %s domain point" % (where, chart_id))
                              for p in _list_value(c, "domain", where + " chart"))


def _atlas(obj, memo, transitions, read_gauge):
    """The atlas ``obj`` with ``transitions()``, each gauge read by
    ``read_gauge(raw, where)``; ``memo`` keeps the dims by their text."""
    _check_header(obj, "atlas", "an atlas")
    n = _cube_dimension(obj, "atlas")
    base = FiniteBase([_name(p, "atlas base point") for p in _list_value(obj, "base", "atlas")])
    charts = tuple(Chart(*spec) for spec in _chart_specs(_list_value(obj, "charts", "atlas"),
                                                          "atlas"))
    dims = dims_from_json(n, obj.get("dims"))
    memo[n, _dims_text(dims, {})] = dims
    out = {}
    for item in transitions():
        try:
            src, dst, p = item["from"], item["to"], item["point"]
        except (KeyError, TypeError) as err:
            raise SchemaError("transition malformed: %s" % err)
        key = (_name(dst, "transition to"), _name(src, "transition from"),
               _name(p, "transition point"))
        where = "transition %s<-%s at %s" % key
        if key in out:
            raise SchemaError("duplicate %s" % where)
        g = read_gauge(item.get("gauge"), where)
        if g.source_dims != dims or g.target_dims != dims:
            raise SchemaError("%s: gauge dims differ from the atlas dims" % where)
        out[key] = g
    try:
        return AtlasPresentation(n, dims, base, charts, out)
    except Exception as err:
        raise SchemaError("atlas inconsistent: %s" % err)


def atlas_from_json(obj):
    return _atlas(obj, {}, lambda: _list_value(obj, "transitions", "atlas", []),
                  gauge_from_json)


def element_from_json(obj):
    _check_header(obj, "element", "an element")
    chart = _string_field(obj, "chart", "element")
    point = _string_field(obj, "point", "element")
    node = _index_set_value(obj, "node", "element")
    comps = {}
    for item in _list_value(obj, "components", "element"):
        if not isinstance(item, dict):
            raise SchemaError("element component must be an object, got %r" % (item,))
        key = _index_set_value(item, "set", "element component")
        if key in comps:
            raise SchemaError("element: duplicate component for %s" % (list(key),))
        where = "element component at %s" % (list(key),)
        comps[key] = tuple(Fraction(*rational_from_str(x, where, k))
                           for k, x in enumerate(_list_value(item, "vector", where)))
    return BundleElement(node, chart, point, comps)


def morphism_from_json(obj, source, target):
    """Bind serialized morphism data to source and target presentations."""
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
        data[(chart, p)] = gauge_from_json(item.get("gauge"), where)
    try:
        return BundleMorphism(source, target, data)
    except Exception as err:
        raise SchemaError("morphism inconsistent with presentations: %s" % err)


def generator_from_json(obj):
    from .tower import InfinityPresentation, RuleGenerator, StabilizingGenerator
    _check_header(obj, "generator", "a generator")
    body = obj.get("generator")
    if not isinstance(body, dict):
        raise SchemaError("generator body missing")
    if body.get("kind") == "stabilizing":
        instance = _by_text(body.get("instance"), "atlas")
        level = body.get("N")
        if type(level) is not int or level != instance.n:
            raise SchemaError("stabilizing generator: N must be the instance's level %d,"
                              " got %r" % (instance.n, level))
        return InfinityPresentation(StabilizingGenerator(instance))
    if body.get("kind") == "rule":
        base = _list_value(body, "base", "rule generator")
        charts = _list_value(body, "charts", "rule generator")
        for key in ("dim_rule", "transition_rule"):
            if not isinstance(body.get(key), dict):
                raise SchemaError("rule generator: %s must be an object, got %r"
                                  % (key, body.get(key)))
        return InfinityPresentation(RuleGenerator(
            [_name(p, "rule generator base point") for p in base],
            list(_chart_specs(charts, "rule generator")), body["dim_rule"],
            body["transition_rule"]))
    raise SchemaError("unknown generator kind %r" % (body.get("kind"),))


# canonical JSON text of a JSON value: sorted keys, compact separators,
# ASCII; values taken from input (ids, points, rule bodies) are written
# with it, so their escaping is the JSON encoder's
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_GAUGE_FIELDS = '"format_version":%d,"kind":"gauge",' % FORMAT_VERSION  # before "n"


def _ints(values):
    return "[%s]" % ",".join(map(str, values))


def _tensor_text(tensor):
    """A tensor's text, its entries in lowest terms."""
    nums, den = tensor.integer_form()
    # lowest terms only shrink the parts of the integer form
    if den >= _DIGIT_BOUND or max(map(abs, nums), default=0) >= _DIGIT_BOUND:
        _check_digits(tensor.lowest_terms(), "tensor")
    return '{"entries":[%s],"in_dims":%s,"out_dim":%d}' % (
        ",".join(['"%s"' % _rational_text(p, q) for p, q in tensor.lowest_terms()]),
        _ints(tensor.in_dims), tensor.out_dim)


def _dims_text(dims, memo):
    """A dims list's text, written once per distinct value in ``memo``."""
    text = memo.get(dims)
    if text is None:
        text = memo[dims] = "[%s]" % ",".join(
            '{"dim":%d,"set":%s}' % (dims.dims[key], _ints(key))
            for key in sorted(dims.dims, key=lambda s: (len(s), tuple(s))))
    return text


@_memoized(16)
def _component_heads(n):
    """The text before the tensor of each gauge component over ``n`` axes,
    in plan order, mapped to its plan position.  Never changed."""
    return {'{"blocks":%s,"target":%s,"tensor":' % (_ENCODE(rho), _ints(subset)): at
            for at, (subset, rho) in enumerate(cube_plan(n).keys)}


def _gauge_text(gauge, where, memo, header=""):
    """A gauge's text.  ``memo`` holds the text of each distinct tensor
    and dims list written so far in this serialization; an error names
    the component at ``where``.  ``header`` goes before ``n``: a gauge
    file's format fields."""
    components = []
    for head, (subset, rho), tensor in zip(
            _component_heads(gauge.n), cube_plan(gauge.n).keys, gauge.tensors):
        if tensor is None:
            if len(rho) > 1:
                continue
            tensor = gauge.linear_part(subset)
        text = memo.get(tensor)
        if text is None:
            try:
                text = memo[tensor] = _tensor_text(tensor)
            except InvalidInput as err:
                raise InvalidInput("%s component%s: %s" % (where, _label(subset, rho), err))
        components.append(head + text + "}")
    return '{"components":[%s],%s"n":%d,"source_dims":%s,"target_dims":%s}' % (
        ",".join(components), header, gauge.n,
        _dims_text(gauge.source_dims, memo), _dims_text(gauge.target_dims, memo))


def _charts_text(charts):
    """The text of a charts list given as ``(id, domain)`` pairs."""
    return "[%s]" % ",".join('{"domain":%s,"id":%s}' % (_ENCODE(list(domain)), _ENCODE(cid))
                             for cid, domain in charts)


def _atlas_text(a):
    memo = {}
    return ('{"base":%s,"charts":%s,"dims":%s,"format_version":%d,"kind":"atlas",'
            '"n":%d,"transitions":[%s]}') % (
        _ENCODE(list(a.base.points)), _charts_text((c.id, c.domain) for c in a.charts),
        _dims_text(a.dims, memo), FORMAT_VERSION, a.n, ",".join(
            '{"from":%s,"gauge":%s,"point":%s,"to":%s}' % (
                _ENCODE(src), _gauge_text(g, "transition %s<-%s at %s" % (dst, src, p), memo),
                _ENCODE(p), _ENCODE(dst))
            for (dst, src, p), g in sorted(a.transitions.items())))


def _element_text(elem):
    for key, vec in elem.components.items():
        _check_digits(((x.numerator, x.denominator) for x in vec),
                      "element component at %s" % (list(key),))
    return ('{"chart":%s,"components":[%s],"format_version":%d,"kind":"element",'
            '"node":%s,"point":%s}') % (
        _ENCODE(elem.chart), ",".join(
            '{"set":%s,"vector":[%s]}' % (_ints(key), ",".join(
                '"%s"' % _rational_text(x.numerator, x.denominator) for x in vec))
            for key, vec in sorted(elem.components.items(),
                                   key=lambda kv: (len(kv[0]), tuple(kv[0])))),
        FORMAT_VERSION, _ints(elem.node), _ENCODE(elem.point))


def _morphism_text(morphism):
    memo = {}
    return ('{"base":%s,"data":[%s],"format_version":%d,"kind":"morphism","n":%d,'
            '"source_dims":%s,"target_dims":%s}') % (
        _ENCODE(list(morphism.source.base.points)), ",".join(
            '{"chart":%s,"gauge":%s,"point":%s}' % (
                _ENCODE(chart), _gauge_text(g, "morphism data at (%s, %s)" % (chart, p), memo),
                _ENCODE(p))
            for (chart, p), g in sorted(morphism.data.items())),
        FORMAT_VERSION, morphism.source.n,
        _dims_text(morphism.source.dims, memo), _dims_text(morphism.target.dims, memo))


def _generator_text(gen):
    from .tower import RuleGenerator, StabilizingGenerator
    if isinstance(gen, StabilizingGenerator):
        body = '{"N":%d,"instance":%s,"kind":"stabilizing"}' % (
            gen.level, _atlas_text(gen.instance))
    elif isinstance(gen, RuleGenerator):
        body = '{"base":%s,"charts":%s,"dim_rule":%s,"kind":"rule","transition_rule":%s}' % (
            _ENCODE(list(gen.base.points)), _charts_text(gen.chart_specs),
            _ENCODE(gen.dim_rule), _ENCODE(gen.transition_rule))
    else:
        raise SchemaError("unknown generator type %r" % (type(gen),))
    return '{"format_version":%d,"generator":%s,"kind":"generator"}' % (FORMAT_VERSION, body)


def to_text(value):
    """The canonical JSON text of any supported object, written straight
    from it: one serialization writes each distinct tensor and dims list
    once."""
    from .tower import InfinityPresentation
    if isinstance(value, AtlasPresentation):
        return _atlas_text(value)
    if isinstance(value, BundleMorphism):
        return _morphism_text(value)
    if isinstance(value, Gauge):
        return _gauge_text(value, "gauge", {}, _GAUGE_FIELDS)
    if isinstance(value, BundleElement):
        return _element_text(value)
    if isinstance(value, InfinityPresentation):
        return _generator_text(value.generator)
    raise SchemaError("cannot serialize %r" % (type(value),))


def dumps(value):
    return to_text(value).encode()


def fingerprint(value):
    """Content hash of the canonical serialization of a supported object."""
    return hashlib.sha256(dumps(value)).hexdigest()


def to_json(value):
    """The JSON tree of ``to_text(value)``, for a caller that edits one."""
    return json.loads(to_text(value))


def atlas_to_json(presentation):
    return json.loads(_atlas_text(presentation))


def tensor_to_json(tensor):
    return json.loads(_tensor_text(tensor))


def canonical_text(obj):
    """Canonical serialization of a JSON value."""
    return _ENCODE(obj)


def canonical_bytes(obj):
    """The canonical serialization as UTF-8 bytes."""
    return _ENCODE(obj).encode("utf-8")


# a tensor text, and its entries "p" or "p/q", parts of at most _CHUNK digits
_TENSOR = re.compile(r'\{"entries":\[([^]]*)\],"in_dims":\[([^]]*)\],'
                     r'"out_dim":([^}]*)\}').fullmatch
_ENTRIES = re.compile(r'(?:"[+-]?[0-9]{1,%d}(?:/[0-9]{1,%d})?"(?:,(?=")|\Z))*'
                      % (_CHUNK, _CHUNK)).fullmatch
_DECODE = json.JSONDecoder().raw_decode
_GAUGE_START = '{"components":['


def _interned(memo, key, read, *args):
    """``read(*args)``, or the object an earlier read under an equal ``key``
    (a tensor text, or ``n`` and a dims text) made; ``memo`` is the
    interning table of one read."""
    found = memo.get(key)
    if found is None:
        found = memo[key] = read(*args)
    return found


@_memoized(256)
def _naturals(text):
    """The JSON integers, none negative, of the comma-separated ``text``."""
    out = tuple(map(int, text.split(","))) if text else ()
    if ",".join(map(str, out)) != text or min(out, default=0) < 0:
        raise ValueError("not JSON integers: %.20r" % text)
    return out


def _text_tensor(text):
    """The tensor of a tensor text, built as ``tensor_from_json`` builds it."""
    match = _TENSOR(text)
    if match is None or not _ENTRIES(match[1]):
        raise ValueError("not a tensor text")
    entries, in_dims, (out_dim,) = match[1], _naturals(match[2]), _naturals(match[3])
    parts = entries[1:-1].split('","') if entries else []
    pairs = [(int(p), int(q or 1)) for p, _, q in (part.partition("/") for part in parts)]
    den = lcm(*{q for _, q in pairs})
    if len(pairs) != out_dim * prod(in_dims) or not den:
        raise ValueError("a zero denominator, or entries that do not fit the shape")
    return MultiTensor.from_integers(out_dim, in_dims, [p * (den // q) for p, q in pairs], den)


def _text_gauge(text, fields, memo, where="gauge"):
    """The gauge of a gauge text inside ``{"components":[`` and the last
    brace, ``fields`` before its ``n``; ``n`` and dims are read before any
    plan, and ``memo`` keeps each distinct tensor and dims text's object.
    A tensor is a component's last field and only object: only ``},`` ends one."""
    tail = '],%s"n":' % fields
    body = text[:text.index(tail)]
    at_src = text.index(',"source_dims":', len(body))
    at_tgt = text.index(',"target_dims":', at_src)
    (n,) = _naturals(text[len(body) + len(tail):at_src])
    src, tgt = (_interned(memo, (n, piece), lambda: dims_from_json(n, json.loads(piece)))
                for piece in (text[at_src + 15:at_tgt], text[at_tgt + 15:]))
    if not body.endswith("}"):
        raise ValueError("not a components list")
    heads, components = _component_heads(n), []
    for piece in body[:-1].split("},"):
        cut = piece.index('"tensor":') + 9
        at = heads.get(piece[:cut])
        if at is None:
            raise ValueError("not a component head")
        components.append((at, _interned(memo, piece[cut:], _text_tensor, piece[cut:])))
    return _assembled_gauge(src, tgt, cube_plan(n), components, where)


def _after(text, pos, literal):
    """The offset after ``literal``, which must stand at ``pos``."""
    return text.index(literal, pos, pos + len(literal)) + len(literal)


def _text_transitions(text, pos, stop):
    """Each transition, its gauge as text, from ``pos`` in a transitions
    list whose atlas ends at ``stop``."""
    comma = ""
    while not (pos == stop - 2 and text.startswith("]}", pos)):
        src, pos = _DECODE(text, _after(text, pos, comma + '{"from":'))
        start = _after(text, pos, ',"gauge":' + _GAUGE_START)
        end = text.index('},"point":', start)
        p, pos = _DECODE(text, end + 10)
        dst, pos = _DECODE(text, _after(text, pos, ',"to":'))
        yield {"from": src, "to": dst, "point": p, "gauge": text[start:end]}
        pos, comma = _after(text, pos, "}"), ","


def _read_canonical(text):
    """The atlas (its head before the transitions read as JSON) or gauge in the
    canonical text ``text``, read in place; None for any other input or one failing a check."""
    try:
        end = len(text.rstrip(" \t\n\r"))
        if text.startswith(_GAUGE_START) and text.endswith("}", 0, end):
            return _text_gauge(text[15:end - 1], _GAUGE_FIELDS, {})
        if text.startswith('{"base":'):
            at, memo = text.index(',"transitions":['), {}
            return _atlas(json.loads(text[:at] + "}"), memo,
                          lambda: _text_transitions(text, at + 16, end),
                          lambda raw, where: _text_gauge(raw, "", memo, where))
    except (MvbError, ValueError):
        return None


def _by_text(obj, kind):
    """The ``kind`` object, an atlas or a gauge, of the JSON tree ``obj``,
    read from its canonical text; the JSON reader reads it when the text
    reader declines, and names its errors."""
    value = None
    if isinstance(obj, dict) and obj.get("kind") == kind:
        value = _read_canonical(_ENCODE(obj))
    if value is not None:
        return value
    if kind == "atlas":
        return atlas_from_json(obj)
    _check_header(obj, "gauge", "a gauge")
    return gauge_from_json(obj)


def parse(data):
    """Parse bytes into the object named by their ``kind`` field; an atlas
    or gauge is read by its canonical text (``_read_canonical``): the input
    as it stands, or else its JSON tree written canonically (``_by_text``).
    Input nested too deeply to read is an error, not a traceback."""
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError("input is not UTF-8: %s" % err, position=err.start)
    try:
        value = _read_canonical(text)
        return _parsed_tree(text) if value is None else value
    except RecursionError:
        raise ParseError("input nested too deeply to read") from None


def _parsed_tree(text):
    """The object of ``text`` read as JSON, the kind named by its tree."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError("invalid JSON at offset %d: %s" % (err.pos, err.msg),
                         position=err.pos)
    except ValueError as err:  # an integer longer than the int-to-string limit
        raise ParseError("invalid JSON: %s" % err)
    if not isinstance(obj, dict):
        raise SchemaError("top-level JSON value must be an object")
    kind = obj.get("kind")
    if kind in ("atlas", "gauge"):
        return _by_text(obj, kind)
    if kind == "element":
        return element_from_json(obj)
    if kind == "generator":
        return generator_from_json(obj)
    if kind == "morphism":
        raise SchemaError(
            "morphism data must be bound with morphism_from_json and its presentations")
    raise SchemaError("unknown kind %r" % (kind,))
