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

One top-level read (``parse``, ``morphism_from_json``) decodes each
distinct tensor and dims list once: an interning table that lives for
that read maps each one's key, made only of exact JSON types, to the
object decoded from it, so every place it appears holds that object.
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
from .errors import InvalidInput, InvalidPartition, ParseError, SchemaError
from .exactlin import MultiTensor
from .gauge import DimAssignment, Gauge

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


def _list_value(obj, key, where):
    """The list under ``key``.  Anything else, a string above all (which
    would read as its characters), is a schema error naming the key."""
    value = obj.get(key)
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


_INT, _STR = {int}, {str}


def _tensor_key(obj):
    """The interning key of a tensor's JSON form, ``(out_dim, in_dims,
    entries)`` as tuples, when ``out_dim`` and every in-dim are JSON
    integers and every entry is a string; None for any other form, which
    is read and checked as it stands.  ``True`` and ``1.0`` equal 1 and
    hash like it, and a list does not hash at all, so the key is made
    only of exact types."""
    if type(obj) is dict:
        out_dim, in_dims, entries = obj.get("out_dim"), obj.get("in_dims"), obj.get("entries")
        if (type(out_dim) is int and type(in_dims) is list and type(entries) is list
                and _INT.issuperset(map(type, in_dims))
                and _STR.issuperset(map(type, entries))):
            return out_dim, tuple(in_dims), tuple(entries)
    return None


def _dims_key(n, obj):
    """The interning key of a dims list read over ``n`` axes: ``n`` and the
    ``(set, dim)`` pairs in order, under the type rules of
    ``_tensor_key``, or None.  It has two parts and a tensor key three,
    so one table holds both."""
    if type(obj) is not list:
        return None
    pairs = []
    for item in obj:
        if type(item) is not dict:
            return None
        subset, dim = item.get("set"), item.get("dim")
        if (type(dim) is not int or type(subset) is not list
                or not _INT.issuperset(map(type, subset))):
            return None
        pairs.append((tuple(subset), dim))
    return n, tuple(pairs)


def _interned(memo, key, read, *args):
    """``read(*args)``, or the object that an earlier read under an equal
    ``key`` made.  ``memo`` is the interning table of one top-level read;
    a key of None is never kept, and a read that raises keeps nothing."""
    found = memo.get(key)
    if found is None:
        found = read(*args)
        if key is not None:
            memo[key] = found
    return found


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


def _list_field(obj, key, where):
    """The list under ``key``, empty when the key is absent."""
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise SchemaError("%s: %s must be a list, got %s"
                          % (where, key, type(items).__name__))
    return items


def _string_field(obj, key, where):
    """The string under ``key``: a chart id or a base point."""
    value = obj.get(key)
    if not isinstance(value, str):
        raise SchemaError("%s: %s must be a string, got %r" % (where, key, value))
    return value


def gauge_from_json(obj, where="gauge", memo=None):
    """The gauge ``obj`` holds.  ``memo`` is the interning table of the
    top-level read this gauge is part of (a fresh one when not given):
    each distinct tensor and dims list is decoded once, and every place
    it appears holds the one object."""
    if memo is None:
        memo = {}
    if not isinstance(obj, dict):
        raise SchemaError("%s must be an object" % where)
    n = _cube_dimension(obj, where)
    src = _read_dims(n, obj.get("source_dims"), where + ".source_dims", memo)
    tgt = _read_dims(n, obj.get("target_dims"), where + ".target_dims", memo)
    plan = cube_plan(n)
    tensors = [None] * len(plan.keys)
    for item in _list_field(obj, "components", where):
        if not isinstance(item, dict):
            raise SchemaError("%s component must be an object, got %r" % (where, item))
        at = _component_position(plan, item, where)
        raw = item.get("tensor")
        tensor = _interned(memo, _tensor_key(raw), _component_tensor, raw, where, plan.keys[at])
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


def _read_dims(n, obj, where, memo):
    """``dims_from_json``, interned in ``memo``."""
    return _interned(memo, _dims_key(n, obj), dims_from_json, n, obj, where)


def _component_tensor(raw, where, key):
    """The tensor of the gauge component at plan key ``key``; an error in
    it names the component."""
    try:
        return tensor_from_json(raw)
    except SchemaError:
        # read again for the error located at the component
        tensor_from_json(raw, where=" of %s component%s" % (where, _label(*key)))
        raise


def _component_position(plan, item, where):
    """The plan position of a gauge component's ``target`` and ``blocks``.

    Index sets and partitions are tuples, so JSON integer lists in
    canonical form are found in the plan index as they stand.  Any other
    form is read and checked as an index set and a partition of it.
    """
    target, blocks = item.get("target"), item.get("blocks")
    if (type(target) is list and type(blocks) is list
            and all(type(i) is int for i in target)
            and all(type(b) is list and all(type(i) is int for i in b) for b in blocks)):
        at = plan.index.get((tuple(target), tuple(map(tuple, blocks))))
        if at is not None:
            return at
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
    memo = {}
    dims = _read_dims(n, obj.get("dims"), "dims", memo)
    transitions = {}
    for item in _list_field(obj, "transitions", "atlas"):
        try:
            # read as strings, like chart ids and base points
            src, dst, p = str(item["from"]), str(item["to"]), str(item["point"])
        except (KeyError, TypeError) as err:
            raise SchemaError("transition malformed: %s" % err)
        where = "transition %s<-%s at %s" % (dst, src, p)
        if (dst, src, p) in transitions:
            raise SchemaError("duplicate %s" % where)
        transitions[(dst, src, p)] = gauge_from_json(item.get("gauge"), where, memo)
    try:
        return AtlasPresentation(n, dims, base, tuple(charts), transitions)
    except Exception as err:
        raise SchemaError("atlas inconsistent: %s" % err)


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
    memo = {}
    data = {}
    for item in _list_field(obj, "data", "morphism"):
        if not isinstance(item, dict):
            raise SchemaError("morphism data entry must be an object, got %r" % (item,))
        chart = _string_field(item, "chart", "morphism data")
        p = _string_field(item, "point", "morphism data")
        where = "morphism data at (%s, %s)" % (chart, p)
        if (chart, p) in data:
            raise SchemaError("duplicate %s" % where)
        data[(chart, p)] = gauge_from_json(item.get("gauge"), where, memo)
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
        instance = atlas_from_json(body.get("instance"))
        level = body.get("N")
        if type(level) is not int or level != instance.n:
            raise SchemaError("stabilizing generator: N must be the instance's level %d,"
                              " got %r" % (instance.n, level))
        return InfinityPresentation(StabilizingGenerator(instance))
    if body.get("kind") == "rule":
        base = _list_value(body, "base", "rule generator")
        charts = _list_value(body, "charts", "rule generator")
        try:
            charts = [(c["id"], tuple(_list_value(c, "domain", "rule generator chart")))
                      for c in charts]
            return InfinityPresentation(RuleGenerator(
                base, charts, body["dim_rule"], body["transition_rule"]))
        except (KeyError, TypeError) as err:
            raise SchemaError("rule generator malformed: %s" % err)
    raise SchemaError("unknown generator kind %r" % (body.get("kind"),))


# canonical JSON text of a JSON value: sorted keys, compact separators,
# ASCII; values taken from input (ids, points, rule bodies) are written
# with it, so their escaping is the JSON encoder's
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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
    in plan order."""
    return tuple('{"blocks":%s,"target":%s,"tensor":' % (_ENCODE(rho), _ints(subset))
                 for subset, rho in cube_plan(n).keys)


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
        return _gauge_text(value, "gauge", {},
                           '"format_version":%d,"kind":"gauge",' % FORMAT_VERSION)
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


def parse_json_bytes(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ParseError("input is not UTF-8: %s" % err, position=err.start)
    except json.JSONDecodeError as err:
        raise ParseError("invalid JSON at offset %d: %s" % (err.pos, err.msg),
                         position=err.pos)


def parse(data):
    """Parse bytes into the object named by their ``kind`` field."""
    obj = parse_json_bytes(data)
    if not isinstance(obj, dict):
        raise SchemaError("top-level JSON value must be an object")
    kind = obj.get("kind")
    if kind == "atlas":
        return atlas_from_json(obj)
    if kind == "element":
        return element_from_json(obj)
    if kind == "gauge":
        _check_header(obj, "gauge", "a gauge")
        return gauge_from_json(obj)
    if kind == "generator":
        return generator_from_json(obj)
    if kind == "morphism":
        raise SchemaError(
            "morphism data must be bound with morphism_from_json and its presentations")
    raise SchemaError("unknown kind %r" % (kind,))
