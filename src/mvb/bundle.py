"""Elements, fiber operations, morphisms, and functorial constructions.

An element is a chart-relative coordinate tuple; equality is decided by
transporting to the canonical (least) chart of its base point, which
gives the quotient semantics a normal form.  Within a fixed chart every
fiber operation is the coordinatewise one; all twisting lives in the
transitions.

A morphism given by one gauge per point in the canonical chart
(``morphism_from_canonical``) keeps that family as given and computes
its gauge in any other chart on first read, by naturality; a chart
that is never read is never composed.
"""

from collections.abc import Mapping
from fractions import Fraction
from itertools import product
from math import prod

from .atlas import AtlasPresentation, decomposed
from .cubecat import (
    IndexSet,
    Partition,
    cube_plan,
    full_set,
    nonempty_subsets,
    partitions,
    subsets,
)
from .errors import DimensionMismatch, InvalidInput
from .exactlin import MultiTensor, rank, vec_add, vec_scale, zero_vector
from .gauge import DimAssignment, Gauge


class BundleElement:
    """A point of a node, in the coordinates of one chart."""

    def __init__(self, node, chart, point, components):
        self.node = IndexSet(node)
        self.chart = str(chart)
        self.point = str(point)
        comps = {}
        for key, vec in components.items():
            key = IndexSet(key)
            if not key or not key.issubset(self.node):
                raise InvalidInput("component %s outside node %s" % (list(key), list(self.node)))
            comps[key] = tuple(Fraction(x) for x in vec)
        for key in nonempty_subsets(self.node):
            if key not in comps:
                raise InvalidInput("missing component at %s" % (list(key),))
        self.components = comps

    def __eq__(self, other):
        """Chart-literal equality; use ``elements_equal`` for quotient equality."""
        return (
            isinstance(other, BundleElement)
            and self.node == other.node
            and self.chart == other.chart
            and self.point == other.point
            and self.components == other.components
        )

    def __repr__(self):
        return "BundleElement(node=%s, chart=%r, point=%r)" % (
            list(self.node), self.chart, self.point,
        )


def element(presentation, node, chart, point, components):
    node = IndexSet(node)
    if not node.issubset(full_set(presentation.n)):
        raise InvalidInput("node outside the cube")
    if point not in presentation.chart(chart).domain:
        raise InvalidInput("point %r outside chart %r" % (point, chart))
    e = BundleElement(node, chart, point, components)
    for key, vec in e.components.items():
        if len(vec) != presentation.dims.dim(key):
            raise DimensionMismatch(
                "component %s has length %d, expected %d"
                % (list(key), len(vec), presentation.dims.dim(key))
            )
    return e


def zero_element(presentation, node, point, chart=None):
    chart = chart or presentation.canonical_chart(point)
    comps = {
        s: zero_vector(presentation.dims.dim(s))
        for s in nonempty_subsets(IndexSet(node))
    }
    return element(presentation, node, chart, point, comps)


def transport(presentation, elem, to_chart):
    """Rewrite an element in another chart containing its point."""
    if elem.chart == to_chart:
        return elem
    g = presentation.transition(to_chart, elem.chart, elem.point)
    out = g.evaluate(elem.components)
    return element(presentation, elem.node, to_chart, elem.point, out)


def canonicalize(presentation, elem):
    return transport(presentation, elem, presentation.canonical_chart(elem.point))


def elements_equal(presentation, e1, e2):
    if e1.node != e2.node or e1.point != e2.point:
        return False
    return canonicalize(presentation, e1) == canonicalize(presentation, e2)


def project(presentation, elem, axis):
    """Drop every component containing the axis."""
    if axis not in elem.node:
        raise InvalidInput("axis %d not in node %s" % (axis, list(elem.node)))
    node = elem.node.difference([axis])
    comps = {k: v for k, v in elem.components.items() if axis not in k}
    return element(presentation, node, elem.chart, elem.point, comps)


def project_to(presentation, elem, node):
    out = elem
    for axis in elem.node.difference(node):
        out = project(presentation, out, axis)
    return out


def _common_chart(presentation, e1, e2):
    if e1.point != e2.point:
        raise InvalidInput("elements over different base points")
    if e1.chart == e2.chart:
        return e1, e2
    chart = presentation.canonical_chart(e1.point)
    return transport(presentation, e1, chart), transport(presentation, e2, chart)


def add(presentation, e1, e2, axis):
    """Fiberwise sum in the bundle structure over the axis-dropped node."""
    if e1.node != e2.node:
        raise InvalidInput("nodes differ")
    if axis not in e1.node:
        raise InvalidInput("axis %d not in node" % axis)
    e1, e2 = _common_chart(presentation, e1, e2)
    for key in e1.components:
        if axis not in key and e1.components[key] != e2.components[key]:
            raise InvalidInput(
                "fiber mismatch over axis %d at component %s" % (axis, list(key))
            )
    comps = {
        k: (vec_add(v, e2.components[k]) if axis in k else v)
        for k, v in e1.components.items()
    }
    return element(presentation, e1.node, e1.chart, e1.point, comps)


def scale(presentation, scalar, elem, axis):
    if axis not in elem.node:
        raise InvalidInput("axis %d not in node" % axis)
    comps = {
        k: (vec_scale(scalar, v) if axis in k else v)
        for k, v in elem.components.items()
    }
    return element(presentation, elem.node, elem.chart, elem.point, comps)


def zero_lift(presentation, elem, node):
    """Extend by zero slots; all factorizations through intermediate
    zero sections agree with this in any chart."""
    node = IndexSet(node)
    if not elem.node.issubset(node):
        raise InvalidInput("can only lift to a supernode")
    comps = dict(elem.components)
    for key in nonempty_subsets(node):
        if key not in comps:
            comps[key] = zero_vector(presentation.dims.dim(key))
    return element(presentation, node, elem.chart, elem.point, comps)


def _checked_shape(g, source, target, chart, point):
    if g.source_dims != source.dims or g.target_dims != target.dims:
        raise DimensionMismatch("morphism data shape mismatch at (%r, %r)" % (chart, point))
    return g


class _NaturalData(Mapping):
    """Read-only (chart, point) -> gauge data of a morphism given per point
    in the canonical chart.

    The canonical entries are the family's gauges themselves.  Every
    other entry is derived on first access as T(c<-can) . g . S(can<-c)
    and kept; each entry's shape is checked when it is stored.  Keys
    follow the source charts in order, then each chart's domain.
    """

    def __init__(self, source, target, family):
        self.source = source
        self.target = target
        self._gauges = {}
        for c in source.charts:
            for p in c.domain:
                g = None
                if c.id == source.canonical_chart(p):
                    g = _checked_shape(family[p], source, target, c.id, p)
                self._gauges[(c.id, p)] = g

    def __getitem__(self, key):
        g = self._gauges[key]
        if g is None:
            chart, p = key
            can = self.source.canonical_chart(p)
            g = self.target.transition(chart, can, p).compose(
                self._gauges[(can, p)]).compose(self.source.transition(can, chart, p))
            self._gauges[key] = _checked_shape(g, self.source, self.target, chart, p)
        return g

    def __contains__(self, key):
        return key in self._gauges

    def __iter__(self):
        return iter(self._gauges)

    def __len__(self):
        return len(self._gauges)


class BundleMorphism:
    """A natural transformation stored as per-chart per-point gauges.

    Source and target share the base and the chart system; ``data``
    maps every (chart, point) with the point in the chart domain to a
    gauge from source dims to target dims expressing the morphism in
    that chart on both sides.  Data from ``morphism_from_canonical`` is
    kept as the read-only mapping it returns, whose non-canonical
    gauges are computed on first read; any other mapping is copied into
    a dict and checked entry by entry.
    """

    def __init__(self, source, target, data):
        if not source.same_chart_system(target):
            raise InvalidInput("morphisms need a shared base and chart system")
        self.source = source
        self.target = target
        if (isinstance(data, _NaturalData) and data.source.same_chart_system(source)
                and data.source.dims == source.dims and data.target.dims == target.dims):
            self.data = data
            return
        self.data = dict(data)
        for c in source.charts:
            for p in c.domain:
                g = self.data.get((c.id, p))
                if g is None:
                    raise InvalidInput("missing morphism data at (%r, %r)" % (c.id, p))
                _checked_shape(g, source, target, c.id, p)

    def apply(self, elem):
        g = self.data[(elem.chart, elem.point)]
        out = g.evaluate(elem.components)
        return element(self.target, elem.node, elem.chart, elem.point, out)

    def is_natural(self):
        """Target transition after data equals data after source transition."""
        for p in self.source.base:
            at = self.source.charts_at(p)
            for ca in at:
                for cb in at:
                    if (cb == ca and self.target.transition(ca, ca, p).is_identity()
                            and self.source.transition(ca, ca, p).is_identity()):
                        continue  # both sides are data[(ca, p)]
                    left = self.target.transition(cb, ca, p).compose(self.data[(ca, p)])
                    right = self.data[(cb, p)].compose(self.source.transition(cb, ca, p))
                    if left != right:
                        return False
        return True

    def compose(self, other):
        if other.target is not self.source and not (
            other.target.same_chart_system(self.source)
            and other.target.dims == self.source.dims
        ):
            raise InvalidInput("morphisms do not chain")
        data = {
            key: g.compose(other.data[key]) for key, g in self.data.items()
        }
        return BundleMorphism(other.source, self.target, data)

    def invert(self):
        data = {key: g.invert() for key, g in self.data.items()}
        return BundleMorphism(self.target, self.source, data)

    def is_fiberwise_bijective(self):
        for g in self.data.values():
            for subset in nonempty_subsets(full_set(self.source.n)):
                lin = g.linear_part(subset)
                if lin.out_dim != lin.in_dims[0] or rank(lin) != lin.out_dim:
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, BundleMorphism)
            and self.data == other.data
            and self.source.dims == other.source.dims
            and self.target.dims == other.target.dims
        )

    def __repr__(self):
        return "BundleMorphism(n=%d, entries=%d)" % (self.source.n, len(self.data))


def morphism_from_canonical(source, target, family):
    """Extend per-point canonical-chart gauges to all charts by naturality.

    Self-transitions of a valid presentation are identities, so the
    canonical chart keeps its gauge as given.  The gauge in any other
    chart c is T(c<-can) . g . S(can<-c); it is computed when ``data``
    is first read there, then kept.
    """
    return BundleMorphism(source, target, _NaturalData(source, target, family))


def _grouped_offsets(ambient_dims, core_part, frozen_set):
    """Offsets of the frozen-slot summands inside a grouped dimension."""
    offsets = {}
    total = 0
    for sub in subsets(frozen_set):
        offsets[sub] = total
        total += ambient_dims.dim(core_part.union(sub))
    return offsets, total


def face(presentation, outer, inner):
    """The sub-bundle on nodes between ``inner`` and ``outer``.

    With ``inner`` empty this is the literal restriction to the
    sub-cube: slots and transitions indexed by subsets of ``outer``.
    With ``inner`` nonempty the face is an (#outer - #inner)-fold
    bundle over the inner node, whose fiber coordinates along the free
    axes group every ambient slot meeting them; the inner coordinates
    are frozen parameters, modeled here along the zero section, so all
    transition terms fed by purely inner slots drop out.
    """
    a = presentation
    outer, inner = IndexSet(outer), IndexSet(inner)
    if not inner.issubset(outer) or not outer.issubset(full_set(a.n)):
        raise InvalidInput("need inner <= outer <= full cube")
    free = sorted(outer.difference(inner))
    m = len(free)
    unlabel = {pos + 1: axis for pos, axis in enumerate(free)}
    if m == 0:
        dims0 = DimAssignment(0, {})
        empty = Gauge(dims0, dims0, {})
        transitions = {key: empty for key in a.transitions}
        return AtlasPresentation(0, dims0, a.base, a.charts, transitions)

    frozen_subsets = subsets(inner)

    new_dims = {}
    for nu in nonempty_subsets(full_set(m)):
        core_part = IndexSet(unlabel[i] for i in nu)
        new_dims[nu] = sum(a.dims.dim(core_part.union(s)) for s in frozen_subsets)
    face_dims = DimAssignment(m, new_dims)

    def face_gauge(ambient):
        components = {}
        for nu in nonempty_subsets(full_set(m)):
            target_core = IndexSet(unlabel[i] for i in nu)
            out_offsets, out_dim = _grouped_offsets(a.dims, target_core, inner)
            for sigma in partitions(nu):
                blocks_core = [IndexSet(unlabel[i] for i in b) for b in sigma]
                in_offsets = []
                in_dims = []
                for bc in blocks_core:
                    offs, total = _grouped_offsets(a.dims, bc, inner)
                    in_offsets.append(offs)
                    in_dims.append(total)
                entries = [Fraction(0)] * (out_dim * prod(in_dims))
                for out_sub in frozen_subsets:
                    target_full = target_core.union(out_sub)
                    d_out = a.dims.dim(target_full)
                    if d_out == 0:
                        continue
                    for in_subs in _disjoint_covers(out_sub, len(sigma), frozen_subsets):
                        blocks_full = [bc.union(s) for bc, s in zip(blocks_core, in_subs)]
                        amb = ambient.components[(target_full, Partition(blocks_full))]
                        order = list(Partition(blocks_full))
                        slot_of = [order.index(b) for b in blocks_full]
                        dims_full = [a.dims.dim(b) for b in blocks_full]
                        if any(d == 0 for d in dims_full):
                            continue
                        for o in range(d_out):
                            for idx in product(*map(range, dims_full)):
                                amb_idx = [0] * len(blocks_full)
                                for pos, b in enumerate(idx):
                                    amb_idx[slot_of[pos]] = b
                                val = amb.entry(o, amb_idx)
                                if not val:
                                    continue
                                flat = out_offsets[out_sub] + o
                                for pos in range(len(sigma)):
                                    flat = flat * in_dims[pos] + (
                                        in_offsets[pos][in_subs[pos]] + idx[pos])
                                entries[flat] += val
                components[(nu, sigma)] = MultiTensor(out_dim, in_dims, entries)
        return Gauge(face_dims, face_dims, components)

    transitions = {key: face_gauge(g) for key, g in a.transitions.items()}
    return AtlasPresentation(
        m, face_dims, a.base, a.charts, transitions,
        axis_blocks=tuple(IndexSet([axis]) for axis in free),
    )


def _disjoint_covers(target, count, pool):
    """All assignments of ``count`` disjoint pool members covering target."""
    if count == 0:
        if not target:
            yield ()
        return
    for first in pool:
        if first.issubset(target):
            rest = target.difference(first)
            for tail in _disjoint_covers(rest, count - 1, pool):
                yield (first,) + tail


def hom_dims(e_dims, f_dims):
    """Slot dimensions of the morphism bundle: one summand per partition."""
    if e_dims.n != f_dims.n:
        raise DimensionMismatch("cube dimensions differ")
    out = {}
    for subset in nonempty_subsets(full_set(e_dims.n)):
        total = 0
        for rho in partitions(subset):
            term = f_dims.dim(subset)
            for block in rho:
                term *= e_dims.dim(block)
            total += term
        out[subset] = total
    return DimAssignment(e_dims.n, out)


def hom_bundle(e_pres, f_pres):
    """The bundle of pointwise morphisms, emitted in decomposed form.

    Each slot at J concatenates, over the partitions of J in
    enumeration order, the flattened component tensors of a pointwise
    morphism expressed in the canonical charts of its base point.
    """
    if e_pres.base != f_pres.base:
        raise InvalidInput("morphism bundle needs a common base")
    if e_pres.n != f_pres.n:
        raise InvalidInput("morphism bundle needs equal cube dimension")
    return decomposed(hom_dims(e_pres.dims, f_pres.dims), e_pres.base)


def tangent_prolongation(presentation):
    """One more cube axis carrying the fiber-derivative slots.

    Over a discrete base the derivative of a transition in the base
    directions vanishes, so the lifted transition repeats each component
    once per choice of the block that absorbs the new axis; the new
    singleton slot has dimension zero.  This limitation is inherent to
    locally constant data and is part of the model.
    """
    a = presentation
    n1 = a.n + 1
    new_axis = n1
    dims = {}
    for subset in nonempty_subsets(full_set(n1)):
        if new_axis not in subset:
            dims[subset] = a.dims.dim(subset)
        elif len(subset) == 1:
            dims[subset] = 0
        else:
            dims[subset] = a.dims.dim(subset.difference([new_axis]))
    t_dims = DimAssignment(n1, dims)

    def lift_gauge(g):
        comps = {}
        for (subset, rho), tensor in zip(cube_plan(a.n).keys, g.tensors):
            if tensor is None:
                continue
            comps[(subset, rho)] = tensor
            for pos in range(len(rho)):
                new_blocks = [
                    b if i != pos else b.union([new_axis]) for i, b in enumerate(rho)
                ]
                comps[(subset.union([new_axis]), Partition(new_blocks))] = tensor
        return Gauge(t_dims, t_dims, comps)

    transitions = {key: lift_gauge(g) for key, g in a.transitions.items()}
    return AtlasPresentation(n1, t_dims, a.base, a.charts, transitions)
