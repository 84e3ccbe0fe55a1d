"""The recursive decomposition builder, kept as a test oracle.

The library reads every splitting and decomposition of the cores of an
atlas off one table of splitting tops (``split.DecompositionBuilder``),
and ``split.splitting_to_decomposition`` seeds its inputs into that
table.  This module is the builder it replaces: one core view,
splitting and decomposition object per key, each splitting pasted from
its faces' splittings and each decomposition assembled (``_assemble``)
from its splitting and the decompositions of its codimension-one cores,
routing every component to the one source the element chain would
consult for it (``_route``).  All are memoized per key in a
``RecursiveCache``.  It exposes the same ``splitting(key)``,
``decomposition(key)`` and ``object(key)``, plus ``subkey`` and
``merged_key``, and takes splittings seeded into ``cache.splittings``
directly.
"""

from fractions import Fraction
from itertools import product

from mvb.atlas import associated_decomposed, associated_vacant
from mvb.bundle import morphism_from_canonical
from mvb.cores import partition_core
from mvb.cubecat import IndexSet, Partition, _memoized, cube_plan, merge_blocks
from mvb.errors import InvalidInput
from mvb.exactlin import MultiTensor, unit_vector
from mvb.gauge import Gauge, _shaped_gauge, _trusted_gauge, identity_gauge
from mvb.split import (
    STRATEGIES,
    Decomposition,
    Splitting,
    _conjugated_top,
    _core_positions,
    _pairs,
    _top_key,
)


def _route(rho):
    """The pair whose core decomposition carries the (T, rho) component,
    or None when the splitting carries it.

    In chain order the first pair inside a block is its two least axes;
    the chain handles rho at the last such stage over its blocks, and
    there the already-handled part has a zero T-coordinate.  Every block
    of rho contains or misses each head, so compatible core
    decompositions all carry this component alike; the last head is the
    one the chain consults.
    """
    heads = [IndexSet(b[:2]) for b in rho if len(b) > 1]
    return max(heads, key=tuple) if heads else None


@_memoized(16)
def _routes(k):
    """``_route`` of every key of ``cube_plan(k)``, by position."""
    return tuple(_route(rho) for _, rho in cube_plan(k).keys)


def _assemble(obj, model, sigma, core_decs, base):
    """Decomposition data fixed by a splitting and the codimension-one
    core decompositions.  In the canonical chart fiber addition is
    coordinatewise, so every component is copied from the splitting or
    from the core decomposition that the chain would consult for it."""
    core_at = {mu: _core_positions((obj.n, mu)) for mu in _pairs(obj.n)}
    family = {}
    for p in base:
        can = obj.canonical_chart(p)
        own = sigma.data[(can, p)].tensors
        by_core = {mu: core_decs[mu].data[(can, p)].tensors for mu in core_at}
        family[p] = _trusted_gauge(model.dims, obj.dims, tuple(
            own[at] if mu is None else by_core[mu][core_at[mu][at]]
            for at, mu in enumerate(_routes(obj.n))))
    return morphism_from_canonical(model, obj, family).data


def _top_in_chart(morphism, chart, point):
    """The top component of a morphism's gauge in one chart.  In the
    canonical chart it is read by position, ``None`` when it is zero; in
    any other chart it is conjugated from there without deriving the
    whole gauge, a zero tensor when it is zero."""
    can = morphism.source.canonical_chart(point)
    g = morphism.data[(can, point)]
    if chart == can:
        return g.tensors[cube_plan(g.n).top]
    return _conjugated_top(morphism.target.transition(chart, can, point), g,
                           morphism.source.transition(can, chart, point))


class RecursiveCache:
    """Objects, splittings and decompositions per builder key."""

    def __init__(self):
        self.objects = {}
        self.splittings = {}
        self.decompositions = {}


class RecursiveBuilder:
    """Shared-cache recursion over the coarsening lattice of one atlas.

    A key is a partition of a node, the object of a key the core it
    names (``cores.partition_core``).  The top-level bundle is the key
    {1..n} in singletons; ``subkey`` picks blocks of a key (a face of
    its object) and ``merged_key`` merges some (a core of it).
    Splittings and decompositions are memoized per key in ``cache``, so
    any object reached twice is split exactly once.
    """

    def __init__(self, presentation, strategy="least-chart", theta_top=None,
                 cache=None):
        if strategy not in STRATEGIES:
            raise InvalidInput("unknown strategy %r" % (strategy,))
        self.A = presentation
        self.strategy = strategy
        self.theta_top = theta_top
        self.cache = RecursiveCache() if cache is None else cache

    def top_key(self):
        return _top_key(self.A.n)

    def object(self, key):
        objects = self.cache.objects
        if key not in objects:
            objects[key] = partition_core(self.A, key)
        return objects[key]

    def subkey(self, key, positions):
        # blocks at increasing positions keep the canonical order
        return tuple.__new__(Partition, [key[pos - 1] for pos in positions])

    def merged_key(self, key, positions):
        return merge_blocks(key, positions)

    # -- splittings ----------------------------------------------------

    def splitting(self, key):
        if key in self.cache.splittings:
            return self.cache.splittings[key]
        obj = self.object(key)
        vac = associated_vacant(obj)
        if obj.n <= 1:
            inclusion = identity_gauge(vac.dims, obj.dims)
            data = {(c.id, p): inclusion for c in obj.charts for p in c.domain}
        else:
            keys = cube_plan(obj.n).keys
            faces = [
                (at, self.splitting(self.subkey(key, keys[at][0])))
                for at in cube_plan(obj.n).singletons if 1 < len(keys[at][0]) < obj.n
            ]
            # the hook gives the top slot of the presentation itself only
            hook = self.theta_top if key == self.top_key() else None
            family = {p: self._paste(obj, vac, faces, p, hook) for p in self.A.base}
            data = morphism_from_canonical(vac, obj, family).data
        morphism = Splitting(vac, obj, data)
        self.cache.splittings[key] = morphism
        return morphism

    def _chart_splitting(self, obj, vac, faces, chart, point, hook):
        """The splitting gauge local to one chart: identity singleton parts,
        the cached sub-splitting's top in this chart on every proper face,
        and in the top slot ``hook`` read on basis tuples (zero without
        it).  Only the hook's tensor is new, so only a gauge holding one
        is checked."""
        top = cube_plan(obj.n).top
        # the singleton keys come first, in axis order
        tensors = [MultiTensor.identity(shape[0]) for shape in obj.dims.shapes[:obj.n]]
        tensors += [None] * (top + 1 - obj.n)
        for at, sub in faces:
            tensors[at] = _top_in_chart(sub, chart, point)
        if hook is not None:
            in_dims = vac.dims.shapes[top][1]
            d_top = obj.dims.shapes[top][0]
            bases = product(*([unit_vector(d, j) for j in range(d)] for d in in_dims))
            values = [hook(chart, point, list(args)) for args in bases]
            wrong = next((v for v in values if len(v) != d_top), None)
            if wrong is not None:
                raise InvalidInput("theta_top at chart %r, point %r returned %d values,"
                                   " expected %d" % (chart, point, len(wrong), d_top))
            tensors[top] = MultiTensor(
                d_top, in_dims, [v[i0] for i0 in range(d_top) for v in values])
            return Gauge.from_tensors(vac.dims, obj.dims, tensors)
        return _shaped_gauge(vac.dims, obj.dims, tensors)

    def _paste(self, obj, vac, faces, point, hook):
        """The splitting gauge at a point in the canonical chart.

        Every chart's local splitting is conjugated into the canonical
        chart by the object's and the vacant model's transitions; the
        top components are averaged with the strategy's weights.  The
        canonical chart's own transitions are identities.  Only the top
        component of each conjugate is composed (``_conjugated_top``),
        and so are the face tops of the other charts' local splittings.
        """
        can = obj.canonical_chart(point)
        own = self._chart_splitting(obj, vac, faces, can, point, hook)
        others = [] if self.strategy == "least-chart" else [
            c for c in sorted(obj.charts_at(point)) if c != can]
        if not others:
            return own
        top = cube_plan(obj.n).top
        total = own.tensors[top]
        for c in others:
            local = self._chart_splitting(obj, vac, faces, c, point, hook)
            conjugated = _conjugated_top(
                obj.transition(can, c, point), local, vac.transition(c, can, point))
            total = conjugated if total is None else total.plus(conjugated)
        tensors = list(own.tensors)
        tensors[top] = total.scaled(Fraction(1, len(others) + 1))
        return _shaped_gauge(vac.dims, obj.dims, tensors)

    # -- decompositions --------------------------------------------------

    def decomposition(self, key):
        if key in self.cache.decompositions:
            return self.cache.decompositions[key]
        obj = self.object(key)
        # every component of a one-fold gauge is one-block
        model = obj if obj.n <= 1 else associated_decomposed(obj)
        if obj.n <= 1:
            data = {
                (c.id, p): identity_gauge(obj.dims)
                for c in obj.charts for p in c.domain
            }
        else:
            sigma = self.splitting(key)
            core_decs = {
                mu: self.decomposition(self.merged_key(key, mu))
                for mu in _pairs(obj.n)
            }
            data = _assemble(obj, model, sigma, core_decs, self.A.base)
        morphism = Decomposition(model, obj, data)
        self.cache.decompositions[key] = morphism
        return morphism
