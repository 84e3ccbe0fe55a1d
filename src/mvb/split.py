"""Splittings, decompositions, the statomorphism torsor, normalization.

The pipeline follows the constructive existence proofs:

* Splittings are built by recursion over the cube and pasted from gauge
  components.  All proper faces are split first (compatibly, because
  every face splitting is fetched from a shared cache).  Per chart and
  point a local splitting gauge then has identity singleton parts, the
  face splittings' top components on the proper faces, and in the top
  slot the ``theta_top`` hook read on basis tuples (at the top of the
  presentation itself), or zero without one: over a discrete base the
  zero-top right inverse of the pullback projection is already
  multilinear in its own chart.  The local gauges are pasted with a
  partition of unity over the finite base: each is conjugated into the
  canonical chart, by the object's transition after it and the vacant
  model's before it, and the top components are averaged with the
  strategy's weights.  Only the top component of a
  conjugate is composed (``gauge._compose_at``), and no element is
  evaluated.  Splittings and decompositions are stated in the canonical
  charts; their other charts are derived when first read (see
  ``bundle.morphism_from_canonical``), which under least-chart happens
  only for the charts a caller reads.

* A splitting plus compatible decompositions of the codimension-one
  cores determines a unique decomposition.  The chain construction
  handles one pair of merged axes at a time, writing each element as a
  sum of an already-handled part and a core part.  In the canonical
  chart fiber addition is coordinatewise, so each component of the
  result is routed rather than evaluated: all-singleton components come
  from the splitting, every other one from the core decomposition at
  the last chain stage whose pair heads one of its blocks, reindexed
  onto the merged cube.  That reindexing, and the keys on which
  ``check_compatibility`` compares a core with the splitting or with
  another core, are ``cubecat.ambient_positions`` inverted; it depends
  only on the number of blocks of the object.  Face restrictions of the
  output agree with the construction on faces by uniqueness rather than
  by bookkeeping.

* Full decomposition recurses over coarsenings of the axis partition.
  Every object that appears (a core of a face, a face of a core, an
  intersection of cores) is identified by its block partition, whose
  ground is its ambient node, and split exactly once; this sharing is
  what makes the staged core decompositions compatible.  The other way,
  a decomposition restricts to its cores by
  ``cores.partition_core_morphism``.
"""

from fractions import Fraction
from itertools import product
from types import MappingProxyType

from .atlas import (
    AtlasPresentation,
    associated_decomposed,
    associated_vacant,
    validate,
)
from .bundle import BundleMorphism, morphism_from_canonical
from .cores import partition_core, partition_core_morphism, pullback
from .cubecat import (
    IndexSet,
    Partition,
    _memoized,
    ambient_positions,
    cube_plan,
    full_set,
    merge_blocks,
    nonempty_subsets,
)
from .errors import InvalidInput, SemanticError
from .exactlin import MultiTensor, unit_vector
from .gauge import Gauge, _compose_at, _shaped_gauge, _trusted_gauge, identity_gauge

STRATEGIES = ("least-chart", "uniform-average")


class Splitting(BundleMorphism):
    """A monomorphism from the vacant model, identity on singleton slots."""


class Decomposition(BundleMorphism):
    """An isomorphism from the decomposed model, identity on every building slot."""


def is_splitting(morphism):
    """Naturality plus identity singleton components, checked exactly."""
    singles = [key for key in cube_plan(morphism.source.n).keys if len(key[0]) == 1]
    return morphism.is_natural() and all(
        g.components[key].is_identity() for g in morphism.data.values() for key in singles)


def is_decomposition(morphism):
    """Naturality and identity building components, checked exactly; the
    latter make every gauge, so the morphism, fiberwise bijective."""
    linear = [key for key in cube_plan(morphism.source.n).keys if len(key[1]) == 1]
    return morphism.is_natural() and all(
        g.components[key].is_identity() for g in morphism.data.values() for key in linear)


@_memoized(16)
def _top_key(k):
    """The key of the whole k-cube: {1..k} in singleton blocks."""
    return Partition([[i] for i in full_set(k)])


def _pairs(k):
    """Two-element axis sets in chain order."""
    return sorted((s for s in nonempty_subsets(full_set(k)) if len(s) == 2), key=tuple)


@_memoized(256)
def _merged(k_and_mu):
    """For ``(k, mu)``, the partition of {1..k} merging the pair ``mu``:
    the blocks of the ``mu``-core of a k-cube object."""
    return merge_blocks(_top_key(k_and_mu[0]), k_and_mu[1])


@_memoized(256)
def _core_positions(k_and_mu):
    """For ``(k, mu)``, read-only: per position in ``cube_plan(k)`` of a
    key the ``mu``-core covers (every block a union of merged blocks),
    the position of the core's own key in ``cube_plan(k - 1)``."""
    ambient = ambient_positions((k_and_mu[0], _merged(k_and_mu)))
    return MappingProxyType({at: core_at for core_at, at in enumerate(ambient)})


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


def _conjugated_top(outer, g, inner):
    """The top component of ``outer . g . inner``.

    Only that key is composed: its terms read ``g . inner`` on the
    all-singleton keys alone, so those are the only inner keys composed.
    """
    plan = cube_plan(g.n)
    top_at = plan.top
    right = _trusted_gauge(inner.source_dims, g.target_dims,
                           _compose_at(g, inner, plan.singletons))
    tensor = _compose_at(outer, right, [top_at])[top_at]
    if tensor is None:
        return MultiTensor.zeros(outer.target_dims.shapes[top_at][0],
                                 inner.source_dims.shapes[top_at][1])
    return tensor


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


def splitting_top(morphism, chart, point):
    """``_top_in_chart`` as a tensor in every chart, a zero one for a
    zero top."""
    top = _top_in_chart(morphism, chart, point)
    if top is None:
        return MultiTensor.zeros(morphism.target.dims.shapes[-1][0],
                                 morphism.source.dims.shapes[-1][1])
    return top


class BuilderCache:
    """Objects, splittings and decompositions per builder key.

    Builders handed the same cache share its entries: a tower shares one
    across its levels, and a caller may seed a splitting before asking
    for the decomposition it determines.
    """

    def __init__(self):
        self.objects = {}
        self.splittings = {}
        self.decompositions = {}


class DecompositionBuilder:
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
        self.cache = BuilderCache() if cache is None else cache

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


def find_splitting(presentation, strategy="least-chart", theta_top=None):
    """A splitting of a valid presentation, built by the face recursion.

    ``theta_top(chart, point, args)``, when given, returns the top-slot
    value of a chart-local right inverse on one vector per singleton
    slot.  It is read on basis tuples only: the splitting uses the
    multilinear map with those values, which is the hook itself when the
    hook is multilinear.  It sets the top slot of the presentation itself;
    the splittings of its faces keep a zero top.  A value of another
    length than the top fiber dimension is an ``InvalidInput``.
    """
    _require_valid(presentation)
    builder = DecompositionBuilder(presentation, strategy, theta_top=theta_top)
    return builder.splitting(builder.top_key())


def _require_valid(presentation):
    report = validate(presentation)
    if not report.valid:
        raise SemanticError("presentation does not validate: %r" % (report,))


def decompositions(presentation, strategies):
    """One decomposition of a valid presentation per strategy, via the
    staged pipeline, validated once; the strategies share each key's core."""
    _require_valid(presentation)
    builders = [DecompositionBuilder(presentation, strategy) for strategy in strategies]
    for builder in builders[1:]:
        builder.cache.objects = builders[0].cache.objects
    return [builder.decomposition(builder.top_key()) for builder in builders]


def decompose(presentation, strategy="least-chart"):
    """A decomposition of a valid presentation via the staged pipeline."""
    return decompositions(presentation, [strategy])[0]


def check_compatibility(presentation, sigma, core_decs):
    """Verify the intersection conditions between a splitting and the
    codimension-one core decompositions.

    The core decomposition over each merged pair must restrict to the
    splitting on the all-singleton keys the core covers (the vacant
    slots away from the pair), and any two core decompositions must
    agree on the keys both cores cover.  Both are exact equalities of
    components, in every chart: an element supported on disjoint slots
    feeds exactly one partition of each target.  Raises with the
    violated intersection on failure.
    """
    a = presentation
    n = a.n
    pairs = _pairs(n)
    for mu in pairs:
        if mu not in core_decs:
            raise InvalidInput("missing core decomposition at %s" % (list(mu),))
    core_at = {mu: _core_positions((n, mu)) for mu in pairs}
    locations = [(c.id, p) for c in a.charts for p in c.domain]

    def core_component(mu, location, at):
        return core_decs[mu].data[location].tensors[core_at[mu][at]]

    for mu in pairs:
        singles = [at for at in cube_plan(n).singletons if at in core_at[mu]]
        for location in locations:
            g = sigma.data[location]
            if any(core_component(mu, location, at) != g.tensors[at]
                   for at in singles):
                raise SemanticError(
                    "core decomposition at %s violates the splitting" % (list(mu),))
    for idx, mu in enumerate(pairs):
        for nu in pairs[idx + 1:]:
            shared = core_at[mu].keys() & core_at[nu].keys()
            for location in locations:
                if any(core_component(mu, location, at)
                       != core_component(nu, location, at) for at in shared):
                    raise SemanticError(
                        "core decompositions at %s and %s disagree"
                        % (list(mu), list(nu)))
    return True


def splitting_to_decomposition(presentation, sigma, core_decs):
    """The unique decomposition restricting to the given splitting and
    codimension-one core decompositions.

    ``core_decs`` maps each two-element axis set to a decomposition of
    the merged-axes core.  Compatibility is a checked precondition.
    """
    a = presentation
    core_decs = {IndexSet(mu): dec for mu, dec in core_decs.items()}
    check_compatibility(a, sigma, core_decs)
    obj = partition_core(a, _top_key(a.n))
    model = associated_decomposed(obj)
    return Decomposition(model, obj, _assemble(obj, model, sigma, core_decs, a.base))


def extract_splitting(presentation, decomposition):
    """The splitting induced by a decomposition: compose with the vacant
    inclusion, i.e. keep the all-singleton components."""
    a = presentation
    vac = associated_vacant(a)
    singles = set(cube_plan(a.n).singletons)
    return Splitting(vac, a, {
        location: Gauge.from_tensors(vac.dims, a.dims, [
            tensor if at in singles else None for at, tensor in enumerate(g.tensors)])
        for location, g in decomposition.data.items()})


def extract_core_decompositions(decomposition):
    """Decompositions of the codimension-one cores, by restriction."""
    n = decomposition.target.n
    return {mu: partition_core_morphism(decomposition, _merged((n, mu)))
            for mu in _pairs(n)}


def torsor_statomorphism(dec_a, dec_b):
    """The unique statomorphism translating one decomposition into the
    other: the inverse of the first after the second."""
    tau = dec_a.invert().compose(dec_b)
    for g in tau.data.values():
        if not g.is_statomorphism():
            raise SemanticError("decompositions do not differ by a statomorphism")
    return tau


def act_by_statomorphism(dec, tau):
    """Right action of a statomorphism on a decomposition."""
    composed = dec.compose(tau)
    return Decomposition(dec.source, dec.target, composed.data)


def normalize_atlas(presentation, decomposition):
    """Conjugate the transitions by the decomposition gauges.

    The result has zero components on every non-trivial partition, so
    it equals the associated decomposed model; the original and the
    normalized presentation are intertwined by the per-chart gauges.
    """
    a = presentation
    transitions = {}
    for (dst, src, p), g in a.transitions.items():
        conj = decomposition.data[(dst, p)].invert().compose(g).compose(
            decomposition.data[(src, p)])
        if not conj.is_block_diagonal():
            raise SemanticError(
                "normalized transition %r <- %r at %r is not block-diagonal"
                % (dst, src, p))
        transitions[(dst, src, p)] = conj
    return AtlasPresentation(a.n, a.dims, a.base, a.charts, transitions,
                             a.axis_blocks)


def split_pullback(presentation, strategy="least-chart"):
    """A right inverse of the pullback projection splitting every
    ultracore sequence at once, assembled from one decomposition."""
    a = presentation
    dec = decompose(a, strategy)
    pb = pullback(a)
    p_pres = pb.presentation

    inclusion = identity_gauge(p_pres.dims, dec.source.dims)
    data = {}
    for (chart, p), g in dec.data.items():
        data[(chart, p)] = g.compose(inclusion).compose(
            g.trimmed(p_pres.dims).invert())
    morphism = BundleMorphism(p_pres, a, data)

    composite = pb.projection.compose(morphism)
    ident = identity_gauge(p_pres.dims)
    for g in composite.data.values():
        if g != ident:
            raise SemanticError("pullback splitting is not a section")
    return morphism
