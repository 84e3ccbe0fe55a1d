"""Splittings, decompositions, the statomorphism torsor, normalization.

The pipeline follows the constructive existence proofs:

* A splitting of a core is its faces' splittings plus a top component.
  Per chart and point the local splitting gauge has identity singleton
  parts, the faces' tops in that chart, and in the top slot the
  ``theta_top`` hook read on basis tuples (at the top of the
  presentation itself), or zero without one: over a discrete base the
  zero-top right inverse of the pullback projection is already
  multilinear in its own chart.  The local gauges are pasted with a
  partition of unity over the finite base: each is conjugated into the
  canonical chart, by the core's transition after it and its vacant
  model's before it, and the top components are averaged with the
  strategy's weights.  Only the top component of a conjugate is
  composed (``gauge._compose_at``), and no element is evaluated.

* A splitting plus compatible decompositions of the codimension-one
  cores determines a unique decomposition, a closed form over the
  lattice of cores: in the canonical chart, where fiber addition is
  coordinatewise, the component at (T, rho) is the identity on a
  one-block rho, else the top of the splitting of the core rho names.
  ``DecompositionBuilder`` reads it off one table of splitting tops per
  (core key, chart, point), a core key being the core's block partition
  over the atlas axes.  It makes each top once, by the paste in the
  canonical chart and by conjugating the key's canonical splitting
  gauge in any other, unless ``seed`` wrote it from a given splitting or
  decomposition.  Core keys do not mention the level, so a tower's
  levels share one table.  Results are stated in the canonical charts
  and derive the others when first read (``bundle.morphism_from_canonical``).
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
from .cores import _pullback_projection, partition_core, partition_core_morphism
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
from .gauge import (Gauge, _compose_at, _shaped_gauge, _trusted_gauge, diagonal_dims,
                    identity_gauge, singleton_dims)

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


def splitting_top(morphism, point):
    """The top component of a morphism's gauge in the point's canonical
    chart, read by position; a zero tensor when it is zero."""
    g = morphism.data[(morphism.source.canonical_chart(point), point)]
    top = g.tensors[cube_plan(g.n).top]
    if top is None:
        return MultiTensor.zeros(morphism.target.dims.shapes[-1][0],
                                 morphism.source.dims.shapes[-1][1])
    return top


def _named_cores(n, key):
    """Per position in the key's cube plan of two or more blocks, that
    position and the key of the core it names (``ambient_positions``)."""
    keys = cube_plan(n).keys
    return [(at, keys[i][1]) for at, i in enumerate(ambient_positions((n, key)))
            if len(keys[i][1]) > 1]


class BuilderCache:
    """Splitting tops per (core key, chart, point), and per core key the
    core views, splittings and decompositions built on them.

    Builders handed the same cache share its entries: a tower shares one
    across its levels.  Builders of other strategies share the core
    views alone, handed in as ``objects``.
    """

    def __init__(self, objects=None):
        self.tops = {}
        self.objects = {} if objects is None else objects
        self.splittings = {}
        self.decompositions = {}


class DecompositionBuilder:
    """Splittings and decompositions of the cores of one atlas, read off
    one table of splitting tops.

    A key is a partition of a node, the object of a key the core it
    names (``cores.partition_core``); the top-level bundle is the key
    {1..n} in singletons.  ``top(key, chart, point)`` is the top
    component of the key's splitting in one chart, ``None`` for a zero
    one in the canonical chart, made once per triple in ``cache.tops``.
    A splitting reads the tops of its key and of its faces; a
    decomposition reads, at every component, the top of the core the
    component's partition names.  A core view is built for a result, or
    for the transitions that uniform-average conjugates by.
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

    def seed(self, key, morphism):
        """Take ``morphism`` as the key's decomposition if it is a
        ``Decomposition``, else as its splitting, before anything reads the
        key or its cores: its canonical component at every key of two or more
        blocks (all-singleton, for a splitting) is the top of the core it names."""
        decomposes = isinstance(morphism, Decomposition)
        singles = cube_plan(len(key)).singletons
        named = [(at, core) for at, core in _named_cores(self.A.n, key)
                 if decomposes or at in singles]
        for p in self.A.base:
            can = self.A.canonical_chart(p)
            tensors = morphism.data[(can, p)].tensors
            for at, core in named:
                self.cache.tops[(core, can, p)] = tensors[at]
        (self.cache.decompositions if decomposes else self.cache.splittings)[key] = morphism

    def top(self, key, chart, point):
        entry = (key, chart, point)
        tops = self.cache.tops
        if entry not in tops:
            can = self.A.canonical_chart(point)
            if chart == can:
                tops[entry] = self._paste(key, point, can)
            else:
                obj = self.object(key)
                vac = associated_vacant(obj)
                own = self._local(key, obj, vac, can, point, self.top(key, can, point))
                tops[entry] = _conjugated_top(obj.transition(chart, can, point), own,
                                              vac.transition(can, chart, point))
        return tops[entry]

    def _local(self, key, obj, vac, chart, point, top):
        """The splitting gauge of the key's core local to one chart: identity
        singleton parts, each face's top in this chart, and ``top``."""
        plan = cube_plan(obj.n)
        tensors = [None] * len(plan.keys)
        # the singleton keys come first, in axis order
        for at, shape in enumerate(obj.dims.shapes[:obj.n]):
            tensors[at] = MultiTensor.identity(shape[0])
        for at in plan.singletons[obj.n:-1]:
            # a face's key: the key's blocks at increasing positions, in canonical order
            face = tuple.__new__(Partition, [key[pos - 1] for pos in plan.keys[at][0]])
            tensors[at] = self.top(face, chart, point)
        tensors[-1] = top
        return _shaped_gauge(vac.dims, obj.dims, tensors)

    def _hooked(self, key, chart, point):
        """The top of the key's splitting local to one chart: ``theta_top``
        read on basis tuples at the top key, zero (``None``) elsewhere."""
        if self.theta_top is None or key != self.top_key():
            return None
        obj = self.object(key)
        in_dims, d_top = associated_vacant(obj).dims.shapes[-1][1], obj.dims.shapes[-1][0]
        bases = product(*([unit_vector(d, j) for j in range(d)] for d in in_dims))
        values = [self.theta_top(chart, point, list(args)) for args in bases]
        wrong = next((v for v in values if len(v) != d_top), None)
        if wrong is not None:
            raise InvalidInput("theta_top at chart %r, point %r returned %d values,"
                               " expected %d" % (chart, point, len(wrong), d_top))
        tensor = MultiTensor(d_top, in_dims, [v[i0] for i0 in range(d_top) for v in values])
        return None if tensor.is_zero() else tensor

    def _paste(self, key, point, can):
        """The key's canonical splitting top: every chart's local top
        conjugated into the canonical chart, averaged by the strategy."""
        total = self._hooked(key, can, point)
        others = [] if self.strategy == "least-chart" else [
            c for c in sorted(self.A.charts_at(point)) if c != can]
        if not others:
            return total
        obj = self.object(key)
        vac = associated_vacant(obj)
        for c in others:
            local = self._local(key, obj, vac, c, point, self._hooked(key, c, point))
            conjugated = _conjugated_top(
                obj.transition(can, c, point), local, vac.transition(c, can, point))
            total = conjugated if total is None else total.plus(conjugated)
        total = total.scaled(Fraction(1, len(others) + 1))
        return None if total.is_zero() else total

    def splitting(self, key):
        splittings = self.cache.splittings
        if key not in splittings:
            obj = self.object(key)
            vac = associated_vacant(obj)
            if obj.n <= 1:
                inclusion = identity_gauge(vac.dims, obj.dims)
                data = {(c.id, p): inclusion for c in obj.charts for p in c.domain}
            else:
                family = {}
                for p in self.A.base:
                    can = self.A.canonical_chart(p)
                    family[p] = self._local(key, obj, vac, can, p, self.top(key, can, p))
                data = morphism_from_canonical(vac, obj, family).data
            splittings[key] = Splitting(vac, obj, data)
        return splittings[key]

    def decomposition(self, key):
        """The decomposition extending the key's splitting: in the
        canonical chart, the identity at every one-block component and
        the top of the core its partition names at every other one."""
        decompositions = self.cache.decompositions
        if key not in decompositions:
            obj = self.splitting(key).target
            model = associated_decomposed(obj)
            identity = identity_gauge(model.dims, obj.dims).tensors
            cores = _named_cores(self.A.n, key)
            family = {}
            for p in self.A.base:
                can = self.A.canonical_chart(p)
                tensors = list(identity)
                for at, core in cores:
                    tensors[at] = self.top(core, can, p)
                family[p] = _trusted_gauge(model.dims, obj.dims, tuple(tensors))
            decompositions[key] = Decomposition(
                model, obj, morphism_from_canonical(model, obj, family).data)
        return decompositions[key]


def find_splitting(presentation, strategy="least-chart", theta_top=None):
    """A splitting of a valid presentation, read off a table of tops.

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
    """One decomposition of a valid presentation per strategy, validated
    once, each read off a table of tops; the strategies share the cores."""
    _require_valid(presentation)
    objects = {}
    builders = [DecompositionBuilder(presentation, strategy, cache=BuilderCache(objects))
                for strategy in strategies]
    return [builder.decomposition(builder.top_key()) for builder in builders]


def decompose(presentation, strategy="least-chart"):
    """A decomposition of a valid presentation, read off a table of tops."""
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
    codimension-one core decompositions, all seeded into one table of tops.

    ``core_decs`` maps each two-element axis set once to a
    ``Decomposition`` of the merged-axes core, else ``InvalidInput``.
    Compatibility is a checked precondition.
    """
    a = presentation
    core_decs = _core_family(a, sigma, core_decs)
    check_compatibility(a, sigma, core_decs)
    builder = DecompositionBuilder(a)
    builder.seed(builder.top_key(), sigma)
    for mu in _pairs(a.n):
        builder.seed(_merged((a.n, mu)), core_decs[mu])
    return builder.decomposition(builder.top_key())


def _core_family(presentation, sigma, core_decs):
    """``core_decs`` by ``IndexSet``, each key and every morphism's dims and locations checked."""
    a, family = presentation, {}
    if (sigma.source.dims, sigma.target.dims) != (singleton_dims(a.dims), a.dims):
        raise InvalidInput("splitting is not over the dims of the presentation")
    for key, dec in core_decs.items():
        mu = IndexSet(key)
        if mu not in _pairs(a.n):
            raise InvalidInput("core decomposition key %r is no pair of 1..%d" % (key, a.n))
        if mu in family:
            raise InvalidInput("core decomposition at %s is given twice" % (list(mu),))
        dims = diagonal_dims(a.dims, _merged((a.n, mu)))
        if not isinstance(dec, Decomposition) or {dec.source.dims, dec.target.dims} != {dims}:
            raise InvalidInput("core decomposition at %s is no Decomposition over its"
                               " core's dims" % (list(mu),))
        family[mu] = dec
    locations = [(c.id, p) for c in a.charts for p in c.domain]
    for item, morphism in [("splitting", sigma)] + [
            ("core decomposition at %s" % (list(mu),), dec) for mu, dec in family.items()]:
        for location in locations:
            if location not in morphism.data:
                raise InvalidInput("%s has no component at chart %r, point %r"
                                   % ((item,) + location))
    return family


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
    p_pres, projection = _pullback_projection(a)

    inclusion = identity_gauge(p_pres.dims, dec.source.dims)
    data = {}
    for (chart, p), g in dec.data.items():
        data[(chart, p)] = g.compose(inclusion).compose(
            g.trimmed(p_pres.dims).invert())
    morphism = BundleMorphism(p_pres, a, data)

    composite = projection.compose(morphism)
    ident = identity_gauge(p_pres.dims)
    for g in composite.data.values():
        if g != ident:
            raise SemanticError("pullback splitting is not a section")
    return morphism
