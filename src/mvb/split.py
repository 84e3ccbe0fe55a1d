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
  intersection of cores) is identified by the pair (ambient node, block
  partition) and split exactly once; this sharing is what makes the
  staged core decompositions compatible.  The other way, a decomposition
  restricts to its cores by ``cores.partition_core_morphism``.
"""

from fractions import Fraction
from itertools import product

from .atlas import (
    AtlasPresentation,
    associated_decomposed,
    associated_vacant,
    validate,
)
from .bundle import BundleMorphism, morphism_from_canonical
from .cores import partition_core, partition_core_morphism, pullback
from .cubecat import (
    DiagonalPartition,
    IndexSet,
    Partition,
    ambient_positions,
    coarsen,
    cube_plan,
    full_set,
    nonempty_subsets,
)
from .errors import InvalidInput, SemanticError
from .exactlin import MultiTensor, unit_vector
from .gauge import Gauge, _compose_at, identity_gauge

STRATEGIES = ("least-chart", "uniform-average")


class Splitting(BundleMorphism):
    """A monomorphism from the vacant model, identity on singleton slots."""


class Decomposition(BundleMorphism):
    """An isomorphism from the decomposed model, identity on every building slot."""


def is_splitting(morphism):
    """Naturality plus identity singleton components, checked exactly."""
    if not morphism.is_natural():
        return False
    n = morphism.source.n
    for g in morphism.data.values():
        for i in range(1, n + 1):
            single = IndexSet([i])
            if not g.components[(single, Partition([single]))].is_identity():
                return False
    return True


def is_decomposition(morphism):
    """Naturality, identity building components, fiberwise bijectivity."""
    if not morphism.is_natural():
        return False
    n = morphism.source.n
    for g in morphism.data.values():
        for subset in nonempty_subsets(full_set(n)):
            if not g.linear_part(subset).is_identity():
                return False
    return morphism.is_fiberwise_bijective()


def _position_blocks(blocks, positions):
    blocks = tuple(blocks)
    return Partition([blocks[pos - 1] for pos in positions])


def _top_key(k):
    """The key of the whole k-cube with singleton blocks."""
    ground = full_set(k)
    return (ground, Partition([[i] for i in ground]))


def _pairs(k):
    """Two-element axis sets in chain order."""
    return sorted((s for s in nonempty_subsets(full_set(k)) if len(s) == 2), key=tuple)


def _merged(k, mu):
    """The partition of {1..k} that merges the pair ``mu``: the blocks of
    the ``mu``-core of a k-cube object, in that object's positions."""
    return DiagonalPartition(full_set(k), mu).as_partition()


def _core_keys(k, mu):
    """Per position in ``cube_plan(k)`` of a key the ``mu``-core covers
    (every block a union of merged blocks), the core's own key there:
    ``ambient_positions`` inverted."""
    return dict(zip(ambient_positions((k, _merged(k, mu))), cube_plan(k - 1).keys))


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


def _assemble(obj, model, sigma, core_decs, base):
    """Decomposition data fixed by a splitting and the codimension-one
    core decompositions.  In the canonical chart fiber addition is
    coordinatewise, so every component is copied from the splitting or
    from the core decomposition that the chain would consult for it."""
    core_keys = {mu: _core_keys(obj.n, mu) for mu in _pairs(obj.n)}
    core_index = cube_plan(obj.n - 1).index
    family = {}
    for p in base:
        can = obj.canonical_chart(p)
        comps = {}
        for at, key in enumerate(cube_plan(obj.n).keys):
            mu = _route(key[1])
            if mu is None:
                comps[key] = sigma.data[(can, p)].tensors[at]
            else:
                comps[key] = core_decs[mu].data[(can, p)].tensors[
                    core_index[core_keys[mu][at]]]
        family[p] = Gauge(model.dims, obj.dims, comps)
    return morphism_from_canonical(model, obj, family).data


def _conjugated_top(outer, g, inner):
    """The top component of ``outer . g . inner``.

    Only that key is composed: its terms read ``g . inner`` on the
    all-singleton keys alone, so those are the only inner keys composed.
    """
    plan = cube_plan(g.n)
    top_at = plan.index[_top_key(g.n)]
    singleton_keys = [at for at, (s, rho) in enumerate(plan.keys) if len(rho) == len(s)]
    right = _compose_at(g.tensors, inner.tensors, singleton_keys, inner.source_dims)
    tensor = _compose_at(outer.tensors, right, [top_at], inner.source_dims)[top_at]
    if tensor is None:
        return MultiTensor.zeros(outer.target_dims.shapes[top_at][0],
                                 inner.source_dims.shapes[top_at][1])
    return tensor


def splitting_top(morphism, chart, point):
    """The top component of a morphism's gauge in one chart, conjugated
    from the canonical chart's gauge without deriving the whole gauge."""
    can = morphism.source.canonical_chart(point)
    g = morphism.data[(can, point)]
    if chart == can:
        return g.components[_top_key(g.n)]
    return _conjugated_top(morphism.target.transition(chart, can, point), g,
                           morphism.source.transition(can, chart, point))


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

    A key is a pair (ambient node, partition of it); the object of a
    key is the corresponding diagonal core presentation.  The top-level
    bundle is the key (full cube, singleton partition).  Splittings and
    decompositions are memoized per key in ``cache``, so any object
    reached twice is split exactly once.
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
            ambient, blocks = key
            objects[key] = partition_core(self.A, ambient, blocks)
        return objects[key]

    def subkey(self, key, positions):
        sub = _position_blocks(key[1], positions)
        return (sub.ground, sub)

    def merged_key(self, key, positions):
        return (key[0], coarsen(key[1], _merged(len(key[1]), positions)))

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
            faces = [
                ((nu, Partition([[i] for i in nu])), self.splitting(self.subkey(key, nu)))
                for nu in nonempty_subsets(full_set(obj.n)) if 1 < len(nu) < obj.n
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
        it)."""
        comps = {}
        for i in range(1, obj.n + 1):
            single = IndexSet([i])
            comps[(single, Partition([single]))] = MultiTensor.identity(
                obj.dims.dim(single))
        for face_key, sub in faces:
            comps[face_key] = splitting_top(sub, chart, point)
        if hook is not None:
            top = _top_key(obj.n)
            in_dims = vac.dims.block_dims(top[1])
            d_top = obj.dims.dim(top[0])
            bases = product(*([unit_vector(d, j) for j in range(d)] for d in in_dims))
            values = [hook(chart, point, list(args)) for args in bases]
            wrong = next((v for v in values if len(v) != d_top), None)
            if wrong is not None:
                raise InvalidInput("theta_top at chart %r, point %r returned %d values,"
                                   " expected %d" % (chart, point, len(wrong), d_top))
            comps[top] = MultiTensor(
                d_top, in_dims, [v[i0] for i0 in range(d_top) for v in values])
        return Gauge(vac.dims, obj.dims, comps)

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
        top = _top_key(obj.n)
        total = own.components[top]
        for c in others:
            local = self._chart_splitting(obj, vac, faces, c, point, hook)
            total = total.plus(_conjugated_top(
                obj.transition(can, c, point), local, vac.transition(c, can, point)))
        comps = dict(zip(cube_plan(obj.n).keys, own.tensors))
        comps[top] = total.scaled(Fraction(1, len(others) + 1))
        return Gauge(vac.dims, obj.dims, comps)

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
    report = validate(presentation)
    if not report.valid:
        raise SemanticError("presentation does not validate: %r" % (report,))
    builder = DecompositionBuilder(presentation, strategy, theta_top=theta_top)
    return builder.splitting(builder.top_key())


def decompose(presentation, strategy="least-chart"):
    """A decomposition of a valid presentation via the staged pipeline."""
    report = validate(presentation)
    if not report.valid:
        raise SemanticError("presentation does not validate: %r" % (report,))
    builder = DecompositionBuilder(presentation, strategy)
    return builder.decomposition(builder.top_key())


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
    keys = cube_plan(n).keys
    core_keys = {mu: _core_keys(n, mu) for mu in pairs}
    core_index = cube_plan(n - 1).index
    locations = [(c.id, p) for c in a.charts for p in c.domain]

    def core_component(mu, location, at):
        return core_decs[mu].data[location].tensors[core_index[core_keys[mu][at]]]

    for mu in pairs:
        singles = [at for at in core_keys[mu] if len(keys[at][0]) == len(keys[at][1])]
        for location in locations:
            g = sigma.data[location]
            if any(core_component(mu, location, at) != g.tensors[at]
                   for at in singles):
                raise SemanticError(
                    "core decomposition at %s violates the splitting" % (list(mu),))
    for idx, mu in enumerate(pairs):
        for nu in pairs[idx + 1:]:
            shared = core_keys[mu].keys() & core_keys[nu].keys()
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
    ground, singles = _top_key(a.n)
    obj = partition_core(a, ground, singles)
    model = associated_decomposed(obj)
    return Decomposition(model, obj, _assemble(obj, model, sigma, core_decs, a.base))


def extract_splitting(presentation, decomposition):
    """The splitting induced by a decomposition: compose with the vacant
    inclusion, i.e. keep the all-singleton components."""
    a = presentation
    vac = associated_vacant(a)
    keys = cube_plan(a.n).keys
    data = {}
    for (chart, p), g in decomposition.data.items():
        data[(chart, p)] = Gauge(vac.dims, a.dims, {
            (subset, rho): tensor for (subset, rho), tensor in zip(keys, g.tensors)
            if len(rho) == len(subset)})
    return Splitting(vac, a, data)


def extract_core_decompositions(decomposition):
    """Decompositions of the codimension-one cores, by restriction."""
    n = decomposition.target.n
    return {mu: partition_core_morphism(decomposition, full_set(n), _merged(n, mu))
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
