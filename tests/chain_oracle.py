"""Element-level chain construction of a decomposition, kept as a test oracle.

The library assembles a decomposition by routing each component from the
splitting or from one codimension-one core decomposition.  This module is
the construction it replaces: the staged chain is evaluated on every
basis-supported element of the decomposed model, and each component is
read off from those evaluations.  It is slow and independent of the
routing rule, which makes it a differential reference.
"""

import itertools
from fractions import Fraction

from mvb.atlas import associated_decomposed, associated_vacant
from mvb.bundle import (
    BundleMorphism,
    add,
    element,
    elements_equal,
    project,
    project_to,
    zero_lift,
)
from mvb.cores import partition_core
from mvb.cubecat import IndexSet, Partition, full_set, nonempty_subsets, partitions
from mvb.errors import InvalidInput, SemanticError
from mvb.exactlin import MultiTensor, unit_vector, zero_vector
from mvb.gauge import Gauge


def _merge_blocks(blocks, positions):
    blocks = tuple(blocks)
    merged = IndexSet()
    rest = []
    for pos, b in enumerate(blocks, start=1):
        if pos in positions:
            merged = merged.union(b)
        else:
            rest.append(b)
    return Partition([merged] + rest)


def _merged_slot_map(blocks, positions):
    """Map from sets of object positions to merged-cube positions for one
    merge: the merged pair goes to one position, every other block to
    its own."""
    blocks = tuple(blocks)
    old_to_new = {}
    for pos_new, block_new in enumerate(_merge_blocks(blocks, positions), start=1):
        old_positions = IndexSet(
            pos + 1 for pos, b in enumerate(blocks) if set(b) <= set(block_new)
        )
        old_to_new[old_positions] = pos_new
    return old_to_new


def _merged_component(old_to_new, subset, rho):
    """A component key whose blocks are unions of merge pieces, rewritten
    in merged-cube positions.  Block order is preserved, since the merge
    keeps the order of least elements of disjoint blocks."""
    def image(s):
        return IndexSet(new for old, new in old_to_new.items() if old.issubset(s))
    return image(subset), Partition([image(b) for b in rho])


def merged_slot_keys(k, mu):
    """The component keys of the k-cube that the core merging the pair
    ``mu`` carries: every block misses the pair or contains it."""
    slots = {s for s in nonempty_subsets(full_set(k))
             if s.isdisjoint(mu) or mu.issubset(s)}
    return [(t, rho) for t in nonempty_subsets(full_set(k))
            for rho in partitions(t) if all(b in slots for b in rho)]


def compose_from_canonical(source, target, family):
    """Extend canonical-chart gauges to all charts, composing with the
    transitions at every chart, the canonical one included."""
    data = {}
    for c in source.charts:
        for p in c.domain:
            can = source.canonical_chart(p)
            data[(c.id, p)] = target.transition(c.id, can, p).compose(
                family[p]).compose(source.transition(can, c.id, p))
    return BundleMorphism(source, target, data)


def _support_element(model, chart, point, assignment):
    """Top-node element of a decomposed model supported on given slots."""
    comps = {}
    for s in nonempty_subsets(full_set(model.n)):
        comps[s] = assignment.get(s, zero_vector(model.dims.dim(s)))
    return element(model, full_set(model.n), chart, point, comps)


def _to_merged(core_model, old_to_new, x):
    """Rewrite a core-supported element in merged-cube coordinates."""
    k_new = core_model.n
    comps = {s: zero_vector(core_model.dims.dim(s))
             for s in nonempty_subsets(full_set(k_new))}
    for s, vec in x.components.items():
        pieces = [p for p in old_to_new if p.issubset(s)]
        covered = IndexSet(i for p in pieces for i in p)
        if covered == s:
            comps[IndexSet(old_to_new[p] for p in pieces)] = vec
        elif any(v != 0 for v in vec):
            raise InvalidInput("element is not supported on the core")
    return element(core_model, full_set(k_new), x.chart, x.point, comps)


def _from_merged(obj, old_to_new, y):
    """Embed a merged-cube element back into the object's top node."""
    new_to_old = {new: old for old, new in old_to_new.items()}
    k = obj.n
    comps = {s: zero_vector(obj.dims.dim(s))
             for s in nonempty_subsets(full_set(k))}
    for s, vec in y.components.items():
        old = IndexSet(i for pos in s for i in new_to_old[pos])
        comps[old] = vec
    return element(obj, full_set(k), y.chart, y.point, comps)


class _Chain:
    """The staged construction of a decomposition from a splitting and
    codimension-one core decompositions, for one presentation."""

    def __init__(self, obj, sigma, core_decs, blocks, check_bracketing=False):
        self.obj = obj
        self.k = obj.n
        self.model = associated_decomposed(obj)
        self.vacant = associated_vacant(obj)
        self.sigma = sigma
        self.check_bracketing = check_bracketing
        self.pairs = sorted(
            (s for s in nonempty_subsets(full_set(self.k)) if len(s) == 2),
            key=tuple,
        )
        self.core_decs = core_decs
        self.slot_maps = {
            mu: _merged_slot_map(blocks, mu) for mu in self.pairs
        }

    def _allowed(self, subset, stage):
        if len(subset) == 1:
            return True
        return any(self.pairs[i].issubset(subset) for i in range(stage))

    def vacant_part(self, x):
        comps = {
            s: (x.components[s] if len(s) == 1
                else zero_vector(self.vacant.dims.dim(s)))
            for s in nonempty_subsets(full_set(self.k))
        }
        return element(self.vacant, x.node, x.chart, x.point, comps)

    def apply(self, x, stage=None):
        stage = len(self.pairs) if stage is None else stage
        for s, vec in x.components.items():
            if not self._allowed(s, stage) and any(v != 0 for v in vec):
                raise InvalidInput("element outside stage %d support" % stage)
        if stage == 0:
            return self.sigma.apply(self.vacant_part(x))
        mu = self.pairs[stage - 1]
        s_axis, t_axis = tuple(mu)
        y_assign = {}
        z_assign = {}
        complement = full_set(self.k).difference(mu)
        for s, vec in x.components.items():
            if self._allowed(s, stage - 1):
                y_assign[s] = vec
            if s.issubset(complement):
                if self._allowed(s, stage - 1):
                    z_assign[s] = vec
            elif mu.issubset(s) and not self._allowed(s, stage - 1):
                z_assign[s] = vec
        y = _support_element(self.model, x.chart, x.point, y_assign)
        z = _support_element(self.model, x.chart, x.point, z_assign)

        left = self.apply(y, stage - 1)
        dec = self.core_decs[mu]
        core_image = _from_merged(
            self.obj, self.slot_maps[mu],
            dec.apply(_to_merged(dec.source, self.slot_maps[mu], z)),
        )
        result = self._assemble(left, core_image, s_axis, t_axis)
        if self.check_bracketing:
            other = self._assemble(left, core_image, t_axis, s_axis)
            if not elements_equal(self.obj, result, other):
                raise SemanticError("bracketing orders disagree in the chain")
        return result

    def _assemble(self, left, core_image, s_axis, t_axis):
        lifted = zero_lift(self.obj, project(self.obj, left, s_axis), left.node)
        inner = add(self.obj, lifted, core_image, t_axis)
        return add(self.obj, left, inner, s_axis)

    def extract(self, presentation_base):
        """All gauge components of the chain, per point in the canonical
        chart, read off from evaluations on basis-supported elements."""
        k = self.k
        family = {}
        for p in presentation_base:
            can = self.obj.canonical_chart(p)
            comps = {}
            for target in nonempty_subsets(full_set(k)):
                d_out = self.obj.dims.dim(target)
                for rho in partitions(target):
                    block_dims = [self.model.dims.dim(b) for b in rho]
                    size = 1
                    for d in block_dims:
                        size *= d
                    entries = [Fraction(0)] * (d_out * size)
                    basis_tuples = itertools.product(*(range(d) for d in block_dims))
                    for j, basis in enumerate(basis_tuples):
                        assignment = {
                            b: unit_vector(self.model.dims.dim(b), idx)
                            for b, idx in zip(rho, basis)
                        }
                        x = _support_element(self.model, can, p, assignment)
                        out = self.apply(x)
                        vec = project_to(self.obj, out, target).components[target]
                        for i0 in range(d_out):
                            entries[i0 * size + j] = vec[i0]
                    comps[(target, rho)] = MultiTensor(
                        d_out, tuple(block_dims), entries)
            family[p] = Gauge(self.model.dims, self.obj.dims, comps)
        return family


def chain_data(obj, sigma, core_decs, blocks, base, check_bracketing=False):
    """Decomposition data of ``obj`` by chain evaluation."""
    chain = _Chain(obj, sigma, core_decs, blocks, check_bracketing=check_bracketing)
    model = associated_decomposed(obj)
    return compose_from_canonical(model, obj, chain.extract(base)).data


def builder_chain_data(builder, key, check_bracketing=False):
    """Chain-evaluated decomposition data at one builder key, from the
    builder's own splitting and core decompositions of that key."""
    obj = builder.object(key)
    if obj.n <= 1:
        return builder.decomposition(key).data
    core_decs = {
        mu: builder.decomposition(builder.merged_key(key, mu))
        for mu in nonempty_subsets(full_set(obj.n)) if len(mu) == 2
    }
    return chain_data(obj, builder.splitting(key), core_decs, key[1],
                      builder.A.base, check_bracketing=check_bracketing)


def splitting_to_decomposition_data(presentation, sigma, core_decs,
                                    check_bracketing=False):
    """Chain-evaluated data of the decomposition fixed by a splitting and
    codimension-one core decompositions of the top object."""
    ground = full_set(presentation.n)
    blocks = Partition([[i] for i in ground])
    obj = partition_core(presentation, ground, blocks)
    core_decs = {IndexSet(mu): dec for mu, dec in core_decs.items()}
    return chain_data(obj, sigma, core_decs, blocks, presentation.base,
                      check_bracketing=check_bracketing)


def _disjoint_families(slots):
    """Nonempty families of pairwise disjoint slots."""
    slots = list(slots)

    def rec(i, current):
        if i == len(slots):
            if current:
                yield tuple(current)
            return
        yield from rec(i + 1, current)
        s = slots[i]
        if all(s.isdisjoint(t) for t in current):
            yield from rec(i + 1, current + [s])

    yield from rec(0, [])


def probe_compatibility(presentation, sigma, core_decs):
    """The intersection conditions of ``check_compatibility``, probed by
    applying the morphisms to basis elements supported on disjoint
    slots in every chart.  Raises SemanticError on a violation."""
    a = presentation
    n = a.n
    ground = full_set(n)
    blocks = Partition([[i] for i in ground])
    model = associated_decomposed(a)
    vac = associated_vacant(a)
    pairs = sorted((s for s in nonempty_subsets(ground) if len(s) == 2), key=tuple)
    core_decs = {IndexSet(mu): dec for mu, dec in core_decs.items()}
    slot_maps = {mu: _merged_slot_map(blocks, mu) for mu in pairs}
    locations = [(c.id, p) for c in a.charts for p in c.domain]

    def merged_slots(mu):
        return [s for s in nonempty_subsets(ground)
                if s.isdisjoint(mu) or mu.issubset(s)]

    def probes(slots):
        for family in _disjoint_families(slots):
            dims = [a.dims.dim(s) for s in family]
            for basis in itertools.product(*(range(d) for d in dims)):
                assignment = {s: unit_vector(a.dims.dim(s), idx)
                              for s, idx in zip(family, basis)}
                for chart, p in locations:
                    yield _support_element(model, chart, p, assignment)

    def via_core(mu, x):
        dec = core_decs[mu]
        return _from_merged(a, slot_maps[mu],
                            dec.apply(_to_merged(dec.source, slot_maps[mu], x)))

    def vacant_part(x):
        comps = {s: (x.components[s] if len(s) == 1 else ())
                 for s in nonempty_subsets(ground)}
        return element(vac, x.node, x.chart, x.point, comps)

    for mu in pairs:
        for x in probes(IndexSet([i]) for i in ground.difference(mu)):
            if not elements_equal(a, via_core(mu, x), sigma.apply(vacant_part(x))):
                raise SemanticError(
                    "core decomposition at %s violates the splitting" % (list(mu),))
    for idx, mu in enumerate(pairs):
        for nu in pairs[idx + 1:]:
            shared = sorted(set(merged_slots(mu)) & set(merged_slots(nu)), key=tuple)
            for x in probes(shared):
                if not elements_equal(a, via_core(mu, x), via_core(nu, x)):
                    raise SemanticError(
                        "core decompositions at %s and %s disagree"
                        % (list(mu), list(nu)))
    return True
