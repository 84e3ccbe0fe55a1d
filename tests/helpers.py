"""Test instruments that no user-facing path of the library reaches.

The library holds what the CLI, the demos and the bench reach
(``test_library_reach.py`` keeps it so).  The helpers here state facts
about that code from the outside:

- the element maps between a partition core and its ambient bundle, and
  membership in the sub-bundle of union-of-blocks slots, through the
  union of the blocks at each set of block positions;
- the identity morphism of a presentation;
- the encoding of pointwise morphisms as elements of ``hom_bundle``, the
  oracle for the morphism bundle the ``mvb hom`` command builds;
- seeded random morphism gauges and component vectors;
- the dimensions of a partition's blocks, read by key.
"""

import random
from fractions import Fraction
from math import prod

from mvb.bundle import BundleMorphism, canonicalize, element, hom_bundle
from mvb.cubecat import (
    IndexSet,
    Partition,
    full_set,
    is_union_of_blocks,
    nonempty_subsets,
    partitions,
)
from mvb.errors import DimensionMismatch, InvalidInput
from mvb.exactlin import MultiTensor, zero_vector
from mvb.gauge import Gauge, identity_gauge
from mvb.rand import random_tensor


def block_unions(blocks):
    """Map each nonempty set of block positions to the union of its blocks
    (the library reads the same map as ``cubecat.ambient_positions``)."""
    return {nu: IndexSet(i for pos in nu for i in blocks[pos - 1])
            for nu in nonempty_subsets(full_set(len(blocks)))}


def block_dims(dims, partition):
    """The dimensions of the blocks of ``partition`` under ``dims``, in
    canonical block order (the library reads them from
    ``DimAssignment.shapes`` by plan position)."""
    return tuple(dims.dims[b] for b in Partition(partition))


def embed_core_element(presentation, blocks, core_elem):
    """View a core element as an ambient element with zero filled in."""
    unions = block_unions(Partition(blocks))
    comps = {unions[nu]: vec for nu, vec in core_elem.components.items()}
    node = IndexSet(i for key in comps for i in key)
    for key in nonempty_subsets(node):
        comps.setdefault(key, zero_vector(presentation.dims.dim(key)))
    return element(presentation, node, core_elem.chart, core_elem.point, comps)


def restrict_core_element(presentation, core_pres, ambient_elem):
    """Inverse of the embedding; requires core membership."""
    positions = {union: nu for nu, union in
                 block_unions(Partition(core_pres.axis_blocks)).items()}
    e = canonicalize(presentation, ambient_elem)
    comps = {}
    for key, vec in e.components.items():
        if key in positions:
            comps[positions[key]] = vec
        elif any(x != 0 for x in vec):
            raise InvalidInput("element is not in the core: slot %s nonzero" % (list(key),))
    node = IndexSet(i for nu in comps for i in nu)
    return element(core_pres, node, e.chart, e.point, comps)


def is_diagonal_core_member(presentation, elem, blocks):
    """Membership in the sub-bundle of union-of-blocks slots."""
    blocks = Partition(blocks)
    e = canonicalize(presentation, elem)
    return all(is_union_of_blocks(key, blocks) or not any(vec)
               for key, vec in e.components.items())


def identity_morphism(presentation):
    ident = identity_gauge(presentation.dims)
    data = {
        (c.id, p): ident for c in presentation.charts for p in c.domain
    }
    return BundleMorphism(presentation, presentation, data)


def hom_decode(e_pres, f_pres, hom_elem):
    """Per-subset tensors encoded in a morphism-bundle element."""
    out = {}
    for subset in nonempty_subsets(hom_elem.node):
        vec = hom_elem.components[subset]
        pos = 0
        for rho in partitions(subset):
            o = f_pres.dims.dim(subset)
            ins = block_dims(e_pres.dims, rho)
            size = o * prod(ins)
            out[(subset, rho)] = MultiTensor(o, ins, vec[pos:pos + size])
            pos += size
        if pos != len(vec):
            raise DimensionMismatch("morphism slot at %s has wrong length" % (list(subset),))
    return out


def hom_encode(e_pres, f_pres, node, point, tensors):
    """Inverse of ``hom_decode``; builds the morphism-bundle element."""
    h = hom_bundle(e_pres, f_pres)
    comps = {}
    for subset in nonempty_subsets(IndexSet(node)):
        vec = []
        for rho in partitions(subset):
            vec.extend(tensors[(subset, rho)].entries)
        comps[subset] = tuple(vec)
    return element(h, node, h.charts[0].id, point, comps)


def hom_apply(e_pres, f_pres, hom_elem, elem):
    """Evaluate a pointwise morphism on an element of the source bundle."""
    if elem.point != hom_elem.point:
        raise InvalidInput("morphism and element over different points")
    if not elem.node.issubset(hom_elem.node):
        raise InvalidInput("element node outside the morphism node")
    comps = Gauge(e_pres.dims, f_pres.dims, hom_decode(e_pres, f_pres, hom_elem)).evaluate(
        canonicalize(e_pres, elem).components)
    return element(
        f_pres, elem.node, f_pres.canonical_chart(elem.point), elem.point, comps,
    )


def random_morphism_gauge(rng, source_dims, target_dims):
    """Random gauge with unconstrained rectangular linear parts."""
    return Gauge.from_tensors(source_dims, target_dims, [
        random_tensor(rng, out, ins)
        for (out, _), (_, ins) in zip(target_dims.shapes, source_dims.shapes)])


def random_vectors(rng, dims, node=None, lo=-3, hi=3):
    node = node if node is not None else full_set(dims.n)
    return {
        s: tuple(Fraction(rng.randint(lo, hi)) for _ in range(dims.dim(s)))
        for s in nonempty_subsets(node)
    }


def seeded(seed):
    return random.Random(seed)
