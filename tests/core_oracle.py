"""The eager core and model builders, kept as differential oracles.

Before a derived presentation became a view, ``partition_core``
restricted every transition of its parent up front, and the vacant and
decomposed models of a presentation rebuilt every transition as a new
gauge, the decomposed one through the checked constructor.  These copies
of that code are the reference that ``tests/test_core_views.py``
compares the views against: the same dims, axis blocks and keys, and at
every key the same gauge or the same exception class and message.

``face`` is the face builder from before a face became a core: it builds
every face component entry by entry from the ambient components it
groups, one ``Fraction`` at a time.  ``tests/test_face.py`` compares
``cores.face`` against it.

``core_closure_certificate`` and ``fiber_matrix`` are the certificates
from before they read gauge tensors.  The closure check pushes every
family of basis vectors on the blocks of each core key through the core
gauge and the ambient gauge with ``Gauge.evaluate`` and compares the
outputs slot by slot; the fiber matrix pushes one unit vector per fiber
coordinate through ``BundleMorphism.apply``.  ``tests/test_cores.py``
compares the library's certificates and fiber matrices against them.
"""

from fractions import Fraction
from itertools import product
from math import prod

from tensor_oracle import entry

from mvb.atlas import AtlasPresentation
from mvb.bundle import element, zero_lift
from mvb.certify import Certificate
from mvb.cores import partition_core
from mvb.cubecat import (
    IndexSet,
    Partition,
    cube_plan,
    full_set,
    is_union_of_blocks,
    nonempty_subsets,
    partitions,
    subsets,
)
from mvb.errors import InvalidInput
from mvb.exactlin import MultiTensor, zero_vector
from mvb.gauge import DimAssignment, Gauge, diagonal_dims, singleton_dims


def eager_partition_core(presentation, blocks):
    """The (blocks)-core with every transition restricted up front; a
    transition of other dims than the presentation's by its own."""
    a = presentation
    blocks = Partition(blocks)
    dims = diagonal_dims(a.dims, blocks)
    transitions = {key: g.diagonal_restrict(
        blocks, (dims, dims) if g.source_dims == a.dims == g.target_dims else None)
        for key, g in a.transitions.items()}
    return AtlasPresentation(len(blocks), dims, a.base, a.charts, transitions,
                             axis_blocks=tuple(blocks))


def eager_vacant(presentation):
    """The vacant model: every transition trimmed to the singleton dims."""
    a = presentation
    dims = singleton_dims(a.dims)
    return AtlasPresentation(a.n, dims, a.base, a.charts,
                             {key: g.trimmed(dims) for key, g in a.transitions.items()},
                             a.axis_blocks)


def eager_linear(presentation, key):
    """The decomposed model's transition at ``key``: the one-block
    components of the presentation's, through the checked constructor."""
    a = presentation
    keys = cube_plan(a.n).keys
    return Gauge(a.dims, a.dims, {k: t for k, t in zip(keys, a.transitions[key].tensors)
                                  if len(k[1]) == 1})


def eager_decomposed(presentation):
    """The decomposed model with every transition built up front."""
    a = presentation
    return AtlasPresentation(a.n, a.dims, a.base, a.charts,
                             {key: eager_linear(a, key) for key in a.transitions},
                             a.axis_blocks)


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
                                val = entry(amb, o, amb_idx)
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


def core_closure_certificate(presentation, blocks):
    """Check that restricted transitions reproduce ambient evaluation.

    For every transition and every component of the core gauge, basis
    elements supported on the component's blocks are pushed through the
    ambient gauge; the output must agree on union slots and vanish
    elsewhere.
    """
    a = presentation
    blocks = Partition(blocks)
    core = partition_core(a, blocks)
    core_dims, k = core.dims, core.n
    witnesses = []
    for (dst, src, p), g in sorted(a.transitions.items()):
        sub = core.transitions[(dst, src, p)]
        for nu in nonempty_subsets(full_set(k)):
            for rho in partitions(nu):
                for basis in _basis_tuples(core_dims, rho):
                    small = {s: zero_vector(core_dims.dim(s))
                             for s in nonempty_subsets(full_set(k))}
                    small.update(basis)
                    big = {s: zero_vector(a.dims.dim(s))
                           for s in nonempty_subsets(full_set(a.n))}
                    for s_small, vec in small.items():
                        union = IndexSet(i for pos in s_small for i in blocks[pos - 1])
                        big[union] = vec
                    out_small = sub.evaluate(small)
                    out_big = g.evaluate(big)
                    for s_big, vec in out_big.items():
                        if is_union_of_blocks(s_big, blocks):
                            positions = IndexSet(pos for pos, b in enumerate(blocks, 1)
                                                 if b.issubset(s_big))
                            if out_small[positions] != vec:
                                return Certificate.failing(
                                    "core restriction reproduces ambient evaluation",
                                    {"transition": [dst, src, p],
                                     "slot": list(s_big)})
                        elif any(x != 0 for x in vec):
                            return Certificate.failing(
                                "core restriction reproduces ambient evaluation",
                                {"transition": [dst, src, p],
                                 "slot": list(s_big), "leak": True})
        witnesses.append({"transition": [dst, src, p]})
    return Certificate.passing(
        "core restriction reproduces ambient evaluation", witnesses)


def _basis_tuples(dims, rho):
    """Families assigning one basis vector to each block of rho."""
    return product(*(
        [(block, tuple(int(i == j) for i in range(dims.dim(block))))
         for j in range(dims.dim(block))]
        for block in rho))


def fiber_matrix(morphism, axis, base_elem):
    """Matrix of the morphism between the fibers over a base element.

    The fiber over an element of the axis-dropped node has one
    coordinate block per slot containing the axis; morphisms are linear
    on these blocks once the base slots are fixed.
    """
    src, tgt = morphism.source, morphism.target
    top = full_set(src.n)
    fiber_slots = [s for s in nonempty_subsets(top) if axis in s]
    src_cols = [(slot, j) for slot in fiber_slots for j in range(src.dims.dim(slot))]
    tgt_rows = [(slot, i) for slot in fiber_slots for i in range(tgt.dims.dim(slot))]

    lifted = zero_lift(src, base_elem, top)
    columns = []
    for slot, j in src_cols:
        comps = dict(lifted.components)
        v = [0] * src.dims.dim(slot)
        v[j] = 1
        comps[slot] = tuple(v)
        image = morphism.apply(element(src, top, lifted.chart, lifted.point, comps))
        columns.append([image.components[tslot][i] for tslot, i in tgt_rows])
    return MultiTensor(len(tgt_rows), (len(src_cols),),
                       [col[r] for r in range(len(tgt_rows)) for col in columns])
