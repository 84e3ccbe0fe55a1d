"""Cores, the n-pullback, and the ultracore exact sequence.

A core at (S, J) consists of the elements of the S-node whose chart
coordinates vanish on every slot that meets J without containing it;
the surviving slots are exactly the unions of blocks of the diagonal
partition {J, singletons of S minus J}.  Since disjoint unions of such
slots are again such slots, transitions preserve the core
componentwise; the restriction is nevertheless re-checked against
ambient evaluation on basis elements rather than assumed.

Core presentations reuse the ambient charts, which keeps the induced
morphism of a core a literal restriction of the ambient data.
"""

import random
from fractions import Fraction
from itertools import permutations, product

from .atlas import AtlasPresentation
from .bundle import (
    BundleMorphism,
    add,
    canonicalize,
    element,
    elements_equal,
    project_to,
    transport,
    zero_element,
    zero_lift,
)
from .certify import Certificate
from .cubecat import (
    DiagonalPartition,
    IndexSet,
    Partition,
    block_unions,
    full_set,
    is_union_of_blocks,
    nonempty_subsets,
    partitions,
)
from .errors import InvalidInput
from .exactlin import MultiTensor, compose_tensors, kernel_basis, rank, zero_vector
from .gauge import diagonal_dims, identity_gauge
from .rand import random_element


class CoreSpec:
    """The pair (S, J) with its diagonal reindexing."""

    def __init__(self, ambient, inner):
        self.ambient = IndexSet(ambient)
        self.inner = IndexSet(inner)
        if not self.inner or not self.inner.issubset(self.ambient):
            raise InvalidInput("core needs a nonempty inner subset of the ambient node")
        self.reindexing = DiagonalPartition(self.ambient, self.inner)

    @property
    def blocks(self):
        return self.reindexing.blocks

    def __repr__(self):
        return "CoreSpec(S=%s, J=%s)" % (list(self.ambient), list(self.inner))


def partition_core(presentation, ambient, blocks):
    """The sub-bundle of union-of-blocks slots, as a presentation over
    the cube with one axis per block (canonical order)."""
    a = presentation
    ambient = IndexSet(ambient)
    blocks = Partition(blocks)
    if blocks.ground != ambient:
        raise InvalidInput("blocks must partition the ambient node")
    if not ambient.issubset(full_set(a.n)):
        raise InvalidInput("ambient node outside the cube")
    dims = diagonal_dims(a.dims, blocks)
    transitions = {
        key: g.diagonal_restrict(blocks) for key, g in a.transitions.items()
    }
    return AtlasPresentation(len(blocks), dims, a.base, a.charts, transitions,
                             axis_blocks=tuple(blocks))


def partition_core_morphism(morphism, ambient, blocks):
    """Restrict a morphism to the (ambient, blocks) partition cores of
    its source and target, keeping its class.  A restricted decomposition
    starts at the decomposed model of the core: a core's one-block
    components are the ambient ones at the unions of the blocks."""
    blocks = Partition(blocks)
    return type(morphism)(
        partition_core(morphism.source, ambient, blocks),
        partition_core(morphism.target, ambient, blocks),
        {key: g.diagonal_restrict(blocks) for key, g in morphism.data.items()})


def core(presentation, ambient, inner, check=True):
    """The (ambient, inner)-core presentation with its CoreSpec; ``check``
    certifies the restriction against ambient evaluation."""
    spec = CoreSpec(ambient, inner)
    pres = partition_core(presentation, spec.ambient, spec.blocks)
    if check and not core_closure_certificate(presentation, spec.ambient, spec.blocks).passed:
        raise InvalidInput("core restriction failed to match ambient evaluation")
    return spec, pres


def _zero_outside(presentation, elem, allowed):
    """Whether the canonical form of ``elem`` vanishes at every slot
    ``key`` with ``allowed(key)`` false."""
    e = canonicalize(presentation, elem)
    return all(allowed(key) or not any(vec) for key, vec in e.components.items())


def is_core_member(presentation, elem, inner):
    """Membership of an S-node element in the (S, inner)-core."""
    inner = IndexSet(inner)
    return _zero_outside(presentation, elem,
                         lambda key: key.isdisjoint(inner) or inner.issubset(key))


def in_zero_image(presentation, elem, kept):
    """Membership in the image of the zero section from the kept node."""
    kept = IndexSet(kept)
    return _zero_outside(presentation, elem, lambda key: key.issubset(kept))


def core_closure_certificate(presentation, ambient, blocks):
    """Check that restricted transitions reproduce ambient evaluation.

    For every transition and every component of the core gauge, basis
    elements supported on the component's blocks are pushed through the
    ambient gauge; the output must agree on union slots and vanish
    elsewhere.
    """
    a = presentation
    blocks = Partition(blocks)
    core_dims = diagonal_dims(a.dims, blocks)
    k = len(blocks)
    witnesses = []
    for (dst, src, p), g in sorted(a.transitions.items()):
        sub = g.diagonal_restrict(blocks)
        for nu in nonempty_subsets(full_set(k)):
            for rho in partitions(nu):
                for basis in _basis_tuples(core_dims, rho):
                    small = {s: zero_vector(core_dims.dim(s))
                             for s in nonempty_subsets(full_set(k))}
                    for block_nu, vec in basis:
                        small[block_nu] = vec
                    big = {s: zero_vector(a.dims.dim(s))
                           for s in nonempty_subsets(full_set(a.n))}
                    for s_small, vec in small.items():
                        union = IndexSet(i for pos in s_small for i in blocks[pos - 1])
                        big[union] = vec
                    out_small = sub.evaluate(small)
                    out_big = g.evaluate(big)
                    for s_big, vec in out_big.items():
                        if is_union_of_blocks(s_big, blocks):
                            positions = IndexSet(
                                pos + 1 for pos, b in enumerate(blocks)
                                if set(b) <= set(s_big)
                            )
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


def core_by_stages(presentation, ambient, inner, first):
    """Certificate that the (S, J)-core equals the core-of-core via K.

    Checks (a) the two derived presentations agree under the identity
    reindexing and (b) the direct membership predicate matches the
    staged one on basis and random samples.
    """
    a = presentation
    s_set, j_set, k_set = IndexSet(ambient), IndexSet(inner), IndexSet(first)
    if not (k_set and k_set.issubset(j_set) and j_set.issubset(s_set)):
        raise InvalidInput("need nonempty first <= inner <= ambient")

    direct_spec, direct = core(a, s_set, j_set, check=False)
    _, stage1 = core(a, s_set, k_set, check=False)
    # positions of the stage-1 axes that the second stage merges
    merged_positions = next(
        nu for nu, union in block_unions(Partition(stage1.axis_blocks)).items()
        if union == j_set)
    _, stage2 = core(stage1, full_set(stage1.n), merged_positions, check=False)

    if stage2.dims != direct.dims or stage2.transitions != direct.transitions:
        return Certificate.failing(
            "core constructed by stages", {"ambient": list(s_set),
                                           "inner": list(j_set),
                                           "first": list(k_set)})

    rng = random.Random(2024)
    samples = []
    for _ in range(12):
        samples.append(random_element(rng, a, node=s_set))
    for _ in range(12):
        e = random_element(rng, a, node=s_set)
        comps = {
            key: (vec if is_union_of_blocks(key, direct_spec.blocks)
                  else zero_vector(len(vec)))
            for key, vec in e.components.items()
        }
        samples.append(element(a, s_set, e.chart, e.point, comps))

    checked = 0
    for e in samples:
        direct_member = is_core_member(a, e, j_set)
        staged = is_core_member(a, e, k_set)
        if staged:
            ec = canonicalize(a, e)
            for j in j_set.difference(k_set):
                proj = project_to(a, ec, ec.node.difference([j]))
                if not in_zero_image(a, proj, s_set.difference(j_set)):
                    staged = False
                    break
            if staged:
                bottom = project_to(a, ec, s_set.difference(k_set))
                staged = in_zero_image(a, bottom, s_set.difference(j_set))
        if staged != direct_member:
            return Certificate.failing(
                "core constructed by stages",
                {"point": e.point, "chart": e.chart,
                 "direct": direct_member, "staged": staged})
        checked += 1
    return Certificate.passing(
        "core constructed by stages",
        [{"samples": checked, "presentations_equal": True}])


def core_morphism(tau, ambient, inner):
    """Restrict a natural morphism to the (ambient, inner)-cores."""
    if not tau.is_natural():
        raise InvalidInput("core restriction needs a natural morphism")
    spec = CoreSpec(ambient, inner)
    return partition_core_morphism(tau, spec.ambient, spec.blocks)


class PullbackPresentation:
    """The n-pullback with its projection from the total bundle."""

    def __init__(self, presentation, projection, certificate):
        self.presentation = presentation
        self.projection = projection
        self.certificate = certificate


def fiber_matrix(morphism, axis, base_elem):
    """Matrix of the morphism between the fibers over a base element.

    The fiber over an element of the axis-dropped node has one
    coordinate block per slot containing the axis; morphisms are linear
    on these blocks once the base slots are fixed.
    """
    src = morphism.source
    tgt = morphism.target
    n = src.n
    top = full_set(n)
    fiber_slots = [s for s in nonempty_subsets(top) if axis in s]
    src_cols = []
    for slot in fiber_slots:
        for j in range(src.dims.dim(slot)):
            src_cols.append((slot, j))
    tgt_rows = []
    for slot in fiber_slots:
        for i in range(tgt.dims.dim(slot)):
            tgt_rows.append((slot, i))

    lifted = zero_lift(src, base_elem, top)
    columns = []
    for slot, j in src_cols:
        comps = dict(lifted.components)
        v = [0] * src.dims.dim(slot)
        v[j] = 1
        comps[slot] = tuple(v)
        image = morphism.apply(element(src, top, lifted.chart, lifted.point, comps))
        col = []
        for tslot, i in tgt_rows:
            col.append(image.components[tslot][i])
        columns.append(col)
    return MultiTensor(len(tgt_rows), (len(src_cols),),
                       [col[r] for r in range(len(tgt_rows)) for col in columns])


def pullback(presentation):
    """The pullback bundle: the total slot trivialized, projection kept.

    Fiberwise surjectivity of the projection is certified by rank
    computations over sampled base elements in every chart.
    """
    a = presentation
    n = a.n
    top = full_set(n)
    p_pres = a.trimmed(a.dims.zeroed(lambda key: key != top))

    drop_top = identity_gauge(a.dims, p_pres.dims)
    projection = BundleMorphism(
        a, p_pres, {(c.id, pt): drop_top for c in a.charts for pt in c.domain})

    rng = random.Random(77)
    witnesses = []
    for c in a.charts:
        for pt in c.domain:
            for axis in range(1, n + 1):
                bases = [zero_element(a, top.difference([axis]), pt, c.id)]
                for _ in range(2):
                    bases.append(random_element(
                        rng, a, node=top.difference([axis]), point=pt, chart=c.id))
                for base_elem in bases:
                    m = fiber_matrix(projection, axis, base_elem)
                    if rank(m) != m.out_dim:
                        return PullbackPresentation(
                            p_pres, projection,
                            Certificate.failing(
                                "pullback projection fiberwise surjective",
                                {"chart": c.id, "point": pt, "axis": axis}))
            witnesses.append({"chart": c.id, "point": pt})
    certificate = Certificate.passing(
        "pullback projection fiberwise surjective", witnesses)
    return PullbackPresentation(p_pres, projection, certificate)


def ultracore_dims(dims, axis):
    """Dims of the ultracore pulled back over the axis-dropped node."""
    return dims.zeroed(lambda key: axis not in key or len(key) == dims.n)


def ultracore_pullback_presentation(presentation, axis):
    return presentation.trimmed(ultracore_dims(presentation.dims, axis))


def ultracore_inclusion(presentation, axis):
    """The inclusion of the pulled-back ultracore over the axis side."""
    a = presentation
    q_pres = ultracore_pullback_presentation(a, axis)
    inclusion = identity_gauge(q_pres.dims, a.dims)
    return q_pres, BundleMorphism(
        q_pres, a, {(c.id, pt): inclusion for c in a.charts for pt in c.domain})


def include_by_nested_sums(presentation, axis, core_elem, side_elem, ordering=None):
    """Rebuild a total element from an ultracore member and a side element.

    Starting from the core member, each step adds (over the next axis
    of the ordering) the zero lift of the side element's projection to
    the tail node seen so far.  The result does not depend on the
    chosen ordering of the side axes; callers may re-run with permuted
    orderings to confirm.
    """
    a = presentation
    top = full_set(a.n)
    side_axes = list(top.difference([axis]))
    if ordering is None:
        ordering = side_axes
    if sorted(ordering) != sorted(side_axes):
        raise InvalidInput("ordering must enumerate the side axes")
    if core_elem.point != side_elem.point:
        raise InvalidInput("elements over different points")
    if not is_core_member(a, core_elem, top):
        raise InvalidInput("first element is not in the ultracore")
    chart = a.canonical_chart(core_elem.point)
    out = transport(a, core_elem, chart)
    side = transport(a, side_elem, chart)
    n = a.n
    for l in range(1, n):
        tail = IndexSet(ordering[n - 1 - l:])
        e_tail = project_to(a, side, tail)
        out = add(a, out, zero_lift(a, e_tail, top), ordering[n - 1 - l])
    return out


def ultracore_sequence(presentation, axis):
    """The inclusion, projection, and exactness data over one side.

    Returns (inclusion morphism, projection morphism, certificate); the
    certificate carries the per-fiber rank checks, the dimension
    identity, and the ordering-independence witnesses.
    """
    a = presentation
    n = a.n
    top = full_set(n)
    if axis not in top:
        raise InvalidInput("axis %r outside the cube" % (axis,))
    pb = pullback(presentation)
    q_pres, iota = ultracore_inclusion(a, axis)
    pi = pb.projection

    rng = random.Random(axis * 1000 + 9)
    d_ultra = a.dims.dim(top)
    witnesses = []
    for c in a.charts:
        for pt in c.domain:
            bases = [zero_element(a, top.difference([axis]), pt, c.id),
                     random_element(rng, a, node=top.difference([axis]),
                                    point=pt, chart=c.id)]
            for base_elem in bases:
                m_pi = fiber_matrix(pi, axis, base_elem)
                q_base = element(q_pres, base_elem.node, base_elem.chart,
                                 base_elem.point,
                                 {k: v for k, v in base_elem.components.items()})
                m_iota = fiber_matrix(iota, axis, q_base)
                if rank(m_iota) != d_ultra:
                    return iota, pi, Certificate.failing(
                        "ultracore sequence exact",
                        {"chart": c.id, "point": pt, "reason": "inclusion not injective"})
                if rank(m_pi) != m_pi.out_dim:
                    return iota, pi, Certificate.failing(
                        "ultracore sequence exact",
                        {"chart": c.id, "point": pt, "reason": "projection not surjective"})
                if not compose_tensors(m_pi, [m_iota], [[0]], m_iota.in_dims).is_zero():
                    return iota, pi, Certificate.failing(
                        "ultracore sequence exact",
                        {"chart": c.id, "point": pt, "reason": "image not inside kernel"})
                kernel_dim = len(kernel_basis(m_pi))
                if kernel_dim != d_ultra:
                    return iota, pi, Certificate.failing(
                        "ultracore sequence exact",
                        {"chart": c.id, "point": pt,
                         "reason": "kernel dimension %d != ultracore %d"
                                   % (kernel_dim, d_ultra)})
            witnesses.append({"chart": c.id, "point": pt})

    total = a.dims.node_dim(top)
    p_total = pb.presentation.dims.node_dim(top)
    if total != d_ultra + p_total:
        return iota, pi, Certificate.failing(
            "ultracore sequence exact",
            {"reason": "dimension identity %d != %d + %d" % (total, d_ultra, p_total)})

    # ordering independence of the nested-sum inclusion
    side_axes = list(top.difference([axis]))
    orders = list(permutations(side_axes))
    if len(orders) > 3:
        orders = [orders[0], orders[len(orders) // 2], orders[-1]]
    pt = a.base.points[0]
    for _ in range(3):
        z = zero_element(a, top, pt)
        zc = dict(z.components)
        zc[top] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d_ultra))
        z = element(a, top, z.chart, pt, zc)
        side = random_element(rng, a, node=top.difference([axis]), point=pt)
        results = [
            include_by_nested_sums(a, axis, z, side, list(order))
            for order in orders
        ]
        for other in results[1:]:
            if not elements_equal(a, results[0], other):
                return iota, pi, Certificate.failing(
                    "ultracore sequence exact",
                    {"reason": "ordering dependence in the inclusion"})

    cert = Certificate.passing(
        "ultracore sequence exact",
        witnesses + [{"dimension_identity": [total, d_ultra, p_total]},
                     {"orderings_checked": len(orders)}])
    return iota, pi, cert
