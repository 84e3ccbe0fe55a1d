"""Cores, the n-pullback, and the ultracore exact sequence.

A core at (S, J) consists of the elements of the S-node whose chart
coordinates vanish on every slot that meets J without containing it;
the surviving slots are exactly the unions of blocks of the partition
{J, singletons of S minus J} of S.  Any partition of a node names a
core this way, over the cube of its blocks, and its ground is the node:
``partition_core`` takes that partition alone.  Since disjoint unions of
such slots are again such slots, transitions preserve the core
componentwise; the restriction is nevertheless re-checked rather than
assumed, each restricted component against the ambient one at its union
key, found without the reindexing map the restriction reads.

A core presentation is a view of the ambient one: it shares the ambient
base and charts, which keeps the induced morphism of a core a literal
restriction of the ambient data, and its ``transitions`` is a read-only
mapping whose entries are restricted from the ambient ones on first read.

A face, the sub-bundle on the nodes between ``inner`` and ``outer``, is
the core of the singletons of ``outer`` when ``inner`` is empty.  Over
a nonempty ``inner``, frozen along the zero section, its axes are the
free ones (``outer`` minus ``inner``): its slot at a set of free axes
groups the ambient slots with those free axes, one per subset of
``inner``, and its components hold copies of the ambient ones.
"""

import random
from fractions import Fraction
from itertools import accumulate, permutations, product
from math import lcm, prod

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
    IndexSet,
    Partition,
    _memoized,
    cube_plan,
    full_set,
    is_union_of_blocks,
    nonempty_subsets,
    subsets,
)
from .errors import InvalidInput
from .exactlin import (
    MultiTensor,
    compose_tensors,
    contract_slots,
    kernel_basis,
    rank,
    zero_vector,
)
from .gauge import DimAssignment, Gauge, diagonal_dims, identity_gauge
from .rand import random_element


def _core_blocks(ambient, inner):
    """The blocks of the (ambient, inner)-core: inner and the singletons
    of the rest of the ambient node."""
    ambient, inner = IndexSet(ambient), IndexSet(inner)
    if not inner or not inner.issubset(ambient):
        raise InvalidInput("core needs a nonempty inner subset of the ambient node")
    return Partition([inner] + [[i] for i in ambient.difference(inner)])


def partition_core(presentation, blocks):
    """The sub-bundle of union-of-blocks slots, as a presentation over
    the cube with one axis per block (canonical order); the ambient node
    is the ground of ``blocks``.  Each transition is restricted from the
    ambient one on its first read."""
    a = presentation
    blocks = Partition(blocks)
    if not blocks.ground.issubset(full_set(a.n)):
        raise InvalidInput("ambient node outside the cube")
    dims = diagonal_dims(a.dims, blocks)

    def restrict(key):
        g = a.transitions[key]
        # a transition of other dims (an unvalidated input) is restricted by its own
        return g.diagonal_restrict(
            blocks, (dims, dims) if g.source_dims == a.dims == g.target_dims else None)
    return a.derived(len(blocks), dims, restrict, blocks)


def face(presentation, outer, inner):
    """The face between ``inner`` and ``outer`` (see the module notes);
    each transition is made on first read, grouped by its own dims."""
    a = presentation
    outer, inner = IndexSet(outer), IndexSet(inner)
    if not inner.issubset(outer) or not outer.issubset(full_set(a.n)):
        raise InvalidInput("need inner <= outer <= full cube")
    if not inner:
        return partition_core(a, Partition([[i] for i in outer]))
    layout = _face_layout((a.n, outer, inner))
    return a.derived(layout[0], _grouped_dims(layout, a.dims)[1],
                     lambda key: _grouped_gauge(a.transitions[key], layout),
                     [IndexSet([i]) for i in outer.difference(inner)])


@_memoized(256)
def _face_layout(n_outer_inner):
    """For ``(n, outer, inner)``: the number of free axes; each face set
    (axis i the i-th free axis) with the ambient sets it groups, in order;
    and each face position with the ambient keys copied into it: their
    positions, and their target and blocks, each with its face axis."""
    n, outer, inner = n_outer_inner
    free = outer.difference(inner)
    label = {axis: pos for pos, axis in enumerate(free, 1)}
    slots = tuple((nu, tuple(IndexSet(free[i - 1] for i in nu).union(s) for s in subsets(inner)))
                  for nu in nonempty_subsets(full_set(len(free))))
    index, copies = cube_plan(len(free)).index, {}
    for at, (s, rho) in enumerate(cube_plan(n).keys):
        if s.issubset(outer) and not any(b.issubset(inner) for b in rho):
            blocks = [IndexSet(map(label.get, b.difference(inner))) for b in rho]
            sigma = Partition(blocks)
            axes = (0,) + tuple(1 + sigma.index(b) for b in blocks)
            copies.setdefault(index[(sigma.ground, sigma)], []).append(
                (at, tuple(zip((s,) + rho, axes))))
    return len(free), slots, tuple((at, tuple(keys)) for at, keys in copies.items())


def _grouped_dims(layout, dims):
    """``(offsets, face dims)`` of ambient ``dims``: ``offsets`` gives each
    ambient set's first coordinate in the face slot grouping it."""
    offsets, totals = {}, {}
    for nu, summands in layout[1]:
        *starts, totals[nu] = accumulate(map(dims.dim, summands), initial=0)
        offsets.update(zip(summands, starts))
    return offsets, DimAssignment(layout[0], totals)


def _grouped_gauge(g, layout):
    """The face gauge of ``g``, grouped by its own dims: a face component
    holds the numerators of the ambient ones it groups, over their lcm,
    at their offsets."""
    (in_offsets, in_dims), (out_offsets, out_dims) = (
        _grouped_dims(layout, dims) for dims in (g.source_dims, g.target_dims))
    tensors = [None] * len(in_dims.shapes)
    for face_at, keys in layout[2]:
        copies = [(g.tensors[at], sets) for at, sets in keys if g.tensors[at] is not None]
        shape = (out_dims.shapes[face_at][0],) + in_dims.shapes[face_at][1]
        den = lcm(*(tensor.integer_form()[1] for tensor, _ in copies))
        nums = [0] * prod(shape)
        for tensor, sets in copies:
            ints, own = tensor.integer_form()
            # per axis of the ambient tensor, each coordinate's face index times its stride
            steps = [[((in_offsets if axis else out_offsets)[s] + i) * prod(shape[axis + 1:])
                      for i in range(size)]
                     for (s, axis), size in zip(sets, (tensor.out_dim,) + tensor.in_dims)]
            for flat, x in zip(map(sum, product(*steps)), ints):
                nums[flat] = x * (den // own)
        tensors[face_at] = MultiTensor.from_integers(shape[0], shape[1:], nums, den)
    return Gauge.from_tensors(in_dims, out_dims, tensors)


def partition_core_morphism(morphism, blocks):
    """Restrict a morphism to the ``blocks`` partition cores of its source
    and target, keeping its class.  A restricted decomposition starts at
    the decomposed model of the core: a core's one-block components are
    the ambient ones at the unions of the blocks."""
    blocks = Partition(blocks)
    source = partition_core(morphism.source, blocks)
    target = partition_core(morphism.target, blocks)
    # every gauge of a morphism maps the source dims to the target dims
    return type(morphism)(source, target, {
        key: g.diagonal_restrict(blocks, (source.dims, target.dims))
        for key, g in morphism.data.items()})


def core(presentation, ambient, inner, check=True):
    """The (ambient, inner)-core as ``(blocks, presentation)``; ``check``
    certifies every restricted component (``core_closure_certificate``)."""
    blocks = _core_blocks(ambient, inner)
    pres = partition_core(presentation, blocks)
    if check and not core_closure_certificate(presentation, blocks).passed:
        raise InvalidInput("core restriction failed to match ambient evaluation")
    return blocks, pres


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


def core_closure_certificate(presentation, blocks):
    """Check that restricted transitions are the ambient components.

    For every transition and every key (nu, sigma) of the core plan, the
    core gauge's tensor must be the ambient tensor at the union key: the
    union of the blocks nu names, cut into the unions of the blocks each
    set of sigma names.  That key is found through the blocks' unions and
    the ambient plan's index, not through ``ambient_positions``, which the
    core view itself reads.
    """
    a = presentation
    blocks = Partition(blocks)
    core = partition_core(a, blocks)

    def union(positions):
        return IndexSet(i for pos in positions for i in blocks[pos - 1])
    unions = [(union(nu), Partition(map(union, sigma))) for nu, sigma in cube_plan(core.n).keys]
    index = cube_plan(a.n).index
    witnesses = []
    for key, g in sorted(a.transitions.items()):
        for (target, rho), tensor in zip(unions, core.transitions[key].tensors):
            if tensor != g.tensors[index[(target, rho)]]:
                return Certificate.failing(
                    "core restriction reproduces ambient evaluation",
                    {"transition": list(key), "slot": list(target)})
        witnesses.append({"transition": list(key)})
    return Certificate.passing(
        "core restriction reproduces ambient evaluation", witnesses)


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

    direct_blocks, direct = core(a, s_set, j_set, check=False)
    _, stage1 = core(a, s_set, k_set, check=False)
    # positions of the stage-1 axes that the second stage merges
    merged_positions = IndexSet(
        pos for pos, block in enumerate(stage1.axis_blocks, 1) if block.issubset(j_set))
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
            key: (vec if is_union_of_blocks(key, direct_blocks)
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
    return partition_core_morphism(tau, _core_blocks(ambient, inner))


class PullbackPresentation:
    """The n-pullback with its projection from the total bundle."""

    def __init__(self, presentation, projection, certificate):
        self.presentation = presentation
        self.projection = projection
        self.certificate = certificate


def fiber_matrix(morphism, axis, base_elem):
    """Matrix of the morphism between the fibers over a base element.

    The fiber over an element of the axis-dropped node has one
    coordinate block per slot containing the axis.  Each partition of
    such a slot T has one block S containing the axis, so the morphism is
    linear on the fiber: its (T, S) block sums, over the plan keys
    (T, rho) with S in rho, the gauge component contracted with the base
    element's vectors on the other blocks of rho.
    """
    src, tgt = morphism.source, morphism.target
    fiber = [s for s in nonempty_subsets(full_set(src.n)) if axis in s]
    *cols, width = accumulate((src.dims.dim(s) for s in fiber), initial=0)
    *rows, height = accumulate((tgt.dims.dim(s) for s in fiber), initial=0)
    col, row = dict(zip(fiber, cols)), dict(zip(fiber, rows))
    entries = [Fraction(0)] * (height * width)
    g = morphism.data[(base_elem.chart, base_elem.point)]
    for (target, rho), tensor in zip(cube_plan(src.n).keys, g.tensors):
        if tensor is not None and axis in target:
            block = next(b for b in rho if axis in b)
            term = contract_slots(tensor, {m: base_elem.components[b]
                                           for m, b in enumerate(rho) if b != block})
            for k, x in enumerate(term.entries):
                i, j = divmod(k, term.in_dims[0])
                entries[(row[target] + i) * width + col[block] + j] += x
    return MultiTensor(height, (width,), entries)


def _pullback_projection(presentation):
    """The pullback presentation, the top slot trimmed, and the projection
    onto it."""
    a = presentation
    top = full_set(a.n)
    p_pres = a.trimmed(a.dims.zeroed(lambda key: key != top))
    drop_top = identity_gauge(a.dims, p_pres.dims)
    return p_pres, BundleMorphism(
        a, p_pres, {(c.id, pt): drop_top for c in a.charts for pt in c.domain})


def pullback(presentation):
    """The pullback bundle: the total slot trivialized, projection kept.

    Fiberwise surjectivity of the projection is certified by the ranks of
    its fiber matrices over sampled base elements in every chart.
    """
    a = presentation
    top = full_set(a.n)
    p_pres, projection = _pullback_projection(a)
    rng = random.Random(77)
    witnesses = []
    for c in a.charts:
        for pt in c.domain:
            for axis in range(1, a.n + 1):
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
    p_pres, pi = _pullback_projection(a)
    _, iota = ultracore_inclusion(a, axis)

    rng = random.Random(axis * 1000 + 9)
    d_ultra = a.dims.dim(top)
    witnesses = []
    for c in a.charts:
        for pt in c.domain:
            bases = [zero_element(a, top.difference([axis]), pt, c.id),
                     random_element(rng, a, node=top.difference([axis]),
                                    point=pt, chart=c.id)]
            for base_elem in bases:
                # the pulled-back ultracore has the base node's dims, so one base serves both
                m_pi = fiber_matrix(pi, axis, base_elem)
                m_iota = fiber_matrix(iota, axis, base_elem)
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
    p_total = p_pres.dims.node_dim(top)
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
