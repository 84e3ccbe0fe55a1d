"""Element-level paste of a splitting, kept as a test oracle.

The library pastes a splitting from gauge components: each chart's
local splitting gauge is conjugated into the canonical chart and the top
components are averaged.  This module is the construction it replaces.
Per point and per basis tuple of the singleton slots, every chart's
right inverse is evaluated on the arguments transported into that
chart, its top slot linearized over axes 2..k by frame interpolation,
and the value moved back to the canonical chart and weighted.  It reads
the builder's own sub-splittings of the key's faces, so it checks the
paste one key at a time.

A ``theta_top`` hook is read here at the transported first-axis vector
and at basis vectors in the other slots; the library reads it on basis
tuples only.  The two agree whenever the hook is linear in its first
slot.
"""

from fractions import Fraction
from itertools import product

from mvb.atlas import associated_vacant
from mvb.bundle import morphism_from_canonical
from mvb.cubecat import IndexSet, Partition, full_set, nonempty_subsets
from mvb.exactlin import MultiTensor, unit_vector, vec_add, vec_scale, zero_vector
from mvb.gauge import Gauge


def _face_tensors(builder, key, obj):
    """Multilinear face components from the builder's sub-splittings."""
    k = obj.n
    out = {}
    for nu in nonempty_subsets(full_set(k)):
        if len(nu) == k:
            continue
        if len(nu) == 1:
            d = obj.dims.dim(nu)
            for c in obj.charts:
                for p in c.domain:
                    out[(nu, c.id, p)] = MultiTensor.identity(d)
            continue
        sub_split = builder.splitting(Partition([key[pos - 1] for pos in nu]))
        sub_top = full_set(len(nu))
        singles = Partition([[i] for i in sub_top])
        for c in obj.charts:
            for p in c.domain:
                out[(nu, c.id, p)] = sub_split.data[(c.id, p)].components[
                    (sub_top, singles)]
    return out


def _frame_interpolate(fn, slot, dim, out_dim):
    def interpolated(args):
        acc = zero_vector(out_dim)
        for j, beta in enumerate(args[slot]):
            if beta == 0:
                continue
            basis_args = list(args)
            basis_args[slot] = unit_vector(dim, j)
            acc = vec_add(acc, vec_scale(beta, fn(basis_args)))
        return acc
    return interpolated


def _linearized_top(theta_top, obj, chart, point):
    k = obj.n
    d_top = obj.dims.dim(full_set(k))
    base = theta_top or (lambda c, p, a: zero_vector(d_top))
    fn = lambda a: base(chart, point, a)
    block_dims = [obj.dims.dim(IndexSet([i])) for i in range(1, k + 1)]
    for axis in range(2, k + 1):
        fn = _frame_interpolate(fn, axis - 1, block_dims[axis - 1], d_top)
    return fn


def _local_value(theta_top, obj, face_tensors, chart, point, args):
    """Chart-local splitting value on singleton arguments."""
    k = obj.n
    top = full_set(k)
    comps = {}
    for nu in nonempty_subsets(top):
        if len(nu) == k:
            continue
        comps[nu] = face_tensors[(nu, chart, point)].apply(
            [args[i - 1] for i in nu])
    comps[top] = _linearized_top(theta_top, obj, chart, point)(args)
    return comps


def _paste_top(builder, obj, face_tensors):
    """Pasted top component per point, in the canonical chart."""
    k = obj.n
    top = full_set(k)
    block_dims = [obj.dims.dim(IndexSet([i])) for i in range(1, k + 1)]
    d_top = obj.dims.dim(top)
    size = 1
    for d in block_dims:
        size *= d
    out = {}
    for p in builder.A.base:
        at = sorted(obj.charts_at(p))
        can = at[0]
        if builder.strategy == "least-chart":
            weights = {can: Fraction(1)}
        else:
            weights = {cid: Fraction(1, len(at)) for cid in at}

        columns = []
        for basis in product(*map(range, block_dims)):
            acc = zero_vector(d_top)
            for cid, w in weights.items():
                to_chart = obj.transition(cid, can, p)
                args = [
                    to_chart.linear_part(IndexSet([i + 1])).apply(
                        [unit_vector(block_dims[i], basis[i])])
                    for i in range(k)
                ]
                local = _local_value(builder.theta_top, obj, face_tensors, cid, p, args)
                moved = obj.transition(can, cid, p).evaluate(local)
                acc = vec_add(acc, vec_scale(w, moved[top]))
            columns.append(acc)
        entries = [Fraction(0)] * (d_top * size)
        for j, col in enumerate(columns):
            for i0 in range(d_top):
                entries[i0 * size + j] = col[i0]
        out[p] = MultiTensor(d_top, tuple(block_dims), entries)
    return out


def paste_splitting_data(builder, key):
    """Splitting data at one builder key by the element-level paste, from
    the builder's own sub-splittings of the key's faces."""
    obj = builder.object(key)
    if obj.n <= 1:
        return builder.splitting(key).data
    k = obj.n
    vac = associated_vacant(obj)
    face_tensors = _face_tensors(builder, key, obj)
    top_can = _paste_top(builder, obj, face_tensors)
    family = {}
    for p in builder.A.base:
        can = obj.canonical_chart(p)
        comps = {}
        for nu in nonempty_subsets(full_set(k)):
            singles = Partition([[i] for i in nu])
            if len(nu) == k:
                comps[(nu, singles)] = top_can[p]
            else:
                comps[(nu, singles)] = face_tensors[(nu, can, p)]
        family[p] = Gauge(vac.dims, obj.dims, comps)
    return morphism_from_canonical(vac, obj, family).data
