"""Dense gauge composition, inversion and evaluation, kept as oracles.

These are the straightforward forms of ``Gauge.compose``,
``Gauge.invert`` and ``Gauge.evaluate``: every (S, rho) component is
rebuilt by enumerating the partitions of S and, for each, every grouping
of rho's blocks through ``coarsen``, and every term is contracted even
when its outer or inner component is zero.  The library walks a per-n
plan of the same sums and skips the zero terms; the differential tests
compare the two.  Every contraction and evaluation runs on the
entry-by-entry ``Fraction`` kernels of ``tensor_oracle``, not on the
library's integer kernels.

``permute_gauge`` relabels the cube axes of a gauge, reordering each
tensor's input slots to the new canonical block order.  No library path
relabels axes; tests use it to state symmetries such as the flip of the
double tangent bundle.
"""

from itertools import product
from math import prod
from operator import mul

from tensor_oracle import apply, compose_tensors

from mvb.cubecat import (
    IndexSet,
    Partition,
    coarsen,
    cube_plan,
    full_set,
    nonempty_subsets,
    partitions,
)
from mvb.errors import DimensionMismatch, SingularMatrix
from mvb.exactlin import MultiTensor, invert_matrix, vec_add, zero_vector
from mvb.gauge import DimAssignment, Gauge


def dense_compose(g, f):
    """The gauge acting as ``g`` after ``f``, every term contracted."""
    if f.target_dims != g.source_dims:
        raise DimensionMismatch("middle dimensions do not match")
    components = {}
    for subset in nonempty_subsets(full_set(g.n)):
        for rho in partitions(subset):
            k = len(rho)
            total_in = f.source_dims.block_dims(rho)
            acc = MultiTensor.zeros(g.target_dims.dim(subset), total_in)
            for grouping in partitions(full_set(k)):
                coarse = coarsen(rho, grouping)
                outer = g.components[(subset, coarse)]
                inners = []
                slot_groups = []
                for group in grouping:
                    positions = [pos - 1 for pos in group]
                    group_blocks = Partition([rho[pos] for pos in positions])
                    union = group_blocks.ground
                    inners.append(f.components[(union, group_blocks)])
                    slot_groups.append(positions)
                term = compose_tensors(outer, inners, slot_groups, total_in)
                acc = acc.plus(term)
            components[(subset, rho)] = acc
    return Gauge(f.source_dims, g.target_dims, components)


def dense_invert(g):
    """Two-sided inverse by recursion on block count, every term contracted."""
    if not g.is_square():
        raise DimensionMismatch("only square gauges invert")
    inv_linear = {}
    for subset in nonempty_subsets(full_set(g.n)):
        tensor = g.linear_part(subset)
        try:
            inv_linear[subset] = invert_matrix(tensor)
        except SingularMatrix:
            raise SingularMatrix("one-block part at %s is singular" % (list(subset),))
    components = {}
    for subset in nonempty_subsets(full_set(g.n)):
        components[(subset, Partition([subset]))] = inv_linear[subset]
        for rho in partitions(subset):
            k = len(rho)
            if k == 1:
                continue
            total_in = g.source_dims.block_dims(rho)
            residue = MultiTensor.zeros(g.target_dims.dim(subset), total_in)
            for grouping in partitions(full_set(k)):
                if len(grouping) == 1:
                    continue  # the unknown term, solved for below
                coarse = coarsen(rho, grouping)
                outer = g.components[(subset, coarse)]
                inners = []
                slot_groups = []
                for group in grouping:
                    positions = [pos - 1 for pos in group]
                    group_blocks = Partition([rho[pos] for pos in positions])
                    inners.append(components[(group_blocks.ground, group_blocks)])
                    slot_groups.append(positions)
                residue = residue.plus(
                    compose_tensors(outer, inners, slot_groups, total_in))
            components[(subset, rho)] = compose_tensors(
                inv_linear[subset].scaled(-1), [residue], [list(range(k))], total_in)
    return Gauge(g.source_dims, g.target_dims, components)


def dense_evaluate(g, vectors):
    """Apply every component of ``g`` to per-subset input vectors."""
    support = {IndexSet(k): tuple(v) for k, v in vectors.items()}
    out = {}
    for subset in support:
        acc = zero_vector(g.target_dims.dim(subset))
        for rho in partitions(subset):
            args = [support[b] for b in rho]
            acc = vec_add(acc, apply(g.components[(subset, rho)], args))
        out[subset] = acc
    return out


def reorder_inputs(tensor, new_to_old):
    """Permute the input blocks of a tensor.

    ``new_to_old[m]`` is the old position feeding new slot ``m``.
    """
    k = len(tensor.in_dims)
    assert sorted(new_to_old) == list(range(k))
    new_in = tuple(tensor.in_dims[o] for o in new_to_old)
    nums, den = tensor.integer_form()
    # the flat stride of the old block feeding each new slot
    strides = [prod(tensor.in_dims[o + 1:]) for o in new_to_old]
    in_size = prod(new_in)
    picked = [nums[i0 * in_size + sum(map(mul, strides, new_idx))]
              for i0 in range(tensor.out_dim) for new_idx in product(*map(range, new_in))]
    return MultiTensor.from_integers(tensor.out_dim, new_in, picked, den)


def permute_gauge(gauge, mapping):
    """Relabel the cube axes of a square-shaped index permutation.

    ``mapping`` is a bijection on {1..n}.  Canonical block order may
    change under relabeling, so tensor input slots are reordered to
    match.
    """
    n = gauge.n
    assert sorted(mapping) == list(range(1, n + 1))
    assert sorted(mapping.values()) == list(range(1, n + 1))

    def relabel_set(subset):
        return IndexSet(mapping[i] for i in subset)

    src = DimAssignment(n, {relabel_set(k): v for k, v in gauge.source_dims.dims.items()})
    tgt = DimAssignment(n, {relabel_set(k): v for k, v in gauge.target_dims.dims.items()})
    components = {}
    for (subset, rho), tensor in zip(cube_plan(n).keys, gauge.tensors):
        if tensor is None:
            continue
        new_subset = relabel_set(subset)
        images = [relabel_set(b) for b in rho]
        new_rho = Partition(images)
        # position in new canonical order -> position among images
        new_to_old = [images.index(block) for block in new_rho]
        components[(new_subset, new_rho)] = reorder_inputs(tensor, new_to_old)
    return Gauge(src, tgt, components)
