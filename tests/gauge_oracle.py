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
"""

from tensor_oracle import apply, compose_tensors

from mvb.cubecat import IndexSet, Partition, coarsen, full_set, nonempty_subsets, partitions
from mvb.errors import DimensionMismatch, SingularMatrix
from mvb.exactlin import MultiTensor, invert_matrix, vec_add, zero_vector
from mvb.gauge import Gauge


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
