"""Partition-indexed families of multilinear maps.

A gauge assigns to every nonempty subset J of the cube axes and every
set partition of J a multilinear tensor into the J-slot.  Chart changes
of a multiple vector bundle, statomorphisms, and per-point morphism
data are all gauges; they differ only in the constraints placed on the
one-block ("linear part") components.

Composition follows the chart-cocycle sum: the (J, rho)-component of
g after f collects, over all ways of grouping rho's blocks, the outer
g-component on the merged blocks applied to inner f-components on each
group.  Inversion solves g . f = id by recursion on the block count of
rho: the one-block components invert as matrices, and each k-block
component of the inverse is determined by components with fewer blocks,
because every other term of the composition sum only involves inner
components on proper subgroups.

The shape of these sums depends on n alone.  ``cubecat.cube_plan(n)``
enumerates it once per n, on first use: the (J, rho) keys in component
order and, per key, one term per grouping of rho's blocks, naming the
outer key, the inner keys and the slots each inner component consumes
by position in the key list.  A gauge stores its components once, as
``tensors``: one entry per plan key in plan order, ``None`` for every
all-zero component, so no tensor is allocated for a zero component.
``components`` is a read-only mapping view over the same store that
reads an absent key as a zero tensor of its shape.  The shape of the
component at each plan position comes from ``DimAssignment.shapes``, a
table by plan position built once per distinct dimension assignment
and shared; construction, composition, inversion and restriction read
it, and ``Gauge.from_tensors`` takes components already in plan order.
Restriction and trimming take the tensors of a checked gauge by
position and check none of them again.

Composition and inversion walk the plan and skip every term whose
outer or inner component is zero, since such a term contributes
nothing to the exact sum.  ``_sum_terms`` hands the remaining terms of a
key to the one contraction kernel of ``exactlin``, which runs each by
its gather program into integer numerators over the lcm of their
denominators.
When every dimension on both sides is 0 or 1
(``DimAssignment.unit``), a nonzero component is one rational, and the
walk adds each key's term products of ``(numerator, denominator)``
pairs (read by ``integer_form``) over their lcm instead: the same
integers, as a one-entry tensor's integer form is its entry in lowest
terms.  ``_compose_at`` runs those sums for requested keys only:
composition asks for every key, and a caller that reads one component
of a composite (the uniform paste in ``split``) asks for the keys that
component's terms read.
"""

from collections.abc import Mapping
from itertools import combinations
from math import gcd, lcm

from .cubecat import (
    IndexSet,
    Partition,
    _memoized,
    _unions,
    ambient_positions,
    cube_plan,
    full_set,
    nonempty_subsets,
)
from .errors import DimensionMismatch, SingularMatrix
from .exactlin import (
    MultiTensor,
    _sum_of_composites,
    compose_tensors,
    invert_matrix,
    vec_add,
    zero_vector,
)


class DimAssignment:
    """A dimension for every nonempty subset of {1..n}."""

    def __init__(self, n, dims):
        self.n = int(n)
        self.dims = {}
        for key, value in dims.items():
            key = IndexSet(key)
            if not key or key[-1] > self.n:
                raise DimensionMismatch("bad dimension key %r for n=%d" % (key, self.n))
            if int(value) < 0:
                raise DimensionMismatch("negative dimension at %r" % (key,))
            self.dims[key] = int(value)
        # Walking the subsets in (size, lexicographic) order stops at the
        # first missing one, after at most len(dims) present ones.  The
        # singletons are walked lazily, so a huge n never builds {1..n}.
        for i in range(1, self.n + 1):
            if (i,) not in self.dims:
                raise DimensionMismatch("missing dimension for %s" % ([i],))
        for size in range(2, self.n + 1):
            for subset in combinations(range(1, self.n + 1), size):
                if subset not in self.dims:
                    raise DimensionMismatch("missing dimension for %s" % (list(subset),))
        self._shapes = None
        self.unit = all(d <= 1 for d in self.dims.values())

    @property
    def shapes(self):
        """Per ``cube_plan(n)`` position (S, rho), the pair ``(dim of S,
        dims of rho's blocks)``: one table per distinct assignment, built
        on first use and shared."""
        if self._shapes is None:
            self._shapes = _shape_table(
                (self.n, tuple(self.dims[s] for s in nonempty_subsets(full_set(self.n)))))
        return self._shapes

    def dim(self, subset):
        return self.dims[IndexSet(subset)]

    def zeroed(self, keep):
        """These dims with every slot whose key fails ``keep`` set to 0;
        the keys are unchanged, so nothing is checked again."""
        return _derived_dims((self.n, tuple(
            self.dims[s] if keep(s) else 0 for s in nonempty_subsets(full_set(self.n)))))

    def node_dim(self, node):
        """Total fiber dimension of the node over the absolute base."""
        node = IndexSet(node)
        return sum(d for key, d in self.dims.items() if key.issubset(node))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, DimAssignment)
            and self.n == other.n
            and self.dims == other.dims
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.dims.items()))))

    def __repr__(self):
        return "DimAssignment(n=%d, %s)" % (
            self.n,
            {tuple(k): v for k, v in sorted(self.dims.items())},
        )


@_memoized(256)
def _derived_dims(n_and_dims):
    """The ``DimAssignment`` of ``(n, dims in subset order)``, derived from
    checked dims, unchecked; equal ones are one shared object."""
    n, dims = n_and_dims
    out = DimAssignment.__new__(DimAssignment)
    out.n, out.dims, out._shapes = n, dict(zip(nonempty_subsets(full_set(n)), dims)), None
    out.unit = all(d <= 1 for d in dims)
    return out


@_memoized(64)
def _shape_table(n_and_dims):
    """``DimAssignment.shapes`` for ``(n, dims in subset order)``; equal
    shapes are one shared tuple."""
    n, dims = n_and_dims
    by_subset = dict(zip(nonempty_subsets(full_set(n)), dims))
    shared = {}
    return tuple(
        shared.setdefault(shape, shape)
        for shape in ((by_subset[s], tuple(by_subset[b] for b in rho))
                      for s, rho in cube_plan(n).keys))


def singleton_dims(dims):
    """Copy of ``dims`` with every non-singleton dimension set to zero."""
    return dims.zeroed(lambda key: len(key) == 1)


def diagonal_dims(dims, blocks):
    """Dimensions over the cube of the given disjoint blocks.

    Axis positions follow the canonical block order; the dimension of a
    set of positions is the ambient dimension of the union of the
    corresponding blocks, read at the ambient position of its one-block key.
    """
    blocks = Partition(blocks)
    shapes, plan = dims.shapes, cube_plan(len(blocks))
    index, unions = cube_plan(dims.n).mask_index, _unions(blocks)
    # the one-block keys come in subset order
    return _derived_dims((len(blocks), tuple(
        shapes[index[(unions[plan.masks[at][0]],)]][0] for at in plan.one_block)))


class Gauge:
    """A family of components from one DimAssignment to another.

    ``tensors`` is the one store: a tensor per key of ``cube_plan(n)``,
    in plan order, with ``None`` in place of every all-zero one.  The
    constructor takes a mapping from plan keys to tensors and
    ``from_tensors`` a sequence in plan order; both check the shape of
    each tensor given against the dims' ``shapes`` and allocate nothing
    for absent or zero components.  ``components`` reads the store as a
    mapping over every plan key.
    """

    def __init__(self, source_dims, target_dims, components):
        index = cube_plan(source_dims.n).index
        tensors = [None] * len(index)
        for key, tensor in components.items():
            at = index.get(key)
            if at is None:
                raise DimensionMismatch(
                    "unknown component key %r: not a (nonempty subset of {1..%d},"
                    " partition of it) pair" % (key, source_dims.n))
            tensors[at] = tensor
        self._store(source_dims, target_dims, tensors)

    @classmethod
    def from_tensors(cls, source_dims, target_dims, tensors):
        """The gauge whose components in plan order are ``tensors``
        (``None`` for a zero one), checked as the constructor checks."""
        gauge = cls.__new__(cls)
        gauge._store(source_dims, target_dims, list(tensors))
        return gauge

    def _store(self, source_dims, target_dims, tensors):
        if source_dims.n != target_dims.n:
            raise DimensionMismatch("source and target live over different cubes")
        self.n = source_dims.n
        self.source_dims = source_dims
        self.target_dims = target_dims
        out_shapes, in_shapes = target_dims.shapes, source_dims.shapes
        if len(tensors) != len(in_shapes):
            raise DimensionMismatch("expected %d components in plan order, got %d"
                                    % (len(in_shapes), len(tensors)))
        for at, tensor in enumerate(tensors):
            if tensor is None:
                continue
            out_dim, in_dims = out_shapes[at][0], in_shapes[at][1]
            if tensor.out_dim != out_dim or tensor.in_dims != in_dims:
                subset, rho = cube_plan(self.n).keys[at]
                raise DimensionMismatch(
                    "component (%s, %s) has shape %dx%s, expected %dx%s"
                    % (list(subset), [list(b) for b in rho],
                       tensor.out_dim, list(tensor.in_dims),
                       out_dim, list(in_dims))
                )
            if tensor.is_zero():
                tensors[at] = None
        self.tensors = tuple(tensors)

    @property
    def components(self):
        """Every component by plan key, zeros included (a read-only view)."""
        return _Components(self)

    def component(self, subset, rho):
        return self.components[(IndexSet(subset), Partition(rho))]

    def linear_part(self, subset):
        subset = IndexSet(subset)
        return self.components[(subset, Partition([subset]))]

    def is_square(self):
        return self.source_dims == self.target_dims

    def is_identity(self):
        return self.is_statomorphism() and self.is_block_diagonal()

    def is_statomorphism(self):
        """Identity one-block parts over equal dims; nonlinear parts free.
        The identity on a 0-dimensional slot is the empty, zero tensor."""
        plan, tensors, dims = cube_plan(self.n), self.tensors, self.source_dims.dims
        return self.is_square() and all(
            dims[plan.keys[at][0]] == 0 if tensors[at] is None else tensors[at].is_identity()
            for at in plan.one_block)

    def is_block_diagonal(self):
        return all(
            tensor is None
            for (_, rho), tensor in zip(cube_plan(self.n).keys, self.tensors)
            if len(rho) > 1
        )

    def evaluate(self, vectors):
        """Apply the family to per-subset input vectors.

        ``vectors`` maps each nonempty subset of some node to its
        coordinate vector; the support must be downward closed (all
        nonempty subsets of a fixed node), which makes every partition
        block available.
        """
        support = {IndexSet(k): tuple(v) for k, v in vectors.items()}
        for subset, vec in support.items():
            if len(vec) != self.source_dims.dim(subset):
                raise DimensionMismatch(
                    "input at %s has length %d, expected %d"
                    % (list(subset), len(vec), self.source_dims.dim(subset))
                )
        out = {subset: zero_vector(self.target_dims.dim(subset)) for subset in support}
        for (subset, rho), tensor in zip(cube_plan(self.n).keys, self.tensors):
            if tensor is not None and subset in out:
                out[subset] = vec_add(out[subset], tensor.apply([support[b] for b in rho]))
        return out

    def compose(self, other):
        """The gauge acting as ``self`` after ``other``."""
        if other.target_dims != self.source_dims:
            raise DimensionMismatch("middle dimensions do not match")
        return _shaped_gauge(other.source_dims, self.target_dims,
                             _compose_at(self, other, range(len(self.tensors))))

    def invert(self):
        """Two-sided inverse; requires invertible one-block parts.

        Walks the plan keys in order, so every inner component a residue
        term needs (on a proper subset) is already solved; terms with a
        zero outer or inner component are skipped.
        """
        if not self.is_square():
            raise DimensionMismatch("only square gauges invert")
        if self.source_dims.unit:
            return _invert_scalars(self)
        plan = cube_plan(self.n)
        shapes = self.source_dims.shapes
        negated = {}  # minus the inverse of the one-block part, per subset
        solved = [None] * len(plan.keys)
        for at, ((subset, rho), terms) in enumerate(zip(plan.keys, plan.terms)):
            if len(rho) == 1:
                try:
                    tensor = invert_matrix(self.tensors[at] or MultiTensor.zeros(*shapes[at]))
                except SingularMatrix:
                    raise SingularMatrix(
                        "one-block part at %s is singular" % (list(subset),)
                    )
                negated[subset] = tensor.scaled(-1)
            else:
                total_in = shapes[at][1]
                # terms[0] holds the unknown component, solved for below
                residue = _sum_terms(terms[1:], self.tensors, solved, total_in)
                if residue is None:
                    continue
                tensor = compose_tensors(negated[subset], [residue],
                                         [range(len(rho))], total_in)
            if not tensor.is_zero():
                solved[at] = tensor
        return Gauge.from_tensors(self.source_dims, self.target_dims, solved)

    def diagonal_restrict(self, blocks, dims=None):
        """Restrict to targets and partitions built from unions of blocks.

        The result is a gauge over the cube whose axis i is the i-th
        block in canonical order; components come from the ambient
        components at the corresponding unions.  This realizes both face
        restriction (singleton blocks) and core reindexing.

        ``dims`` may give the restricted (source, target) dims that
        ``diagonal_dims`` makes of this gauge's, for a caller restricting
        many gauges of the same dims.  Nothing is checked again: the
        ambient component a restricted key (nu, sigma) stands for has its
        shape under the restricted dims, and zero ones are already ``None``.
        """
        blocks = Partition(blocks)
        if dims is None:
            src = diagonal_dims(self.source_dims, blocks)
            dims = src, (src if self.target_dims == self.source_dims
                         else diagonal_dims(self.target_dims, blocks))
        tensors = self.tensors
        return _trusted_gauge(
            *dims, tuple(tensors[at] for at in ambient_positions((self.n, blocks))))

    def trimmed(self, dims):
        """The gauge from ``dims`` to ``dims`` keeping every component whose
        shape fits ``dims``; the others become zero.

        Restricts a gauge to a sub-bundle with smaller dimensions, such as
        a pullback or an ultracore.
        """
        return _trusted_gauge(dims, dims, tuple(
            tensor if tensor is not None and (tensor.out_dim, tensor.in_dims) == shape
            else None
            for tensor, shape in zip(self.tensors, dims.shapes)))

    def __eq__(self, other):
        return (
            isinstance(other, Gauge)
            and self.source_dims == other.source_dims
            and self.target_dims == other.target_dims
            and self.tensors == other.tensors
        )

    def __hash__(self):
        return hash((self.source_dims, self.target_dims, self.tensors))

    def __repr__(self):
        return "Gauge(n=%d)" % self.n


def _trusted_gauge(source_dims, target_dims, tensors):
    """The gauge of ``tensors``, taken by position from checked gauges, unchecked."""
    gauge = Gauge.__new__(Gauge)
    gauge.n, gauge.source_dims, gauge.target_dims = source_dims.n, source_dims, target_dims
    gauge.tensors = tensors
    return gauge


class _Components(Mapping):
    """A gauge's components by plan key, in plan order.  An absent key
    reads as a fresh zero tensor of its shape; a key off the plan raises
    ``KeyError``.  The gauge returns a new view on every read and keeps
    none, so a gauge holds no reference back to itself."""

    __slots__ = ("gauge",)

    def __init__(self, gauge):
        self.gauge = gauge

    def __getitem__(self, key):
        g = self.gauge
        at = cube_plan(g.n).index[key]
        tensor = g.tensors[at]
        if tensor is None:
            return MultiTensor.zeros(g.target_dims.shapes[at][0], g.source_dims.shapes[at][1])
        return tensor

    def __iter__(self):
        return iter(cube_plan(self.gauge.n).keys)

    def __len__(self):
        return len(self.gauge.tensors)


def _shaped_gauge(source_dims, target_dims, tensors):
    """The gauge of shape-checked ``tensors``, all-zero ones made ``None``."""
    return _trusted_gauge(source_dims, target_dims, tuple(
        None if tensor is None or tensor.is_zero() else tensor for tensor in tensors))


def _compose_at(outer, inner, positions):
    """The components of ``outer`` after ``inner`` at the requested plan
    positions, in plan order as a gauge's ``tensors``; ``None`` at every
    other position and where no term survives.  A result can be the
    inner side of a further restricted composition whose terms read only
    the positions it holds."""
    terms, shapes = cube_plan(inner.n).terms, inner.source_dims.shapes
    out = [None] * len(terms)
    if outer.target_dims.unit and inner.target_dims.unit and inner.source_dims.unit:
        outers, inners = _scalars(outer.tensors), _scalars(inner.tensors)
        for at in positions:
            num, den = _scalar_sum(terms[at], outers, inners)
            if num:
                out[at] = MultiTensor.from_integers(1, shapes[at][1], [num], den)
    else:
        for at in positions:
            out[at] = _sum_terms(terms[at], outer.tensors, inner.tensors, shapes[at][1])
    return out


def _sum_terms(terms, outers, inners, total_in):
    """Sum of the composition terms whose outer and inner components are
    all nonzero, made in integer form; ``None`` when there is no such
    term.  ``outers`` and ``inners`` hold tensors in plan order, ``None``
    for zero ones."""
    live = []
    for outer_at, inner_at, slot_groups in terms:
        outer = outers[outer_at]
        if outer is None:
            continue
        args = [inners[i] for i in inner_at]
        if all(args):
            live.append((outer, args, slot_groups))
    return _sum_of_composites(live, live[0][0].out_dim, total_in) if live else None


def _invert_scalars(gauge):
    """``Gauge.invert`` over unit dims, on ``_scalars``."""
    plan, shapes = cube_plan(gauge.n), gauge.source_dims.shapes
    given, solved = _scalars(gauge.tensors), [None] * len(shapes)
    for at, ((subset, rho), terms) in enumerate(zip(plan.keys, plan.terms)):
        if len(rho) > 1:
            # terms[0] reads the unknown and the one-block part of subset
            num, den = _scalar_sum(terms[1:], given, solved)
            if num:
                p, q = solved[terms[0][0]]
                g = gcd(p * num, q * den)
                solved[at] = -p * num // g, q * den // g
        elif shapes[at][0]:
            if given[at] is None:
                raise SingularMatrix("one-block part at %s is singular" % (list(subset),))
            p, q = given[at]
            solved[at] = (q, p) if p > 0 else (-q, -p)
    return _trusted_gauge(gauge.source_dims, gauge.target_dims, tuple(
        MultiTensor.from_integers(1, shape[1], [pair[0]], pair[1]) if pair else None
        for pair, shape in zip(solved, shapes)))


def _scalars(tensors):
    """A ``(numerator, denominator)`` pair per one-entry tensor, or ``None``."""
    forms = [((0,), 1) if tensor is None else tensor.integer_form() for tensor in tensors]
    return [(nums[0], den) if any(nums) else None for nums, den in forms]


def _scalar_sum(terms, outers, inners):
    """``_sum_terms`` over ``_scalars`` as an unreduced ``(numerator,
    denominator)``: the live terms' pair products over their lcm."""
    num, den = 0, 1
    for outer_at, inner_at, _ in terms:
        outer = outers[outer_at]
        if outer is None:
            continue
        p, q = outer
        for i in inner_at:
            inner = inners[i]
            if inner is None:
                break
            p *= inner[0]
            q *= inner[1]
        else:
            common = lcm(den, q)
            num, den = num * (common // den) + p * (common // q), common
    return num, den


def identity_gauge(source_dims, target_dims=None):
    """Identity one-block parts wherever the source and target dimensions
    agree, every other component zero; the identity of ``source_dims``
    when no target is given.

    With different dimensions on a slot one side is 0 there in every
    use (a pullback projection, an ultracore or vacant inclusion), so
    the result is the coordinate inclusion or projection.
    """
    if target_dims is None:
        target_dims = source_dims
    return Gauge.from_tensors(source_dims, target_dims, [
        MultiTensor.identity(src[0]) if len(src[1]) == 1 and src[0] == tgt[0] else None
        for src, tgt in zip(source_dims.shapes, target_dims.shapes)])

