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
by position in the key list.  A gauge stores its components once, one
per plan key in plan order, ``None`` for each all-zero one.  Over unit
dims (every dimension on both sides 0 or 1, ``DimAssignment.unit``) a
nonzero component is one rational and the store is ``pairs``, each a
reduced ``(numerator, denominator)``; ``tensors`` is made from them when
a tensor reader (``evaluate``, ``cores``, ``sections``) first asks.
Otherwise the store is ``tensors``.  ``components`` reads a gauge as a
mapping, an absent key as a zero tensor of the shape that
``DimAssignment.shapes`` gives its plan position.  Restriction and
trimming take a checked gauge's store by position, unchecked.

Composition and inversion walk the plan and skip every term whose
outer or inner component is zero, since such a term contributes
nothing to the exact sum.  ``_sum_terms`` hands the remaining terms of a
key to the one contraction kernel of ``exactlin``, which runs each by
its gather program into integer numerators over the lcm of their
denominators; over pairs ``_scalar_sum`` adds the term products over
their lcm, the same integers.  ``_compose_at`` runs those sums for
requested keys only: composition asks for every key, the uniform paste
in ``split`` for the keys one component of a composite reads.  An
operand that is exactly the identity is not composed: g . I = I . g = g.
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

    Its one store is ``pairs`` over unit dims (source and target), else
    ``tensors`` with ``pairs`` None.  The constructor takes a mapping from
    plan keys to tensors and ``from_tensors`` a sequence in plan order;
    both check each tensor's shape against the dims' ``shapes``.
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
        out_shapes, in_shapes = target_dims.shapes, source_dims.shapes
        if len(tensors) != len(in_shapes):
            raise DimensionMismatch("expected %d components in plan order, got %d"
                                    % (len(in_shapes), len(tensors)))
        for at, tensor in enumerate(tensors):
            if tensor is None:
                continue
            out_dim, in_dims = out_shapes[at][0], in_shapes[at][1]
            if tensor.out_dim != out_dim or tensor.in_dims != in_dims:
                subset, rho = cube_plan(source_dims.n).keys[at]
                raise DimensionMismatch("component (%s, %s) has shape %dx%s, expected %dx%s" % (
                    list(subset), [list(b) for b in rho], tensor.out_dim,
                    list(tensor.in_dims), out_dim, list(in_dims)))
            if tensor.is_zero():
                tensors[at] = None
        self._keep(source_dims, target_dims, tuple(tensors), False)

    def _keep(self, source_dims, target_dims, store, paired):
        """Keep ``store`` (pairs if ``paired``) as the store the dims call for."""
        self.n, self.source_dims, self.target_dims = source_dims.n, source_dims, target_dims
        if source_dims.unit and target_dims.unit:
            # a nonzero one-entry tensor's integer form is its entry in lowest terms
            self.pairs, self._tensors = store if paired else tuple([None if t is None else (
                (form := t.integer_form())[0][0], form[1]) for t in store]), None
        else:
            self.pairs = None
            self._tensors = _pair_tensors(store, source_dims.shapes) if paired else store

    def _stored(self):
        """The one store and whether it holds pairs."""
        return (self.tensors, False) if self.pairs is None else (self.pairs, True)

    @property
    def tensors(self):
        """The components as tensors in plan order, ``None`` for zero
        ones; over unit dims made from ``pairs`` on first read."""
        if self._tensors is None:
            self._tensors = _pair_tensors(self.pairs, self.source_dims.shapes)
        return self._tensors

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
        (store, paired), shapes = self._stored(), self.source_dims.shapes
        return self.is_square() and all(
            not shapes[at][0] if store[at] is None
            else store[at] == (1, 1) if paired else store[at].is_identity()
            for at in cube_plan(self.n).one_block)

    def is_block_diagonal(self):
        keys = cube_plan(self.n).keys
        return all(item is None for (_, rho), item in zip(keys, self._stored()[0]) if len(rho) > 1)

    def one_block_parts(self, dims):
        """The gauge from ``dims`` to ``dims`` of this gauge's one-block
        components, every other one zero; checked as the constructor checks
        unless this gauge is over ``dims``."""
        same = self.source_dims == dims == self.target_dims
        store, paired = self._stored() if same else (self.tensors, False)
        kept = [item if len(rho) == 1 else None
                for (_, rho), item in zip(cube_plan(self.n).keys, store)]
        if not same:
            return Gauge.from_tensors(dims, dims, kept)
        return _trusted_gauge(dims, dims, tuple(kept), paired)

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
        """The gauge acting as ``self`` after ``other``; an identity on
        either side gives the other operand, as g . I = I . g = g."""
        if other.target_dims != self.source_dims:
            raise DimensionMismatch("middle dimensions do not match")
        if self.is_identity():
            return other
        return self if other.is_identity() else _compose_at(
            self, other, range(len(cube_plan(self.n).keys)))

    def invert(self):
        """Two-sided inverse; requires invertible one-block parts.

        Walks the plan keys in order, so every inner component a residue
        term needs (on a proper subset) is already solved; terms with a
        zero outer or inner component are skipped.
        """
        if not self.is_square():
            raise DimensionMismatch("only square gauges invert")
        if self.pairs is not None:
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
        store, paired = self._stored()
        return _trusted_gauge(
            *dims, tuple(store[at] for at in ambient_positions((self.n, blocks))), paired)

    def trimmed(self, dims):
        """The gauge from ``dims`` to ``dims`` keeping every component whose
        shape fits ``dims``; the others become zero.

        Restricts a gauge to a sub-bundle with smaller dimensions, such as
        a pullback or an ultracore.
        """
        store, paired = self._stored()
        return _trusted_gauge(dims, dims, tuple(
            item if item is not None and (out[0], own[1]) == shape else None
            for item, out, own, shape in zip(
                store, self.target_dims.shapes, self.source_dims.shapes, dims.shapes)), paired)

    def __eq__(self, other):
        return (isinstance(other, Gauge) and self.source_dims == other.source_dims
                and self.target_dims == other.target_dims
                and (self.pairs == other.pairs if None not in (self.pairs, other.pairs)
                     else self.tensors == other.tensors))

    def __hash__(self):
        return hash((self.source_dims, self.target_dims, self._stored()[0]))

    def __repr__(self):
        return "Gauge(n=%d)" % self.n


def _trusted_gauge(source_dims, target_dims, store, paired=False):
    """The gauge of ``store``, tensors or (if ``paired``) pairs taken by
    position from checked gauges, unchecked."""
    gauge = Gauge.__new__(Gauge)
    gauge._keep(source_dims, target_dims, store, paired)
    return gauge


@_memoized(4096)
def _pair_tensor(pair_and_in_dims):
    """The one-entry tensor of ``(pair, in_dims)``: equal ones read as one
    shared tensor while the memo keeps them."""
    (num, den), in_dims = pair_and_in_dims
    return MultiTensor.from_integers(1, in_dims, [num], den)


def _pair_tensors(pairs, shapes):
    """The tensors of ``pairs`` at their plan positions' ``shapes``."""
    return tuple([None if pair is None else _pair_tensor((pair, shape[1]))
                  for pair, shape in zip(pairs, shapes)])


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
        (store, paired), in_dims = g._stored(), g.source_dims.shapes[at][1]
        if store[at] is None:
            return MultiTensor.zeros(g.target_dims.shapes[at][0], in_dims)
        return _pair_tensor((store[at], in_dims)) if paired else store[at]

    def __iter__(self):
        return iter(cube_plan(self.gauge.n).keys)

    def __len__(self):
        return len(cube_plan(self.gauge.n).keys)


def _shaped_gauge(source_dims, target_dims, tensors):
    """The gauge of shape-checked ``tensors``, all-zero ones made ``None``."""
    return _trusted_gauge(source_dims, target_dims, tuple(
        None if tensor is None or tensor.is_zero() else tensor for tensor in tensors))


def _compose_at(outer, inner, positions):
    """The gauge of ``outer`` after ``inner`` at the requested plan
    positions, zero at every other one.  It can be the inner side of a
    further restricted composition whose terms read only the positions
    it holds."""
    terms, shapes = cube_plan(inner.n).terms, inner.source_dims.shapes
    out = [None] * len(terms)
    if outer.pairs is not None and inner.pairs is not None:
        outers, inners = outer.pairs, inner.pairs
        for at in positions:
            num, den = _scalar_sum(terms[at], outers, inners)
            if num:
                g = gcd(num, den)
                out[at] = num // g, den // g
        return _trusted_gauge(inner.source_dims, outer.target_dims, tuple(out), True)
    outers, inners = outer.tensors, inner.tensors
    for at in positions:
        out[at] = _sum_terms(terms[at], outers, inners, shapes[at][1])
    return _shaped_gauge(inner.source_dims, outer.target_dims, out)


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
    """``Gauge.invert`` over unit dims, on ``pairs``."""
    plan, shapes = cube_plan(gauge.n), gauge.source_dims.shapes
    given, solved = gauge.pairs, [None] * len(shapes)
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
    return _trusted_gauge(gauge.source_dims, gauge.target_dims, tuple(solved), True)


def _scalar_sum(terms, outers, inners):
    """``_sum_terms`` over pairs as an unreduced ``(numerator,
    denominator)``: the live terms' pair products over their lcm, taken
    only when a term's denominator does not divide the running one."""
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
            if den % q:
                common = lcm(den, q)
                num, den = num * (common // den) + p * (common // q), common
            else:
                num += p * (den // q)
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

