"""Exact rational multilinear tensors and linear algebra.

A tensor stores one form: its entries as integer numerators over one
positive common denominator, the lcm of the entry denominators, so that
no factor divides the denominator and every numerator.  Every identity
downstream is checked on it with zero tolerance.  ``entries``, a tuple
of ``fractions.Fraction``s, is a view built on each read and never kept;
``lowest_terms`` gives each entry as a reduced pair.  Equality and
hashing compare the one form, which is the same however a tensor was
built.

Every exact contraction is one sum of composition terms in integer form,
``_sum_of_composites``: ``compose_tensors`` is one term, ``apply`` one
term whose inner tensors are its arguments as tensors with no inputs,
and a gauge component the sum of its live terms.  Each term's shape is
compiled once into a gather program (``_program``, a memo of at most
4096 programs, each linear in its shape's sizes): every inner tensor's
flat input index at each composite input index, and the block offsets
of each outer input index.  ``_gather`` runs a term's program, walking
a small outer tensor's nonzero numerators with one to four inner
tensors and taking dot products with Kronecker products of inner
columns past a measured crossover or with more inner tensors.  Every
term is added into one integer list over the lcm of the terms'
denominators.

Every linear solve (``rank``, ``kernel_basis``, ``solve_linear`` and
``invert_matrix``) runs one fraction-free Gauss-Jordan elimination on
the integer rows of a matrix, augmented by a vector or the identity
where the solve needs one.  Each step divides
exactly by the previous pivot, and the rows end as one integer ``d``
times the reduced row echelon form, so solutions are integers over
``d``.
"""

from fractions import Fraction
from itertools import product, repeat
from math import gcd, lcm, prod
from operator import mul

from .cubecat import _memoized
from .errors import DimensionMismatch, SingularMatrix

ZERO = Fraction(0)
ONE = Fraction(1)

# the most numerators of an outer tensor that the kernel walks one by one,
# with one to four inner tensors; past about this many, dense terms run
# faster as dot products (crossovers measured on random terms of density
# 1.0 and 0.3)
_WALKED = 32


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _numerators(values):
    """``(numerators, denominator)`` of rationals over the lcm of their
    denominators (1 for no values)."""
    den = lcm(*{x.denominator for x in values})
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) for x in values], den


def _rationals(numerators, den):
    return [Fraction(x, den) if x else ZERO for x in numerators]


class MultiTensor:
    """A multilinear map between rational vector spaces with a fixed layout.

    ``entries`` is flat and row-major with the output index slowest,
    followed by the input indices in block order, so
    ``entries[((i0*d1 + i1)*d2 + i2)...]`` is the coefficient of output
    coordinate ``i0`` on basis inputs ``(i1, ..., ik)``.
    """

    __slots__ = ("out_dim", "in_dims", "_ints")

    def __init__(self, out_dim, in_dims, entries):
        self.out_dim = int(out_dim)
        self.in_dims = tuple(int(d) for d in in_dims)
        if self.out_dim < 0 or any(d < 0 for d in self.in_dims):
            raise DimensionMismatch("negative dimension")
        expected = self.out_dim * prod(self.in_dims)
        entries = [_frac(x) for x in entries]
        if len(entries) != expected:
            raise DimensionMismatch(
                "tensor %dx%s needs %d entries, got %d"
                % (self.out_dim, list(self.in_dims), expected, len(entries))
            )
        self._ints = _numerators(entries)

    @classmethod
    def from_integers(cls, out_dim, in_dims, nums, den):
        """The tensor with entries ``nums[k] / den``, ``den`` positive; the
        caller checks that ``nums`` fits the shape.

        Numerators and denominator are divided by their gcd, which makes
        them the integer form the same entries as ``Fraction``s give.
        """
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        tensor = cls.__new__(cls)
        tensor.out_dim = out_dim
        tensor.in_dims = in_dims
        tensor._ints = (nums, den)
        return tensor

    @property
    def entries(self):
        """The entries as a tuple of ``Fraction``s, built on each read."""
        return tuple(_rationals(*self._ints))

    def integer_form(self):
        """``(numerators, denominator)``: the entries over their one common
        denominator, which shares no factor with all the numerators."""
        return self._ints

    def lowest_terms(self):
        """Each entry as ``(numerator, denominator)`` in lowest terms."""
        nums, den = self._ints
        if den == 1:
            return zip(nums, repeat(1))
        return ((x // g, den // g) for x in nums for g in (gcd(x, den),))

    @classmethod
    def zeros(cls, out_dim, in_dims):
        return cls.from_integers(out_dim, tuple(in_dims), [0] * (out_dim * prod(in_dims)), 1)

    @classmethod
    def identity(cls, dim):
        return _identity(dim)

    @classmethod
    def from_rows(cls, rows):
        """Matrix from a list of rows (possibly empty rows for 0 columns)."""
        rows = [tuple(row) for row in rows]
        n_cols = len(rows[0]) if rows else 0
        if any(len(r) != n_cols for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(len(rows), (n_cols,), [x for row in rows for x in row])

    def is_zero(self):
        return not any(self._ints[0])

    def is_identity(self):
        return self.in_dims == (self.out_dim,) and self._ints == _identity(self.out_dim)._ints

    def apply(self, args):
        """Evaluate on one vector per input block; exact."""
        if len(args) != len(self.in_dims):
            raise DimensionMismatch(
                "expected %d arguments, got %d" % (len(self.in_dims), len(args))
            )
        for arg, d in zip(args, self.in_dims):
            if len(arg) != d:
                raise DimensionMismatch(
                    "argument of length %d for block of dimension %d" % (len(arg), d)
                )
        # one composition term whose inner tensors have no inputs
        den = self._ints[1]
        columns = []
        for arg in args:
            nums, arg_den = _numerators(arg)
            columns.append(nums)
            den *= arg_den
        out = [0] * self.out_dim
        _gather(out, 1, self._ints[0], 1, columns,
                _program((self.in_dims, ((),) * len(args), ())))
        return tuple(_rationals(out, den))

    def scaled(self, scalar):
        scalar = _frac(scalar)
        nums, den = self._ints
        return MultiTensor.from_integers(
            self.out_dim, self.in_dims, [scalar.numerator * x for x in nums],
            den * scalar.denominator)

    def plus(self, other):
        if self.out_dim != other.out_dim or self.in_dims != other.in_dims:
            raise DimensionMismatch("tensor shape mismatch in addition")
        (a, a_den), (b, b_den) = self._ints, other._ints
        den = lcm(a_den, b_den)
        a_scale, b_scale = den // a_den, den // b_den
        return MultiTensor.from_integers(
            self.out_dim, self.in_dims,
            [x * a_scale + y * b_scale for x, y in zip(a, b)], den)

    def __eq__(self, other):
        return (isinstance(other, MultiTensor) and self.out_dim == other.out_dim
                and self.in_dims == other.in_dims and self._ints == other._ints)

    def __hash__(self):
        nums, den = self._ints
        return hash((self.out_dim, self.in_dims, den, tuple(nums)))

    def __repr__(self):
        return "MultiTensor(out=%d, ins=%s)" % (self.out_dim, list(self.in_dims))


@_memoized(64)
def _identity(dim):
    """The ``dim`` x ``dim`` identity: one tensor per dim, shared, never changed."""
    return MultiTensor.from_integers(
        dim, (dim,), [int(i == j) for i in range(dim) for j in range(dim)], 1)


def compose_tensors(outer, inners, slot_groups, total_in_dims):
    """Contract ``outer`` with one inner tensor per slot.

    ``slot_groups[m]`` lists, for inner tensor ``m``, the positions in the
    composite input list that feed its blocks (in order).  The composite
    has inputs ``total_in_dims``.
    """
    if len(inners) != len(outer.in_dims):
        raise DimensionMismatch("one inner tensor per outer block required")
    for inner, mid in zip(inners, outer.in_dims):
        if inner.out_dim != mid:
            raise DimensionMismatch("inner output does not match outer block")
    slot_groups, total_in_dims = tuple(map(tuple, slot_groups)), tuple(total_in_dims)
    for inner, group in zip(inners, slot_groups):
        if tuple(inner.in_dims) != tuple(total_in_dims[g] for g in group):
            raise DimensionMismatch("slot group does not match inner tensor shape")
    return _sum_of_composites([(outer, inners, slot_groups)], outer.out_dim, total_in_dims)


def _sum_of_composites(terms, out_dim, total_in_dims):
    """The sum of ``compose_tensors(outer, inners, slot_groups,
    total_in_dims)`` over ``terms``, one ``(outer, inners, slot_groups)``
    triple each, whose shapes are trusted and slot groups tuples; made in
    integer form.

    Each term runs its gather program into one integer list, scaled to
    the lcm of the terms' denominators.
    """
    dens = []
    for outer, inners, _ in terms:
        term_den = outer._ints[1]
        for inner in inners:
            term_den *= inner._ints[1]
        dens.append(term_den)
    den = lcm(*dens)
    size = prod(total_in_dims)
    total = [0] * (out_dim * size)
    for (outer, inners, slot_groups), term_den in zip(terms, dens):
        _gather(total, size, outer._ints[0], den // term_den, [t._ints[0] for t in inners],
                _program((outer.in_dims, slot_groups, total_in_dims)))
    return MultiTensor.from_integers(out_dim, total_in_dims, total, den)


def _gather(total, size, nums, scale, inners, program):
    """Add ``scale`` times one composition term into ``total``, ``size``
    numerators per output coordinate: the outer numerators ``nums``
    contracted with the inner numerator lists ``inners``.

    An outer tensor of at most ``_WALKED`` numerators with one to four
    inner tensors is walked one nonzero numerator at a time, multiplying
    per program row the inner numerators at its block offsets and
    stopping at the first zero, one loop per number of inner tensors.
    Any other term builds per row the Kronecker product of the inner
    columns there and takes its dot product with each nonzero outer row.
    """
    sizes, offsets, rows = program
    in_size = len(offsets)
    if not inners or len(inners) > 4 or len(nums) > _WALKED:
        live = [(k // in_size * size, nums[k:k + in_size])
                for k in range(0, len(nums), in_size or 1) if any(nums[k:k + in_size])]
        factors = tuple(zip(inners, sizes))
        for row in rows if live else ():
            weights = [1]
            for (inner, s), a in zip(factors, row[1:]):
                weights = [w * y for w in weights for y in inner[a::s]]
            at = row[0]
            for base, outer_row in live:
                x = sum(map(mul, outer_row, weights))
                if x:
                    total[base + at] += x * scale
    elif len(inners) == 1:
        (first,) = inners
        for k, x in enumerate(nums):
            if x:
                x *= scale
                base = k // in_size * size
                (o,) = offsets[k % in_size]
                for at, a in rows:
                    y = first[o + a]
                    if y:
                        total[base + at] += x * y
    elif len(inners) == 2:
        first, second = inners
        for k, x in enumerate(nums):
            if x:
                x *= scale
                base = k // in_size * size
                o, p = offsets[k % in_size]
                for at, a, b in rows:
                    y = first[o + a]
                    if y:
                        z = second[p + b]
                        if z:
                            total[base + at] += x * y * z
    elif len(inners) == 3:
        first, second, third = inners
        for k, x in enumerate(nums):
            if x:
                x *= scale
                base = k // in_size * size
                o, p, q = offsets[k % in_size]
                for at, a, b, c in rows:
                    y = first[o + a]
                    if y:
                        z = second[p + b]
                        if z:
                            w = third[q + c]
                            if w:
                                total[base + at] += x * y * z * w
    elif len(inners) == 4:
        first, second, third, fourth = inners
        for k, x in enumerate(nums):
            if x:
                x *= scale
                base = k // in_size * size
                o, p, q, r = offsets[k % in_size]
                for at, a, b, c, d in rows:
                    y = first[o + a]
                    if y:
                        z = second[p + b]
                        if z:
                            w = third[q + c]
                            if w:
                                v = fourth[r + d]
                                if v:
                                    total[base + at] += x * y * z * w * v


@_memoized(4096)
def _program(shape):
    """The gather program of a term's shape ``(outer in_dims, slot groups,
    total_in_dims)``: ``(sizes, offsets, rows)``, ``sizes[m]`` being the
    input size of inner tensor ``m``, ``offsets`` holding ``(b_1 *
    sizes[1], ..., b_k * sizes[k])`` per flat outer input index with
    block indices ``(b_1, ..., b_k)``, and ``rows`` one ``(J, i_1, ...,
    i_k)`` per flat composite input index ``J``, ``i_m`` being inner
    tensor ``m``'s flat input index at the inputs ``J`` gives its slots."""
    outer_in, slot_groups, total_in_dims = shape
    composite = list(product(*map(range, total_in_dims)))
    sizes, routes = [], []
    for group in slot_groups:
        index = {inputs: i for i, inputs in
                 enumerate(product(*[range(total_in_dims[g]) for g in group]))}
        sizes.append(len(index))
        routes.append([index[tuple(full[g] for g in group)] for full in composite])
    offsets = tuple(tuple(map(mul, blocks, sizes)) for blocks in product(*map(range, outer_in)))
    return tuple(sizes), offsets, tuple(zip(range(len(composite)), *routes))


def _integer_rows(tensor):
    """The rows of a matrix's integer form: the matrix times one nonzero
    scalar, which changes no rank, pivot column or nullspace."""
    if len(tensor.in_dims) != 1:
        raise DimensionMismatch("expected a one-block tensor (matrix)")
    nums, n = tensor.integer_form()[0], tensor.in_dims[0]
    return [nums[i * n:(i + 1) * n] for i in range(tensor.out_dim)]


def _gauss_jordan(rows, n_cols):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are sought left to right in the first ``n_cols`` columns; any
    further columns are carried along.  Every step divides exactly by the
    previous pivot.  Returns ``(pivots, d)``: the rows end as ``d`` times
    the reduced row echelon form, row ``r`` holding ``d`` at column
    ``pivots[r]``, and the rows past the last pivot are zero in the first
    ``n_cols`` columns.
    """
    pivots, prev = [], 1
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and (f or p != prev):  # otherwise the update keeps the row
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
    return pivots, prev


def rank(tensor):
    return len(_gauss_jordan(_integer_rows(tensor), tensor.in_dims[0])[0])


def _inverse_times(tensor, columns):
    """``(R, s)``, ``s`` positive, with ``A^-1 B = R / s`` for a square
    one-block tensor ``A`` and the integer rows ``B``, one per row of ``A``,
    from one elimination of ``[A | B]``; SingularMatrix at the first
    column of ``A`` without a pivot."""
    n = tensor.out_dim
    if len(tensor.in_dims) != 1 or tensor.in_dims[0] != n:
        raise DimensionMismatch("matrix is not square")
    if len(columns) != n:
        raise DimensionMismatch("right-hand side has wrong length")
    nums, den = tensor.integer_form()
    rows = [nums[i * n:(i + 1) * n] + row for i, row in enumerate(columns)]
    pivots, d = _gauss_jordan(rows, n)
    if len(pivots) < n:
        col = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
        raise SingularMatrix("matrix is singular at column %d" % col)
    # the rows end as d [I | C^-1 B] for the integer form C = den A
    if d < 0:
        d, den = -d, -den
    return [[den * x for x in row[n:]] for row in rows], d


def solve_linear(tensor, rhs):
    """Exact solution of A x = b for square invertible A."""
    column, rhs_den = _numerators([_frac(b) for b in rhs])
    solution, d = _inverse_times(tensor, [[b] for b in column])
    return tuple(Fraction(x, d * rhs_den) for x, in solution)


def invert_matrix(tensor):
    """Exact inverse of a square invertible one-block tensor, from one
    elimination of [A | I]."""
    n = tensor.out_dim
    inverse, d = _inverse_times(tensor, [[int(i == j) for j in range(n)] for i in range(n)])
    return MultiTensor.from_integers(n, (n,), [x for row in inverse for x in row], d)


def kernel_basis(tensor):
    """Deterministic basis of the rational nullspace of a matrix.

    One vector per free column, in ascending column order, with a 1 in
    the free slot.
    """
    rows = _integer_rows(tensor)
    n_cols = tensor.in_dims[0]
    pivots, d = _gauss_jordan(rows, n_cols)
    basis = []
    for free in sorted(set(range(n_cols)).difference(pivots)):
        v = list(unit_vector(n_cols, free))
        for row, c in zip(rows, pivots):
            if row[free]:
                v[c] = Fraction(-row[free], d)
        basis.append(tuple(v))
    return basis


def contract_slots(tensor, fixed):
    """Fix some input slots of a tensor to vectors, leaving the rest.

    ``fixed`` maps slot positions to vectors.  One composition: each
    fixed slot takes its vector as a tensor with no inputs, every other
    slot an identity, and the open slots keep their order.
    """
    inners, groups, rest = [], [], []
    for slot, d in enumerate(tensor.in_dims):
        if slot in fixed:
            inners.append(MultiTensor(d, (), fixed[slot]))
            groups.append(())
        else:
            inners.append(MultiTensor.identity(d))
            groups.append((len(rest),))
            rest.append(d)
    return compose_tensors(tensor, inners, groups, rest)


def vec_add(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector length mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(scalar, v):
    scalar = _frac(scalar)
    return tuple(scalar * x for x in v)


def zero_vector(dim):
    return (ZERO,) * dim


def unit_vector(dim, index):
    v = [ZERO] * dim
    v[index] = ONE
    return tuple(v)
