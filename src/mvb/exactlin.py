"""Exact rational multilinear tensors and linear algebra.

All scalars are ``fractions.Fraction``; every identity downstream is
checked with zero tolerance.  ``rank``, ``kernel_basis`` and
``image_contains`` run fraction-free (Bareiss) elimination on the rows
of a matrix's integer form, which keeps intermediate entries from
blowing up at the scales this package targets.

The two tensor kernels, ``MultiTensor.apply`` and ``compose_tensors``,
run on Python integers.  A tensor's integer form is its entries as
numerators over one common denominator, the lcm of the entry
denominators; a tensor also caches the list of its nonzero numerators
by position.  Applying a tensor multiplies and adds only those
numerators and the arguments' cleared numerators; the composite of
``compose_tensors`` at an input index is the outer tensor applied to
the inner tensors' columns at that index's slots, so both run the same
integer contraction.  Which inner column feeds which composite index
depends on the shapes alone and is memoized per ``(total_in_dims, slot
group)``.

A tensor made by a kernel stays in integer form: the numerators of a
sum of composites are added into one integer list over the lcm of the
terms' denominators and divided by their gcd with it, which is the
form the same entries as ``Fraction``s give.  Its ``entries``, a tuple
of ``Fraction``s, are built only when read.  ``from_integers`` makes a
tensor from such a form (the parser does), and ``lowest_terms`` reads
the entries from whichever form a tensor holds (the writer does).
Equality and hashing compare values, so they agree however a tensor
was built.
"""

from fractions import Fraction
from itertools import product, repeat
from math import gcd, lcm, prod

from .cubecat import _memoized
from .errors import DimensionMismatch, SingularMatrix

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _numerators(values):
    """Integer numerators of rationals over one common denominator.

    Returns ``(numerators, denominator)``; the denominator is the lcm of
    the values' denominators (1 for no values).
    """
    den = lcm(*{x.denominator for x in values})
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) for x in values], den


def _contract(nonzero, columns, total, at):
    """Add a tensor applied to one integer vector per input block into
    ``total``.

    ``nonzero`` lists the tensor's nonzero numerators as ``(offset, j,
    num)``, ``j`` being the flat input index; ``num`` times the product
    of the vectors' coordinates at ``j`` is added to ``total[offset +
    at]``.
    """
    weights = [1]
    for column in columns:
        weights = [w * x for w in weights for x in column]
    for offset, j, num in nonzero:
        w = weights[j]
        if w:
            total[offset + at] += num * w


def _rationals(numerators, den):
    return [Fraction(x, den) if x else ZERO for x in numerators]


class MultiTensor:
    """A multilinear map between rational vector spaces with a fixed layout.

    ``entries`` is flat and row-major with the output index slowest,
    followed by the input indices in block order, so
    ``entries[((i0*d1 + i1)*d2 + i2)...]`` is the coefficient of output
    coordinate ``i0`` on basis inputs ``(i1, ..., ik)``.
    """

    __slots__ = ("out_dim", "in_dims", "_entries", "_ints", "_nonzero")

    def __init__(self, out_dim, in_dims, entries):
        self.out_dim = int(out_dim)
        self.in_dims = tuple(int(d) for d in in_dims)
        if self.out_dim < 0 or any(d < 0 for d in self.in_dims):
            raise DimensionMismatch("negative dimension")
        expected = self.out_dim * prod(self.in_dims)
        entries = tuple(_frac(x) for x in entries)
        if len(entries) != expected:
            raise DimensionMismatch(
                "tensor %dx%s needs %d entries, got %d"
                % (self.out_dim, list(self.in_dims), expected, len(entries))
            )
        self._entries = entries
        self._ints = self._nonzero = None

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
        tensor._entries = tensor._nonzero = None
        tensor._ints = (nums, den)
        return tensor

    @property
    def entries(self):
        """The entries as a tuple of ``Fraction``s, built on first read for
        a tensor made in integer form."""
        entries = self._entries
        if entries is None:
            entries = self._entries = tuple(_rationals(*self._ints))
        return entries

    def integer_form(self):
        """``(numerators, denominator)``: the entries over their one common
        denominator, computed on first use."""
        ints = self._ints
        if ints is None:
            ints = self._ints = _numerators(self._entries)
        return ints

    def lowest_terms(self):
        """Each entry as ``(numerator, denominator)`` in lowest terms, read
        from the form the tensor holds; nothing is built to be kept."""
        if self._entries is not None:
            return ((x.numerator, x.denominator) for x in self._entries)
        nums, den = self._ints
        if den == 1:
            return zip(nums, repeat(1))
        return ((x // g, den // g) for x in nums for g in (gcd(x, den),))

    def _nonzero_terms(self):
        """``(i0, j, numerator)`` for every nonzero entry, ``j`` being the
        flat input index; computed on first use."""
        nonzero = self._nonzero
        if nonzero is None:
            in_size = prod(self.in_dims)
            nonzero = self._nonzero = tuple(
                (k // in_size, k % in_size, x)
                for k, x in enumerate(self.integer_form()[0]) if x)
        return nonzero

    @classmethod
    def zeros(cls, out_dim, in_dims):
        return cls(out_dim, in_dims, (ZERO,) * (out_dim * prod(in_dims)))

    @classmethod
    def identity(cls, dim):
        return cls.from_integers(
            dim, (dim,), [int(i == j) for i in range(dim) for j in range(dim)], 1)

    @classmethod
    def from_rows(cls, rows):
        """Matrix from a list of rows (possibly empty rows for 0 columns)."""
        rows = [tuple(_frac(x) for x in row) for row in rows]
        n_cols = len(rows[0]) if rows else 0
        if any(len(r) != n_cols for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(len(rows), (n_cols,), [x for row in rows for x in row])

    def is_zero(self):
        entries = self._entries
        return not any(self._ints[0] if entries is None else entries)

    def is_identity(self):
        if len(self.in_dims) != 1 or self.in_dims[0] != self.out_dim:
            return False
        n = self.out_dim
        nums, den = self.integer_form()
        return den == 1 and nums == [int(i == j) for i in range(n) for j in range(n)]

    def rows(self):
        """Rows of a one-block tensor, as tuples."""
        if len(self.in_dims) != 1:
            raise DimensionMismatch("rows() is for one-block tensors")
        n = self.in_dims[0]
        return [self.entries[i * n:(i + 1) * n] for i in range(self.out_dim)]

    def entry(self, out_index, in_indices):
        flat = out_index
        for d, i in zip(self.in_dims, in_indices):
            flat = flat * d + i
        return self.entries[flat]

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
        if self.out_dim == 0 or any(d == 0 for d in self.in_dims):
            return (ZERO,) * self.out_dim
        den = self.integer_form()[1]
        columns = []
        for arg in args:
            nums, arg_den = _numerators(arg)
            columns.append(nums)
            den *= arg_den
        out = [0] * self.out_dim
        _contract(self._nonzero_terms(), columns, out, 0)
        return tuple(_rationals(out, den))

    def scaled(self, scalar):
        scalar = _frac(scalar)
        return MultiTensor(self.out_dim, self.in_dims, [scalar * x for x in self.entries])

    def plus(self, other):
        if self.out_dim != other.out_dim or self.in_dims != other.in_dims:
            raise DimensionMismatch("tensor shape mismatch in addition")
        return MultiTensor(
            self.out_dim, self.in_dims,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __eq__(self, other):
        if not (isinstance(other, MultiTensor) and self.out_dim == other.out_dim
                and self.in_dims == other.in_dims):
            return False
        if self._entries is not None and other._entries is not None:
            return self._entries == other._entries
        return self.integer_form() == other.integer_form()

    def __hash__(self):
        nums, den = self.integer_form()
        return hash((self.out_dim, self.in_dims, den, tuple(nums)))

    def __repr__(self):
        return "MultiTensor(out=%d, ins=%s)" % (self.out_dim, list(self.in_dims))


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
    for inner, group in zip(inners, slot_groups):
        if tuple(inner.in_dims) != tuple(total_in_dims[g] for g in group):
            raise DimensionMismatch("slot group does not match inner tensor shape")
    return _sum_of_composites([(outer, inners, slot_groups)], outer.out_dim,
                              tuple(total_in_dims))


def _sum_of_composites(terms, out_dim, total_in_dims):
    """The sum of ``compose_tensors(outer, inners, slot_groups,
    total_in_dims)`` over ``terms``, one ``(outer, inners, slot_groups)``
    triple each, whose shapes are trusted; made in integer form.

    Each term is added into one integer list, scaled to the lcm of the
    terms' denominators.
    """
    dens = [prod([outer.integer_form()[1]] + [t.integer_form()[1] for t in inners])
            for outer, inners, _ in terms]
    den = lcm(*dens)
    size = prod(total_in_dims)
    total = [0] * (out_dim * size)
    if total:
        for (outer, inners, slot_groups), term_den in zip(terms, dens):
            scale = den // term_den
            nonzero = [(i0 * size, j, num * scale) for i0, j, num in outer._nonzero_terms()]
            # per inner tensor, its column at every composite input index
            picked = []
            for inner, group in zip(inners, slot_groups):
                nums, in_size = inner.integer_form()[0], prod(inner.in_dims)
                columns = [nums[j::in_size] for j in range(in_size)]
                picked.append([columns[j] for j in _routing((total_in_dims, tuple(group)))])
            for at, columns in enumerate(zip(*picked) if picked else repeat((), size)):
                _contract(nonzero, columns, total, at)
    return MultiTensor.from_integers(out_dim, total_in_dims, total, den)


@_memoized(4096)
def _routing(dims_and_group):
    """For ``(total_in_dims, group)``: per composite input index, in
    row-major order, the flat input index of the inner tensor whose
    blocks are the composite slots ``group``."""
    total_in_dims, group = dims_and_group
    route = []
    for full in product(*map(range, total_in_dims)):
        j = 0
        for g in group:
            j = j * total_in_dims[g] + full[g]
        route.append(j)
    return tuple(route)


def _integer_rows(tensor):
    """The rows of a matrix's integer form: the matrix times one nonzero
    scalar, which changes no rank, pivot column or nullspace."""
    if len(tensor.in_dims) != 1:
        raise DimensionMismatch("expected a one-block tensor (matrix)")
    nums, n = tensor.integer_form()[0], tensor.in_dims[0]
    return [nums[i * n:(i + 1) * n] for i in range(tensor.out_dim)]


def _bareiss_echelon(rows):
    """Fraction-free row echelon form of an integer matrix.

    Returns (echelon rows, pivot column list).  Entries stay integral
    throughout; pivots are the leading nonzero entries.
    """
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(tensor):
    rows = _integer_rows(tensor)
    if not rows or not rows[0]:
        return 0
    return len(_bareiss_echelon(rows)[1])


def _gauss_jordan(aug, n):
    """Reduce the first ``n`` columns of an augmented system to the identity.

    ``aug`` is a list of n row lists of Fractions with any number of
    extra columns; it is reduced in place and returned, the extra
    columns then holding the solutions.  Raises SingularMatrix at the
    first column without a pivot.
    """
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if aug[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            raise SingularMatrix("matrix is singular at column %d" % col)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return aug


def solve_linear(tensor, rhs):
    """Exact solution of A x = b for square invertible A."""
    rows = tensor.rows()
    n = tensor.out_dim
    if tensor.in_dims[0] != n:
        raise DimensionMismatch("matrix is not square")
    if len(rhs) != n:
        raise DimensionMismatch("right-hand side has wrong length")
    if n == 0:
        return ()
    # Fraction elimination on the augmented system; small sizes only.
    aug = _gauss_jordan([list(row) + [_frac(b)] for row, b in zip(rows, rhs)], n)
    return tuple(aug[i][n] for i in range(n))


def invert_matrix(tensor):
    """Exact inverse of a square invertible one-block tensor.

    One Gauss-Jordan elimination on [A | I]; the right half ends as the
    inverse.
    """
    n = tensor.out_dim
    if len(tensor.in_dims) != 1 or tensor.in_dims[0] != n:
        raise DimensionMismatch("matrix is not square")
    aug = _gauss_jordan(
        [list(row) + [ONE if i == j else ZERO for j in range(n)]
         for i, row in enumerate(tensor.rows())], n)
    return MultiTensor(n, (n,), [x for row in aug for x in row[n:]])


def kernel_basis(tensor):
    """Deterministic basis of the rational nullspace of a matrix.

    One vector per free column, in ascending column order, with a 1 in
    the free slot.
    """
    rows = _integer_rows(tensor)
    n_cols = tensor.in_dims[0]
    if n_cols == 0:
        return []
    if not rows:
        basis = []
        for j in range(n_cols):
            v = [ZERO] * n_cols
            v[j] = ONE
            basis.append(tuple(v))
        return basis
    echelon, pivots = _bareiss_echelon(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        v = [ZERO] * n_cols
        v[free] = ONE
        # back-substitute pivot coordinates, bottom pivot first
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = ZERO
            for j in range(c + 1, n_cols):
                if echelon[r][j]:
                    s += _frac(echelon[r][j]) * v[j]
            v[c] = -s / echelon[r][c]
        basis.append(tuple(v))
    return basis


def image_contains(tensor, vector):
    """Membership of ``vector`` in the column space of a matrix.

    One echelon form of [A | v]: the vector lies in the image exactly
    when its column carries no pivot.
    """
    rows = _integer_rows(tensor)
    if len(vector) != tensor.out_dim:
        raise DimensionMismatch("vector has wrong length")
    if not rows:
        return True
    # the vector's column is scaled by its own denominator
    column = _numerators([_frac(v) for v in vector])[0]
    _, pivots = _bareiss_echelon([row + [v] for row, v in zip(rows, column)])
    return tensor.in_dims[0] not in pivots


def contract_slot(tensor, slot, vector):
    """Fix one input slot of a tensor to a vector, leaving the rest.

    One composition: the fixed slot takes ``vector`` as a tensor with no
    inputs, every other slot an identity.
    """
    rest = tensor.in_dims[:slot] + tensor.in_dims[slot + 1:]
    inners = [MultiTensor.identity(d) for d in rest]
    groups = [[i] for i in range(len(rest))]
    inners.insert(slot, MultiTensor(len(vector), (), vector))
    groups.insert(slot, [])
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
