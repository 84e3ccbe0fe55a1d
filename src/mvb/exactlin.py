"""Exact rational multilinear tensors and linear algebra.

All scalars are ``fractions.Fraction``; every identity downstream is
checked with zero tolerance.  The elimination core is fraction-free
(Bareiss) on a denominator-cleared integer copy, which keeps
intermediate entries from blowing up at the scales this package
targets.
"""

from fractions import Fraction
from itertools import product
from math import gcd, prod

from .errors import DimensionMismatch, SingularMatrix

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class MultiTensor:
    """A multilinear map between rational vector spaces with a fixed layout.

    ``entries`` is flat and row-major with the output index slowest,
    followed by the input indices in block order, so
    ``entries[((i0*d1 + i1)*d2 + i2)...]`` is the coefficient of output
    coordinate ``i0`` on basis inputs ``(i1, ..., ik)``.
    """

    __slots__ = ("out_dim", "in_dims", "entries")

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
        self.entries = entries

    @classmethod
    def zeros(cls, out_dim, in_dims):
        return cls(out_dim, in_dims, (ZERO,) * (out_dim * prod(in_dims)))

    @classmethod
    def identity(cls, dim):
        entries = [ONE if i == j else ZERO for i in range(dim) for j in range(dim)]
        return cls(dim, (dim,), entries)

    @classmethod
    def from_rows(cls, rows):
        """Matrix from a list of rows (possibly empty rows for 0 columns)."""
        rows = [tuple(_frac(x) for x in row) for row in rows]
        n_cols = len(rows[0]) if rows else 0
        if any(len(r) != n_cols for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(len(rows), (n_cols,), [x for row in rows for x in row])

    def is_zero(self):
        return not any(self.entries)

    def is_identity(self):
        if len(self.in_dims) != 1 or self.in_dims[0] != self.out_dim:
            return False
        n = self.out_dim
        return all(
            self.entries[i * n + j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )

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
        out = [ZERO] * self.out_dim
        if self.out_dim == 0 or any(d == 0 for d in self.in_dims):
            return tuple(out)
        in_size = prod(self.in_dims)
        # weight of each flat input multi-index: product of argument coords
        weights = [ONE]
        for arg in args:
            weights = [w * x for w in weights for x in arg]
        entries = self.entries
        for i0 in range(self.out_dim):
            base = i0 * in_size
            acc = ZERO
            for j in range(in_size):
                e = entries[base + j]
                if e:
                    w = weights[j]
                    if w:
                        acc += e * w
            out[i0] = acc
        return tuple(out)

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
        return (
            isinstance(other, MultiTensor)
            and self.out_dim == other.out_dim
            and self.in_dims == other.in_dims
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.out_dim, self.in_dims, self.entries))

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

    out_dim = outer.out_dim
    result = [ZERO] * (out_dim * prod(total_in_dims))
    if out_dim == 0 or any(d == 0 for d in total_in_dims):
        return MultiTensor(out_dim, total_in_dims, result)

    mids = list(product(*map(range, outer.in_dims)))
    for full in product(*map(range, total_in_dims)):
        flat_base = 0
        for d, i in zip(total_in_dims, full):
            flat_base = flat_base * d + i
        inner_args = [tuple(full[g] for g in group) for group in slot_groups]
        for i0 in range(out_dim):
            acc = ZERO
            for mid in mids:
                coeff = outer.entry(i0, mid)
                if not coeff:
                    continue
                term = coeff
                for inner, b, args in zip(inners, mid, inner_args):
                    term *= inner.entry(b, args)
                    if not term:
                        break
                acc += term
            if acc:
                result[i0 * prod(total_in_dims) + flat_base] = acc
    return MultiTensor(out_dim, tuple(total_in_dims), result)


def _as_matrix(tensor):
    if len(tensor.in_dims) != 1:
        raise DimensionMismatch("expected a one-block tensor (matrix)")
    return tensor.rows()


def _integer_rows(rows):
    """Clear denominators row by row; rank and pivots are unchanged."""
    out = []
    for row in rows:
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append([int(x * denom) for x in row])
    return out


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
    rows = _as_matrix(tensor)
    if not rows or not rows[0]:
        return 0
    _, pivots = _bareiss_echelon(_integer_rows(rows))
    return len(pivots)


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
    rows = _as_matrix(tensor)
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
    rows = _as_matrix(tensor)
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
    echelon, pivots = _bareiss_echelon(_integer_rows(rows))
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
    rows = _as_matrix(tensor)
    if len(vector) != tensor.out_dim:
        raise DimensionMismatch("vector has wrong length")
    augmented = [list(r) + [_frac(v)] for r, v in zip(rows, vector)]
    if not augmented:
        return True
    _, pivots = _bareiss_echelon(_integer_rows(augmented))
    return tensor.in_dims[0] not in pivots


def contract_slot(tensor, slot, vector):
    """Fix one input slot of a tensor to a vector, leaving the rest."""
    if len(vector) != tensor.in_dims[slot]:
        raise DimensionMismatch("contraction vector has wrong length")
    rest = tuple(d for i, d in enumerate(tensor.in_dims) if i != slot)
    size = prod(rest)
    entries = [ZERO] * (tensor.out_dim * size)
    for i0 in range(tensor.out_dim):
        for j, idx in enumerate(product(*map(range, rest))):
            acc = ZERO
            for t, x in enumerate(vector):
                if x:
                    full = list(idx[:slot]) + [t] + list(idx[slot:])
                    e = tensor.entry(i0, full)
                    if e:
                        acc += e * x
            entries[i0 * size + j] = acc
    return MultiTensor(tensor.out_dim, rest, entries)


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
