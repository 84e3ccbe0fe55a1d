"""Entry-by-entry ``Fraction`` tensor kernels, kept as oracles.

These are the straightforward forms of ``MultiTensor.apply``,
``compose_tensors`` and ``contract_slot``: every product and sum is a
``Fraction`` operation, and each result is rebuilt entry by entry from
``entry``, which reads one entry of a tensor as a ``Fraction``.  The
library runs the kernels on integer numerators over one shared
denominator per tensor, and contracts a slot with one composition; the
differential tests compare the two.

The linear solvers are the two eliminations the library replaced by one
fraction-free Gauss-Jordan on the rows of the integer form: ``rank`` and
``kernel_basis`` (back-substituted in ``Fraction``s) run Bareiss echelon
elimination on ``Fraction`` rows, each cleared of its own denominators;
``solve_linear`` and ``invert_matrix`` run Gauss-Jordan on ``Fraction``
rows.  ``matrix_rows`` reads a matrix's ``Fraction`` rows.
"""

from fractions import Fraction
from itertools import product
from math import lcm, prod

from mvb.errors import DimensionMismatch, SingularMatrix
from mvb.exactlin import ONE, ZERO, MultiTensor


def entry(tensor, out_index, in_indices):
    """The entry of ``tensor`` at an output index and one index per input."""
    flat = out_index
    for d, i in zip(tensor.in_dims, in_indices):
        flat = flat * d + i
    nums, den = tensor.integer_form()
    return Fraction(nums[flat], den) if nums[flat] else ZERO


def apply(tensor, args):
    """Evaluate ``tensor`` on one vector per input block; exact."""
    if len(args) != len(tensor.in_dims):
        raise DimensionMismatch(
            "expected %d arguments, got %d" % (len(tensor.in_dims), len(args))
        )
    for arg, d in zip(args, tensor.in_dims):
        if len(arg) != d:
            raise DimensionMismatch(
                "argument of length %d for block of dimension %d" % (len(arg), d)
            )
    out = [ZERO] * tensor.out_dim
    if tensor.out_dim == 0 or any(d == 0 for d in tensor.in_dims):
        return tuple(out)
    in_size = prod(tensor.in_dims)
    # weight of each flat input multi-index: product of argument coords
    weights = [ONE]
    for arg in args:
        weights = [w * x for w in weights for x in arg]
    entries = tensor.entries
    for i0 in range(tensor.out_dim):
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
                coeff = entry(outer, i0, mid)
                if not coeff:
                    continue
                term = coeff
                for inner, b, args in zip(inners, mid, inner_args):
                    term *= entry(inner, b, args)
                    if not term:
                        break
                acc += term
            if acc:
                result[i0 * prod(total_in_dims) + flat_base] = acc
    return MultiTensor(out_dim, tuple(total_in_dims), result)


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
                    e = entry(tensor, i0, full)
                    if e:
                        acc += e * x
            entries[i0 * size + j] = acc
    return MultiTensor(tensor.out_dim, rest, entries)


def matrix_rows(tensor):
    """Rows of a one-block tensor, as tuples."""
    if len(tensor.in_dims) != 1:
        raise DimensionMismatch("matrix_rows() is for one-block tensors")
    n, entries = tensor.in_dims[0], tensor.entries
    return [entries[i * n:(i + 1) * n] for i in range(tensor.out_dim)]


def _echelon(tensor):
    """Bareiss echelon form of a matrix's ``Fraction`` rows, each row first
    multiplied by the lcm of its denominators: ``(rows, pivot columns)``."""
    rows = []
    for row in matrix_rows(tensor):
        den = lcm(*(x.denominator for x in row))
        rows.append([int(x * den) for x in row])
    n_cols = tensor.in_dims[0]
    pivots, prev = [], 1
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            for j in range(c + 1, n_cols):
                rows[i][j] = (rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j]) // prev
            rows[i][c] = 0
        prev = rows[r][c]
        pivots.append(c)
    return rows, pivots


def rank(tensor):
    return len(_echelon(tensor)[1])


def kernel_basis(tensor):
    """One nullspace vector per free column, ascending, with a 1 in the
    free slot; pivot coordinates back-substituted bottom pivot first."""
    echelon, pivots = _echelon(tensor)
    n_cols = tensor.in_dims[0]
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        v = [ZERO] * n_cols
        v[free] = ONE
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = sum((echelon[r][j] * v[j] for j in range(c + 1, n_cols)), ZERO)
            v[c] = -s / echelon[r][c]
        basis.append(tuple(v))
    return basis


def _gauss_jordan(aug, n):
    """Reduce the first ``n`` columns of ``Fraction`` rows to the identity,
    in place; SingularMatrix at the first column without a pivot."""
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
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
    n = tensor.out_dim
    aug = _gauss_jordan([list(row) + [Fraction(b)] for row, b in zip(matrix_rows(tensor), rhs)], n)
    return tuple(aug[i][n] for i in range(n))


def invert_matrix(tensor):
    n = tensor.out_dim
    aug = _gauss_jordan([list(row) + [ONE if i == j else ZERO for j in range(n)]
                         for i, row in enumerate(matrix_rows(tensor))], n)
    return MultiTensor(n, (n,), [x for row in aug for x in row[n:]])
