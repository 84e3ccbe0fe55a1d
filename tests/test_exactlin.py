import random
from fractions import Fraction

import pytest
import tensor_oracle

from mvb.errors import DimensionMismatch, SingularMatrix
from mvb.exactlin import (
    MultiTensor,
    compose_tensors,
    invert_matrix,
    kernel_basis,
    rank,
    solve_linear,
)


def mat(rows):
    return MultiTensor.from_rows(rows)


def back_substitution_oracle(upper, rhs):
    """Solve an upper-triangular system directly."""
    n = len(rhs)
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = rhs[i] - sum(upper[i][j] * x[j] for j in range(i + 1, n))
        x[i] = Fraction(s, 1) / upper[i][i]
    return tuple(x)


def test_apply_scalar_product():
    t = MultiTensor(1, (1, 1), [2])
    assert t.apply([(Fraction(3),), (Fraction(5),)]) == (Fraction(30),)


def test_apply_zero_tensor():
    t = MultiTensor.zeros(2, (2, 3))
    args = [(Fraction(1), Fraction(2)), (Fraction(1), Fraction(1), Fraction(4))]
    assert t.apply(args) == (Fraction(0), Fraction(0))


def test_apply_identity():
    t = MultiTensor.identity(3)
    v = (Fraction(1), Fraction(-2), Fraction(7, 3))
    assert t.apply([v]) == v


def test_identity_is_one_shared_tensor_per_dim():
    assert MultiTensor.identity(3) is MultiTensor.identity(3)
    assert MultiTensor.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).is_identity()
    assert not MultiTensor.from_rows([[1, 0], [1, 1]]).is_identity()
    assert MultiTensor.identity(0).is_identity()


def test_apply_dimension_mismatch():
    t = MultiTensor.identity(2)
    with pytest.raises(DimensionMismatch):
        t.apply([(Fraction(1),)])


def test_apply_multilinear_random():
    rng = random.Random(11)
    for _ in range(20):
        dims = (rng.randint(1, 3), rng.randint(1, 3))
        out = rng.randint(1, 3)
        t = MultiTensor(out, dims, [Fraction(rng.randint(-3, 3)) for _ in range(out * dims[0] * dims[1])])
        u = [Fraction(rng.randint(-3, 3)) for _ in range(dims[0])]
        u2 = [Fraction(rng.randint(-3, 3)) for _ in range(dims[0])]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(dims[1])]
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        left = t.apply([tuple(a + lam * b for a, b in zip(u, u2)), tuple(v)])
        right = tuple(
            x + lam * y
            for x, y in zip(t.apply([tuple(u), tuple(v)]), t.apply([tuple(u2), tuple(v)]))
        )
        assert left == right


def test_solve_scalar():
    assert solve_linear(mat([[2]]), [Fraction(1)]) == (Fraction(1, 2),)


def test_solve_identity():
    b = (Fraction(3), Fraction(-1, 2))
    assert solve_linear(MultiTensor.identity(2), b) == b


def test_solve_matches_back_substitution_oracle():
    upper = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    rhs = (Fraction(3), Fraction(1))
    expected = back_substitution_oracle(upper, rhs)
    assert expected == (Fraction(2), Fraction(1))
    assert solve_linear(mat(upper), rhs) == expected


def test_solve_singular_reported_distinctly():
    with pytest.raises(SingularMatrix):
        solve_linear(mat([[1, 2], [2, 4]]), [Fraction(1), Fraction(2)])
    with pytest.raises(DimensionMismatch):
        solve_linear(mat([[1, 2]]), [Fraction(1)])


def test_solve_then_apply_round_trips():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        while True:
            a = mat([[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
            if rank(a) == n:
                break
        b = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        x = solve_linear(a, b)
        assert a.apply([x]) == b


def test_kernel_of_zero_matrix():
    basis = kernel_basis(MultiTensor.zeros(2, (2,)))
    assert len(basis) == 2


def test_kernel_of_identity():
    assert kernel_basis(MultiTensor.identity(3)) == []


def test_kernel_row_reduction_oracle():
    basis = kernel_basis(mat([[1, 2]]))
    assert len(basis) == 1
    v = basis[0]
    # spanned by (-2, 1)
    assert v[0] * Fraction(1) == Fraction(-2) * v[1]
    assert mat([[1, 2]]).apply([v]) == (Fraction(0),)


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(30):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 5)
        a = mat([
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ])
        basis = kernel_basis(a)
        assert rank(a) + len(basis) == n_cols
        zero = tuple(Fraction(0) for _ in range(n_rows))
        for v in basis:
            assert a.apply([v]) == zero


def test_invert_matrix():
    a = mat([[1, 1], [0, 1]])
    inv = invert_matrix(a)
    assert tensor_oracle.matrix_rows(inv) == [(Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1))]


def test_compose_tensors_matches_pointwise_evaluation():
    rng = random.Random(19)
    for _ in range(15):
        d1, d2, d3 = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        m1, m2 = rng.randint(1, 2), rng.randint(1, 2)
        out = rng.randint(1, 2)
        outer = MultiTensor(out, (m1, m2), [Fraction(rng.randint(-2, 2)) for _ in range(out * m1 * m2)])
        f1 = MultiTensor(m1, (d1, d2), [Fraction(rng.randint(-2, 2)) for _ in range(m1 * d1 * d2)])
        f2 = MultiTensor(m2, (d3,), [Fraction(rng.randint(-2, 2)) for _ in range(m2 * d3)])
        composite = compose_tensors(outer, [f1, f2], [[0, 1], [2]], (d1, d2, d3))
        for _ in range(4):
            x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d1))
            y = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d2))
            z = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d3))
            direct = outer.apply([f1.apply([x, y]), f2.apply([z])])
            assert composite.apply([x, y, z]) == direct


def test_zero_dimension_blocks():
    t = MultiTensor.zeros(2, (0,))
    assert t.apply([()]) == (Fraction(0), Fraction(0))
    t2 = MultiTensor.zeros(0, (3,))
    assert t2.apply([(Fraction(1), Fraction(2), Fraction(3))]) == ()


def invert_by_columns(tensor):
    """The inverse as one solve_linear per column of the identity."""
    n = tensor.out_dim
    cols = [solve_linear(tensor, [Fraction(int(i == j)) for i in range(n)])
            for j in range(n)]
    return MultiTensor(n, (n,), [cols[j][i] for i in range(n) for j in range(n)])


def random_matrix(rng, n_rows, n_cols, singular=False):
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n_cols)]
            for _ in range(n_rows)]
    if singular and n_rows > 1:
        rows[-1] = [2 * a for a in rows[0]]
    return mat(rows) if n_rows else MultiTensor.zeros(0, (n_cols,))


def test_invert_matrix_equals_column_solves():
    rng = random.Random(53)
    checked = 0
    for n in (0, 1, 2, 3, 4):
        for _ in range(15):
            a = random_matrix(rng, n, n)
            try:
                expected = invert_by_columns(a)
            except SingularMatrix:
                with pytest.raises(SingularMatrix):
                    invert_matrix(a)
                continue
            assert invert_matrix(a) == expected
            checked += 1
    assert checked > 50


def test_invert_singular_matrix_still_raises():
    a = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    with pytest.raises(SingularMatrix) as by_columns:
        invert_by_columns(a)
    with pytest.raises(SingularMatrix) as at_once:
        invert_matrix(a)
    assert str(at_once.value) == str(by_columns.value)
    rng = random.Random(59)
    for n in (2, 3, 4):
        with pytest.raises(SingularMatrix):
            invert_matrix(random_matrix(rng, n, n, singular=True))
