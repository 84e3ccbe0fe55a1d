"""The integer tensor kernels against the entry-by-entry Fraction oracles."""

import math
import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from tensor_oracle import apply as oracle_apply
from tensor_oracle import compose_tensors as oracle_compose
from tensor_oracle import invert_matrix as oracle_invert_matrix
from tensor_oracle import kernel_basis as oracle_kernel_basis
from tensor_oracle import rank as oracle_rank
from tensor_oracle import solve_linear as oracle_solve_linear

from mvb.errors import SingularMatrix
from mvb.exactlin import (
    MultiTensor,
    _sum_of_composites,
    compose_tensors,
    invert_matrix,
    kernel_basis,
    rank,
    solve_linear,
)

KERNELS = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

# zero, small integers, small and large mixed denominators, negatives
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20)),
)
DIMS = st.integers(0, 3)


@st.composite
def tensors(draw, out_dim, in_dims):
    size = out_dim
    for d in in_dims:
        size *= d
    if draw(st.integers(0, 4)) == 0:
        return MultiTensor.zeros(out_dim, in_dims)
    return MultiTensor(out_dim, in_dims,
                       draw(st.lists(RATIONALS, min_size=size, max_size=size)))


@st.composite
def compositions(draw):
    """An outer tensor, one inner tensor per outer block, and slot groups
    that hand every composite input position to exactly one inner."""
    total_in = tuple(draw(st.lists(DIMS, max_size=4)))
    k = draw(st.integers(1 if total_in else 0, 3))
    owner = [draw(st.integers(0, k - 1)) for _ in total_in]
    order = draw(st.permutations(range(len(total_in))))
    groups = [[pos for pos in order if owner[pos] == m] for m in range(k)]
    mids = tuple(draw(DIMS) for _ in range(k))
    outer = draw(tensors(draw(DIMS), mids))
    inners = [draw(tensors(mid, tuple(total_in[g] for g in group)))
              for mid, group in zip(mids, groups)]
    return outer, inners, groups, total_in


@KERNELS
@given(compositions())
def test_compose_tensors_matches_fraction_oracle(case):
    outer, inners, groups, total_in = case
    got = compose_tensors(outer, inners, groups, total_in)
    assert got == oracle_compose(outer, inners, groups, total_in)
    assert all(type(x) is Fraction for x in got.entries)


@st.composite
def applications(draw):
    in_dims = tuple(draw(st.lists(DIMS, max_size=3)))
    tensor = draw(tensors(draw(DIMS), in_dims))
    args = [draw(st.lists(RATIONALS, min_size=d, max_size=d)) for d in in_dims]
    return tensor, args


@KERNELS
@given(applications())
def test_apply_matches_fraction_oracle(case):
    tensor, args = case
    got = tensor.apply(args)
    assert got == oracle_apply(tensor, args)
    assert all(type(x) is Fraction for x in got)


def test_equality_and_hash_ignore_the_integer_form():
    entries = [Fraction(1, 6), Fraction(-5, 4), Fraction(0), Fraction(7)]
    used = MultiTensor(2, (2,), entries)
    fresh = MultiTensor(2, (2,), entries)
    hash_before = hash(used)
    used.apply([(Fraction(1, 3), Fraction(2))])
    assert used == fresh and fresh == used
    assert hash(used) == hash(fresh) == hash_before
    assert len({used, fresh}) == 1


def integer_built(tensor, factor=1):
    """``tensor`` remade in integer form from its cleared numerators, each
    numerator and the denominator first multiplied by ``factor``."""
    nums, den = tensor.integer_form()
    return MultiTensor.from_integers(tensor.out_dim, tensor.in_dims,
                                      [x * factor for x in nums], den * factor)


def assert_same_value(a, b):
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert a.entries == b.entries
    assert a.integer_form() == b.integer_form()


def test_integer_built_tensors_reduce_their_numerators():
    half_one = MultiTensor.from_integers(1, (2,), [2, 4], 4)
    assert half_one.integer_form() == ([1, 2], 2)
    assert_same_value(half_one, MultiTensor(1, (2,), [Fraction(1, 2), 1]))
    zero = MultiTensor.from_integers(2, (1,), [0, 0], 6)
    assert zero.is_zero() and zero.integer_form() == ([0, 0], 1)
    assert_same_value(zero, MultiTensor.zeros(2, (1,)))
    for out_dim, in_dims in [(0, (3,)), (2, (0,)), (0, ()), (2, ())]:
        size = out_dim * math.prod(in_dims)
        empty = MultiTensor.from_integers(out_dim, in_dims, [0] * size, 5)
        assert_same_value(empty, MultiTensor.zeros(out_dim, in_dims))


@st.composite
def shaped_tensors(draw):
    return draw(tensors(draw(DIMS), tuple(draw(st.lists(DIMS, max_size=3)))))


@KERNELS
@given(shaped_tensors(), st.integers(1, 12))
def test_integer_and_fraction_built_tensors_agree(tensor, factor):
    assert_same_value(integer_built(tensor, factor), tensor)
    assert_same_value(integer_built(tensor, factor), integer_built(tensor))
    assert integer_built(tensor, factor).is_zero() == tensor.is_zero()


@KERNELS
@given(compositions(), st.integers(1, 6))
def test_compose_tensors_of_integer_built_tensors_matches_fraction_oracle(case, factor):
    outer, inners, groups, total_in = case
    got = compose_tensors(integer_built(outer, factor),
                          [integer_built(t, factor) for t in inners], groups, total_in)
    want = oracle_compose(outer, inners, groups, total_in)
    assert_same_value(got, want)
    assert got.is_identity() == want.is_identity()


def oracle_sum(terms, out_dim, total_in):
    total = MultiTensor.zeros(out_dim, total_in)
    for outer, inners, groups in terms:
        total = total.plus(oracle_compose(outer, inners, groups, total_in))
    return total


@st.composite
def composition_sums(draw):
    """Two to four composition terms into one composite shape.  Each term
    has its own outer tensor and 0 to 4 inner tensors, whose slot groups
    hand every composite input position to one inner in any order, so
    groups interleave; with no inner the outer is constant along every
    position.  Each tensor is remade from its integers times its own
    factor, so the terms' denominators differ and the inputs are not
    reduced; all-zero tensors and 0 dims are drawn often."""
    total_in = tuple(draw(st.lists(DIMS, max_size=4)))
    out_dim = draw(DIMS)
    terms = []
    for _ in range(draw(st.integers(2, 4))):
        k = draw(st.integers(1 if total_in else 0, 4)) if draw(st.booleans()) else 0
        terms.append(draw(terms_of(out_dim, total_in, k, DIMS)))
    return terms, out_dim, total_in


@st.composite
def terms_of(draw, out_dim, total_in, k, mid_dims):
    """One composition term into ``total_in`` with ``k`` inner tensors,
    whose slot groups hand every position to one inner in any order;
    each tensor remade from its integers times its own factor."""
    owner = [draw(st.integers(0, k - 1)) for _ in total_in] if k else []
    order = draw(st.permutations(range(len(total_in))))
    groups = tuple(tuple(pos for pos in order if owner[pos] == m) for m in range(k))
    mids = tuple(draw(mid_dims) for _ in range(k))
    factor = st.integers(1, 6)
    outer = integer_built(draw(tensors(out_dim, mids)), draw(factor))
    inners = [integer_built(draw(tensors(mid, tuple(total_in[g] for g in group))),
                            draw(factor))
              for mid, group in zip(mids, groups)]
    return outer, inners, groups


@KERNELS
@given(composition_sums())
def test_sums_of_composites_match_the_sum_of_fraction_oracles(case):
    terms, out_dim, total_in = case
    assert_same_value(_sum_of_composites(terms, out_dim, total_in),
                      oracle_sum(terms, out_dim, total_in))


@st.composite
def many_inner_sums(draw):
    """One to three terms of three to six inner tensors into one composite
    shape of three to six positions, every dim 1 or 2 (the 0-dim cases
    are in ``test_sums_of_composites_cover_every_kernel_loop``), so most
    terms of three or four inner tensors are small enough to be walked,
    and the rest, five or six inner tensors among them, take the dot
    products."""
    dims = st.integers(1, 2)
    total_in = tuple(draw(st.lists(dims, min_size=3, max_size=6)))
    out_dim = draw(dims)
    terms = [draw(terms_of(out_dim, total_in, draw(st.integers(3, 6)), dims))
             for _ in range(draw(st.integers(1, 3)))]
    return terms, out_dim, total_in


@KERNELS
@given(many_inner_sums())
def test_sums_of_many_inner_tensors_match_the_sum_of_fraction_oracles(case):
    terms, out_dim, total_in = case
    assert_same_value(_sum_of_composites(terms, out_dim, total_in),
                      oracle_sum(terms, out_dim, total_in))


@st.composite
def sums_with_identity_terms(draw):
    """One to four terms into one composite shape, each an ordinary term
    or one that only multiplies by identities: an outer tensor on identity
    inner tensors, one per composite position in any order, or a one-block
    identity outer on one inner tensor fed by every position in any
    order."""
    total_in = tuple(draw(st.lists(DIMS, max_size=4)))
    out_dim = draw(DIMS)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["ordinary", "identity inners", "identity outer"]))
        order = tuple(draw(st.permutations(range(len(total_in)))))
        shape = tuple(total_in[pos] for pos in order)
        moved = integer_built(draw(tensors(out_dim, shape)), draw(st.integers(1, 6)))
        if kind == "identity inners":
            terms.append((moved, [MultiTensor.identity(d) for d in shape],
                          tuple((pos,) for pos in order)))
        elif kind == "identity outer":
            terms.append((MultiTensor.identity(out_dim), [moved], (order,)))
        else:
            k = draw(st.integers(1 if total_in else 0, 4))
            terms.append(draw(terms_of(out_dim, total_in, k, DIMS)))
    return terms, out_dim, total_in


@KERNELS
@given(sums_with_identity_terms())
def test_sums_with_identity_terms_match_the_sum_of_fraction_oracles(case):
    terms, out_dim, total_in = case
    assert_same_value(_sum_of_composites(terms, out_dim, total_in),
                      oracle_sum(terms, out_dim, total_in))


def test_one_term_sums_with_identity_factors_match_the_fraction_oracle():
    """Identity inners and a one-block identity outer, leaving every
    input where it is or moving inputs, make the composite the other
    tensor's entries at the positions they feed."""
    rng = random.Random(3)
    outer = MultiTensor(2, (2, 3), [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                    for _ in range(12)])
    inner = MultiTensor(2, (3, 2), [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                    for _ in range(12)])
    i2, i3 = MultiTensor.identity(2), MultiTensor.identity(3)
    for term, total_in in [((outer, [i2, i3], ((0,), (1,))), (2, 3)),
                           ((i2, [inner], ((0, 1),)), (3, 2)),
                           ((outer, [i2, i3], ((1,), (0,))), (3, 2)),
                           ((i2, [inner], ((1, 0),)), (2, 3))]:
        got = _sum_of_composites([term], 2, total_in)
        assert_same_value(got, oracle_sum([term], 2, total_in))


def test_sums_of_composites_cover_every_kernel_loop():
    """One term per loop of the kernel: one, two, three (with interleaved
    slot groups) and four inner tensors walked; no inner, five inners on
    a small outer tensor, and one, two and three inners on outer tensors
    of more than 32 numerators, as dot products; identity inners with the
    outer tensor's inputs moved, and a one-block identity outer on an
    inner tensor left in place.  Over different denominators, then
    the same with an all-zero outer and with a 0-dim input."""
    rng = random.Random(5)

    def tensor(out_dim, in_dims, den):
        size = out_dim * math.prod(in_dims)
        return MultiTensor.from_integers(
            out_dim, in_dims, [rng.randint(-4, 4) * 2 for _ in range(size)], den * 2)

    for total_in, zero_outer in [((2, 3, 2, 2), False), ((2, 3, 2, 2), True),
                                 ((2, 0, 2, 2), False)]:
        d = total_in
        terms = [
            (tensor(2, (3,), 5), [tensor(3, d, 1)], ((0, 1, 2, 3),)),
            (tensor(2, (2, 3), 7), [tensor(2, (d[2], d[0]), 2), tensor(3, (d[1], d[3]), 1)],
             ((2, 0), (1, 3))),
            (tensor(2, (), 3), [], ()),
            (tensor(2, (2, 2, 3), 1),
             [tensor(2, (d[0], d[3]), 3), tensor(2, (d[1],), 1), tensor(3, (d[2],), 4)],
             ((0, 3), (1,), (2,))),
            (tensor(2, (17,), 1), [tensor(17, (d[3], d[1]), 3)], ((3, 1),)),
            (tensor(2, (4, 5), 9), [tensor(4, (d[2],), 1), tensor(5, (d[0], d[1], d[3]), 2)],
             ((2,), (0, 1, 3))),
            (tensor(2, (1, 2, 2, 2), 5),
             [tensor(1, (d[3],), 1), tensor(2, (d[0],), 3), tensor(2, (d[2],), 1),
              tensor(2, (d[1],), 2)], ((3,), (0,), (2,), (1,))),
            (tensor(2, (2, 1, 2, 1, 2), 3),
             [tensor(2, (d[1],), 1), tensor(1, (), 5), tensor(2, (d[2], d[0]), 1),
              tensor(1, (d[3],), 2), tensor(2, (), 1)], ((1,), (), (2, 0), (3,), ())),
            (tensor(2, (3, 3, 2), 1),
             [tensor(3, (d[1],), 2), tensor(3, (d[3], d[0]), 1), tensor(2, (d[2],), 1)],
             ((1,), (3, 0), (2,))),
            (tensor(2, (d[2], d[0], d[3], d[1]), 3),
             [MultiTensor.identity(d[2]), MultiTensor.identity(d[0]),
              MultiTensor.identity(d[3]), MultiTensor.identity(d[1])],
             ((2,), (0,), (3,), (1,))),
            (MultiTensor.identity(2), [tensor(2, d, 7)], ((0, 1, 2, 3),)),
        ]
        if zero_outer:
            outer, inners, groups = terms[3]
            terms[3] = (MultiTensor.zeros(2, outer.in_dims), inners, groups)
        got = _sum_of_composites(terms, 2, total_in)
        assert_same_value(got, oracle_sum(terms, 2, total_in))
        assert got.is_zero() == (0 in total_in)


@st.composite
def matrices(draw):
    """Matrices up to 5x5, 0xk and kx0 included, with zero rows, zero
    columns and a dependent last row drawn often."""
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    zero_rows, zero_cols = draw(st.sets(st.integers(0, 4))), draw(st.sets(st.integers(0, 4)))
    rows = [[Fraction(0) if i in zero_rows or j in zero_cols else draw(RATIONALS)
             for j in range(n_cols)] for i in range(n_rows)]
    if n_rows >= 3 and draw(st.booleans()):
        rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
    return MultiTensor(n_rows, (n_cols,), [x for row in rows for x in row])


@KERNELS
@given(matrices(), st.integers(1, 12))
def test_rank_on_the_integer_form_matches_fraction_oracle(matrix, factor):
    want = oracle_rank(matrix)
    assert rank(matrix) == want
    assert rank(integer_built(matrix, factor)) == want


@st.composite
def defective_matrices(draw, square=False):
    """Matrices up to 5x5, 0xk and kx0 included: dense ones, and ones with
    a zero row, a zero column or a dependent last row."""
    n_rows = draw(st.integers(0, 5))
    n_cols = n_rows if square else draw(st.integers(0, 5))
    rows = [[draw(RATIONALS) for _ in range(n_cols)] for _ in range(n_rows)]
    defect = draw(st.sampled_from([None, None, "zero row", "zero column", "dependent row"]))
    if n_rows and defect == "zero row":
        rows[draw(st.integers(0, n_rows - 1))] = [Fraction(0)] * n_cols
    elif n_cols and defect == "zero column":
        j = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[j] = Fraction(0)
    elif n_rows >= 2 and defect == "dependent row":
        rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
    return MultiTensor(n_rows, (n_cols,), [x for row in rows for x in row])


def outcome(solver, *args):
    """The solver's value, or the text of the SingularMatrix it raises."""
    try:
        return solver(*args)
    except SingularMatrix as err:
        return "SingularMatrix: %s" % err


@KERNELS
@given(st.one_of(matrices(), defective_matrices()), st.integers(1, 12))
def test_kernel_and_image_match_fraction_oracles(matrix, factor):
    for built in (matrix, integer_built(matrix, factor)):
        assert rank(built) == oracle_rank(matrix)
        basis = kernel_basis(built)
        assert basis == oracle_kernel_basis(matrix)
        assert all(type(x) is Fraction for v in basis for x in v)


@KERNELS
@given(defective_matrices(square=True), st.integers(1, 12), st.data())
def test_inverse_and_solve_match_fraction_oracles(matrix, factor, data):
    n = matrix.out_dim
    rhs = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
    want_inverse = outcome(oracle_invert_matrix, matrix)
    want_solution = outcome(oracle_solve_linear, matrix, rhs)
    for built in (matrix, integer_built(matrix, factor)):
        got = outcome(invert_matrix, built)
        assert got == want_inverse
        if isinstance(want_inverse, MultiTensor):
            assert got.integer_form() == want_inverse.integer_form()
            assert got.entries == want_inverse.entries
        solution = outcome(solve_linear, built, rhs)
        assert solution == want_solution
        if not isinstance(solution, str):
            assert all(type(x) is Fraction for x in solution)
