import gc
import random
import weakref
from fractions import Fraction

import pytest
from gauge_oracle import permute_gauge
from helpers import random_vectors

from mvb.cubecat import IndexSet, Partition, cube_plan, full_set, nonempty_subsets
from mvb.errors import DimensionMismatch, SingularMatrix
from mvb.exactlin import MultiTensor
from mvb.gauge import (
    DimAssignment,
    Gauge,
    diagonal_dims,
    identity_gauge,
    singleton_dims,
)
from mvb.rand import random_dims, random_gauge

J1 = IndexSet([1])
J2 = IndexSet([2])
J12 = IndexSet([1, 2])
TRIV12 = Partition([J12])
SPLIT12 = Partition([J1, J2])


def dims_all_one(n):
    return DimAssignment(n, {s: 1 for s in nonempty_subsets(full_set(n))})


def scalar_gauge_n2(a, b, c, omega):
    """n=2, every dimension 1: linear parts (a, b, c), nonlinear entry omega."""
    d = dims_all_one(2)
    return Gauge(d, d, {
        (J1, Partition([J1])): MultiTensor(1, (1,), [a]),
        (J2, Partition([J2])): MultiTensor(1, (1,), [b]),
        (J12, TRIV12): MultiTensor(1, (1,), [c]),
        (J12, SPLIT12): MultiTensor(1, (1, 1), [omega]),
    })


def random_gauge(rng, dims_src, dims_tgt=None, statomorphism=False):
    from mvb.rand import random_gauge as _rg
    return _rg(rng, dims_src, dims_tgt, statomorphism=statomorphism)


def test_identity_evaluates_to_input():
    d = dims_all_one(2)
    g = identity_gauge(d)
    v = {J1: (Fraction(3),), J2: (Fraction(5),), J12: (Fraction(7),)}
    assert g.evaluate(v) == v


def test_evaluate_hand_expanded_example():
    # identity linear parts, sole nonlinear entry 2:
    # out_12 = v_12 + 2 * v_1 * v_2 = 7 + 30
    g = scalar_gauge_n2(1, 1, 1, 2)
    v = {J1: (Fraction(3),), J2: (Fraction(5),), J12: (Fraction(7),)}
    out = g.evaluate(v)
    assert out[J1] == (Fraction(3),)
    assert out[J2] == (Fraction(5),)
    assert out[J12] == (Fraction(37),)


def test_evaluate_kills_zero_input():
    rng = random.Random(2)
    g = random_gauge(rng, random_dims(rng, 3))
    zero = {s: tuple(Fraction(0) for _ in range(g.source_dims.dim(s)))
            for s in nonempty_subsets(full_set(3))}
    out = g.evaluate(zero)
    assert all(all(x == 0 for x in vec) for vec in out.values())


def test_compose_unit_laws():
    rng = random.Random(5)
    for n in (1, 2, 3):
        dims = random_dims(rng, n)
        g = random_gauge(rng, dims)
        ident = identity_gauge(dims)
        assert ident.compose(g) == g
        assert g.compose(ident) == g


def test_compose_statomorphism_entries_add():
    # sole nonlinear entries 2 and 3 with identity linear parts compose to 5
    g = scalar_gauge_n2(1, 1, 1, 2)
    f = scalar_gauge_n2(1, 1, 1, 3)
    h = g.compose(f)
    assert h.component(J12, SPLIT12).entries == (Fraction(5),)
    assert h.is_statomorphism()


def test_compose_symbolic_oracle_with_primes():
    # distinct primes stand in for formal coefficients: the composite
    # nonlinear entry must be c2*omega1 + omega2*a1*b1 and the linear
    # parts must multiply.
    a1, b1, c1, w1 = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    a2, b2, c2, w2 = Fraction(11), Fraction(13), Fraction(17), Fraction(19)
    f = scalar_gauge_n2(a1, b1, c1, w1)
    g = scalar_gauge_n2(a2, b2, c2, w2)
    h = g.compose(f)
    assert h.component(J1, Partition([J1])).entries == (a2 * a1,)
    assert h.component(J2, Partition([J2])).entries == (b2 * b1,)
    assert h.component(J12, TRIV12).entries == (c2 * c1,)
    assert h.component(J12, SPLIT12).entries == (c2 * w1 + w2 * a1 * b1,)


def test_compose_evaluation_contract_random():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        d0, d1, d2 = (random_dims(rng, n) for _ in range(3))
        f = random_gauge(rng, d0, d1)
        g = random_gauge(rng, d1, d2)
        h = g.compose(f)
        v = random_vectors(rng, d0)
        assert h.evaluate(v) == g.evaluate(f.evaluate(v))


def test_compose_associative_componentwise():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(1, 3)
        dims = [random_dims(rng, n) for _ in range(4)]
        f = random_gauge(rng, dims[0], dims[1])
        g = random_gauge(rng, dims[1], dims[2])
        h = random_gauge(rng, dims[2], dims[3])
        assert h.compose(g.compose(f)) == (h.compose(g)).compose(f)


def test_invert_identity():
    d = dims_all_one(3)
    assert identity_gauge(d).invert() == identity_gauge(d)


def test_invert_statomorphism_negates_entry():
    g = scalar_gauge_n2(1, 1, 1, 2)
    inv = g.invert()
    assert inv.component(J12, SPLIT12).entries == (Fraction(-2),)


def test_invert_symbolic_oracle():
    a, b, c, w = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    g = scalar_gauge_n2(a, b, c, w)
    inv = g.invert()
    assert inv.component(J12, SPLIT12).entries == (-w / (a * b * c),)
    assert inv.component(J12, TRIV12).entries == (1 / c,)


def test_invert_two_sided_random():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        dims = random_dims(rng, n)
        g = random_gauge(rng, dims)
        inv = g.invert()
        ident = identity_gauge(dims)
        assert g.compose(inv) == ident
        assert inv.compose(g) == ident


def test_invert_singular_reports_subset():
    d = dims_all_one(2)
    comps = {
        (J1, Partition([J1])): MultiTensor(1, (1,), [0]),
        (J2, Partition([J2])): MultiTensor.identity(1),
        (J12, TRIV12): MultiTensor.identity(1),
    }
    g = Gauge(d, d, comps)
    with pytest.raises(SingularMatrix) as err:
        g.invert()
    assert "[1]" in str(err.value)


def test_statomorphism_detection():
    d = dims_all_one(2)
    assert identity_gauge(d).is_statomorphism()
    g = scalar_gauge_n2(2, 1, 1, 0)
    assert not g.is_statomorphism()
    assert scalar_gauge_n2(1, 1, 1, 9).is_statomorphism()


def test_statomorphisms_form_subgroup():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 3)
        dims = random_dims(rng, n)
        s = random_gauge(rng, dims, statomorphism=True)
        t = random_gauge(rng, dims, statomorphism=True)
        assert s.compose(t).is_statomorphism()
        assert s.invert().is_statomorphism()


def test_linearity_preservation_per_axis():
    # evaluate respects the fiberwise addition that sums components
    # containing a chosen axis and fixes the others
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 3)
        dims = random_dims(rng, n)
        g = random_gauge(rng, dims)
        i = rng.randint(1, n)
        v = random_vectors(rng, dims)
        w = dict(v)
        for s in nonempty_subsets(full_set(n)):
            if i in s:
                w[s] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dims.dim(s)))
        summed = {
            s: (tuple(x + y for x, y in zip(v[s], w[s])) if i in s else v[s])
            for s in v
        }
        gv, gw, gs = g.evaluate(v), g.evaluate(w), g.evaluate(summed)
        for s in v:
            if i in s:
                assert gs[s] == tuple(x + y for x, y in zip(gv[s], gw[s]))
            else:
                assert gs[s] == gv[s]


def test_diagonal_restrict_matches_evaluation():
    # restricting to unions of blocks commutes with evaluation on
    # vectors supported on union slots
    rng = random.Random(43)
    dims = random_dims(rng, 3)
    g = random_gauge(rng, dims)
    blocks = Partition([[1, 2], [3]])
    sub = g.diagonal_restrict(blocks)
    assert sub.source_dims == diagonal_dims(dims, blocks)
    v_small = random_vectors(rng, sub.source_dims)
    v_big = {s: tuple(Fraction(0) for _ in range(dims.dim(s)))
             for s in nonempty_subsets(full_set(3))}
    v_big[IndexSet([1, 2])] = v_small[IndexSet([1])]
    v_big[IndexSet([3])] = v_small[IndexSet([2])]
    v_big[IndexSet([1, 2, 3])] = v_small[IndexSet([1, 2])]
    out_small = sub.evaluate(v_small)
    out_big = g.evaluate(v_big)
    assert out_big[IndexSet([1, 2])] == out_small[IndexSet([1])]
    assert out_big[IndexSet([3])] == out_small[IndexSet([2])]
    assert out_big[IndexSet([1, 2, 3])] == out_small[IndexSet([1, 2])]
    # components outside unions of blocks vanish on core-supported input
    assert all(x == 0 for x in out_big[IndexSet([1])])
    assert all(x == 0 for x in out_big[IndexSet([2])])
    assert all(x == 0 for x in out_big[IndexSet([1, 3])])
    assert all(x == 0 for x in out_big[IndexSet([2, 3])])


def test_permute_gauge_round_trip_and_composition():
    rng = random.Random(47)
    dims = random_dims(rng, 3)
    g = random_gauge(rng, dims)
    perm = {1: 2, 2: 3, 3: 1}
    inv = {v: k for k, v in perm.items()}
    assert permute_gauge(permute_gauge(g, perm), inv) == g
    # permuting then evaluating = evaluating with relabeled slots
    v = random_vectors(rng, dims)
    pg = permute_gauge(g, perm)
    pv = {IndexSet(perm[i] for i in s): vec for s, vec in v.items()}
    out = g.evaluate(v)
    pout = pg.evaluate(pv)
    for s, vec in out.items():
        assert pout[IndexSet(perm[i] for i in s)] == vec


def test_singleton_dims_zeroes_higher_slots():
    d = DimAssignment(2, {J1: 2, J2: 3, J12: 4})
    v = singleton_dims(d)
    assert v.dim(J1) == 2 and v.dim(J2) == 3 and v.dim(J12) == 0


@pytest.mark.parametrize("key", [
    (J12, Partition([J1])),              # blocks do not partition the target
    (IndexSet([3]), Partition([[3]])),   # target outside the cube
    (IndexSet(), Partition([])),         # empty target
    (J12, (J2, J1)),                     # blocks out of canonical order
    "J12",                               # not a (target, blocks) pair
])
def test_gauge_rejects_unknown_component_key(key):
    d = dims_all_one(2)
    comps = {(s, Partition([s])): MultiTensor.identity(1) for s in (J1, J2, J12)}
    comps[key] = MultiTensor(1, (1,), [5])
    with pytest.raises(DimensionMismatch) as err:
        Gauge(d, d, comps)
    assert repr(key) in str(err.value)


def test_gauge_accepts_plain_tuple_keys():
    # keys equal to the canonical (IndexSet, Partition) pairs are known
    d = dims_all_one(2)
    comps = {((1,), ((1,),)): MultiTensor(1, (1,), [2]),
             ((1, 2), ((1,), (2,))): MultiTensor(1, (1, 1), [3])}
    g = Gauge(d, d, comps)
    assert g.component(J1, [J1]).entries == (Fraction(2),)
    assert g.component(J12, SPLIT12).entries == (Fraction(3),)
    assert g.linear_part(J2).is_zero()


def test_explicit_zero_components_are_stored_as_absent():
    rng = random.Random(7)
    src, tgt = random_dims(rng, 3, max_dim=2), random_dims(rng, 3, max_dim=2)
    zeros = {(s, rho): MultiTensor.zeros(tgt.dims[s], src.block_dims(rho))
             for s, rho in cube_plan(3).keys}
    explicit = Gauge(src, tgt, zeros)
    empty = Gauge(src, tgt, {})
    assert explicit == empty and hash(explicit) == hash(empty)
    assert explicit.tensors == empty.tensors == (None,) * len(cube_plan(3).keys)
    g = random_gauge(rng, src)
    for key, tensor in zip(cube_plan(3).keys, g.tensors):
        assert (tensor is None) == g.components[key].is_zero()


def test_components_view_covers_the_plan():
    rng = random.Random(8)
    d = random_dims(rng, 3, max_dim=2)
    g = Gauge(d, d, {(J1, Partition([J1])): MultiTensor.identity(d.dims[J1])})
    view = g.components
    keys = cube_plan(3).keys
    assert list(view) == list(keys) and len(view) == len(keys)
    for subset, rho in keys[1:]:
        tensor = view[(subset, rho)]
        assert tensor.is_zero()
        assert (tensor.out_dim, tensor.in_dims) == (d.dims[subset], d.block_dims(rho))
    assert dict(view) == view and (J12, SPLIT12) in view
    with pytest.raises(KeyError):
        view[(J12, Partition([[1, 2, 3]]))]
    assert (IndexSet([4]), Partition([[4]])) not in view


def test_gauge_is_freed_by_reference_counting_alone():
    g = scalar_gauge_n2(2, 3, 5, 7)
    assert g.components[(J12, SPLIT12)].entries == (Fraction(7),)
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_zero_dimensional_slot_identity():
    d = DimAssignment(2, {J1: 1, J2: 0, J12: 2})
    g = identity_gauge(d)
    assert g.tensors[cube_plan(2).index[(J2, Partition([J2]))]] is None
    assert g.is_identity() and g.is_statomorphism()
    assert not Gauge(d, d, {}).is_identity()
