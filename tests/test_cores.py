import random
from fractions import Fraction

import pytest
from helpers import embed_core_element, identity_morphism, restrict_core_element
from hypothesis import given, settings
from hypothesis import strategies as st

from mvb.atlas import FiniteBase, associated_decomposed, decomposed, validate
from mvb.bundle import (
    canonicalize,
    element,
    elements_equal,
    morphism_from_canonical,
    zero_element,
)
from mvb.cores import (
    core,
    core_by_stages,
    core_closure_certificate,
    core_morphism,
    include_by_nested_sums,
    is_core_member,
    partition_core,
    partition_core_morphism,
    pullback,
    ultracore_sequence,
)
from mvb.cubecat import IndexSet, Partition, cube_plan, full_set, nonempty_subsets
from mvb.errors import InvalidInput
from mvb.gauge import DimAssignment
from mvb.rand import random_element, random_gauge, twisted_instance
from mvb.split import decompose


def dims_of(n, value=1):
    return DimAssignment(n, {s: value for s in nonempty_subsets(full_set(n))})


def test_core_of_decomposed_triple_matches_identification():
    # (S, J) = ({1,2,3}, {1,2}): a double bundle with slots for the
    # {3}-factor, the {1,2}-factor, and the full factor
    a = decomposed(dims_of(3), FiniteBase(["p"]))
    spec, c = core(a, [1, 2, 3], [1, 2])
    assert c.n == 2
    assert [list(b) for b in c.axis_blocks] == [[1, 2], [3]]
    assert c.dims.dim(IndexSet([1])) == 1   # ambient {1,2}
    assert c.dims.dim(IndexSet([2])) == 1   # ambient {3}
    assert c.dims.dim(IndexSet([1, 2])) == 1  # ambient {1,2,3}
    assert c.node_dim(full_set(2)) == 3
    assert validate(c).valid


def test_core_at_singleton_is_whole_face():
    a = twisted_instance(51, n=3, n_points=2, n_charts=2)
    spec, c = core(a, [1, 2, 3], [2])
    assert c.n == 3
    # singleton core keeps every slot, relabeled along its blocks
    assert c.node_dim(full_set(3)) == a.node_dim(full_set(3))
    assert validate(c).valid


def test_core_at_whole_node_is_plain_bundle():
    a = twisted_instance(52, n=3, n_points=2, n_charts=2)
    spec, c = core(a, [1, 2, 3], [1, 2, 3])
    assert c.n == 1
    assert c.dims.dim(IndexSet([1])) == a.dims.dim(full_set(3))
    assert validate(c).valid


def test_core_closure_certificate_twisted():
    a = twisted_instance(53, n=3, n_points=2, n_charts=2)
    cert = core_closure_certificate(a, full_set(3), Partition([[1, 2], [3]]))
    assert cert.passed


def test_cores_validate_on_twisted():
    a = twisted_instance(54, n=3, n_points=2, n_charts=3)
    for inner in ([1, 2], [2, 3], [1, 3], [1, 2, 3]):
        spec, c = core(a, [1, 2, 3], inner)
        assert validate(c).valid


def test_core_membership_and_embedding_round_trip():
    rng = random.Random(1)
    a = twisted_instance(55, n=3, n_points=2, n_charts=2)
    spec, c = core(a, [1, 2, 3], [1, 2])
    for _ in range(8):
        small = random_element(rng, c)
        big = embed_core_element(a, spec.blocks, small)
        assert is_core_member(a, big, spec.inner)
        back = restrict_core_element(a, c, canonicalize(a, big))
        assert elements_equal(c, small, back)


def test_core_membership_is_chart_independent():
    rng = random.Random(2)
    a = twisted_instance(56, n=2, n_points=1, n_charts=2)
    spec, c = core(a, [1, 2], [1, 2])
    p = a.base.points[0]
    charts = a.charts_at(p)
    small = random_element(rng, c, point=p, chart=charts[0])
    big = embed_core_element(a, spec.blocks, small)
    from mvb.bundle import transport
    assert is_core_member(a, big, spec.inner)
    assert is_core_member(a, transport(a, big, charts[1]), spec.inner)


def test_core_by_stages_trivial_and_decomposed():
    a = decomposed(dims_of(3), FiniteBase(["p"]))
    assert core_by_stages(a, [1, 2, 3], [1, 2], [1, 2]).passed
    assert core_by_stages(a, [1, 2, 3], [1, 2], [1]).passed


def test_core_by_stages_twisted():
    a = twisted_instance(57, n=3, n_points=2, n_charts=2)
    assert core_by_stages(a, [1, 2, 3], [1, 2], [1]).passed
    assert core_by_stages(a, [1, 2, 3], [1, 2, 3], [2]).passed
    assert core_by_stages(a, [1, 2, 3], [1, 2, 3], [2, 3]).passed


def test_core_by_stages_bad_inclusions():
    a = decomposed(dims_of(2), FiniteBase(["p"]))
    with pytest.raises(InvalidInput):
        core_by_stages(a, [1, 2], [1], [1, 2])


def test_core_morphism_identity_and_functoriality():
    rng = random.Random(3)
    a = twisted_instance(58, n=3, n_points=2, n_charts=2)
    ident = identity_morphism(a)
    restricted = core_morphism(ident, [1, 2, 3], [1, 2])
    assert all(g.is_identity() for g in restricted.data.values())

    # two random statomorphism-induced endomorphisms compose functorially
    fam1 = {p: random_gauge(rng, a.dims, statomorphism=True) for p in a.base}
    fam2 = {p: random_gauge(rng, a.dims, statomorphism=True) for p in a.base}
    t1 = morphism_from_canonical(a, a, fam1)
    t2 = morphism_from_canonical(a, a, fam2)
    lhs = core_morphism(t2.compose(t1), [1, 2, 3], [2, 3])
    rhs = core_morphism(t2, [1, 2, 3], [2, 3]).compose(
        core_morphism(t1, [1, 2, 3], [2, 3]))
    assert lhs == rhs


def test_core_morphism_zero_linear_part():
    a = twisted_instance(59, n=2, n_points=1, n_charts=1)
    zero_family = {
        p: random_gauge(random.Random(0), a.dims).compose(
            random_gauge(random.Random(0), a.dims).invert())
        for p in a.base
    }
    # zero out everything: morphism with zero components
    from mvb.gauge import Gauge
    zf = {p: Gauge(a.dims, a.dims, {}) for p in a.base}
    tau = morphism_from_canonical(a, a, zf)
    restricted = core_morphism(tau, [1, 2], [1, 2])
    assert all(g.components[key].is_zero()
               for g in restricted.data.values() for key in g.components)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_restricted_decomposition_starts_at_the_core_model(seed, n):
    # the restricted source of a decomposition is the partition core of
    # its decomposed model, which is the decomposed model of the core
    a = twisted_instance(seed, n=n, n_points=2, n_charts=2)
    dec = decompose(a)
    for ambient, blocks in cube_plan(n).keys:
        restricted = partition_core_morphism(dec, ambient, blocks)
        model = associated_decomposed(partition_core(a, ambient, blocks))
        assert restricted.source.transitions == model.transitions, (ambient, blocks)
        assert dict(restricted.data) == {
            key: g.diagonal_restrict(blocks) for key, g in dec.data.items()}


def test_pullback_dims_and_surjectivity():
    a = twisted_instance(60, n=3, n_points=2, n_charts=2)
    pb = pullback(a)
    assert pb.certificate.passed
    assert pb.presentation.dims.dim(full_set(3)) == 0
    for s in nonempty_subsets(full_set(3)):
        if s != full_set(3):
            assert pb.presentation.dims.dim(s) == a.dims.dim(s)
    assert validate(pb.presentation).valid
    assert pb.projection.is_natural()


def test_pullback_fiber_dim_count_n3():
    a = decomposed(dims_of(3), FiniteBase(["p"]))
    pb = pullback(a)
    assert a.node_dim(full_set(3)) == 7
    assert pb.presentation.node_dim(full_set(3)) == 6


def test_pullback_n1_is_base():
    a = twisted_instance(61, n=1, n_points=3, n_charts=2)
    pb = pullback(a)
    assert pb.presentation.node_dim(IndexSet([1])) == 0
    assert pb.certificate.passed


def test_pullback_n2_vacant_core():
    # for a double bundle the pullback drops exactly the top slot
    a = twisted_instance(62, n=2, n_points=2, n_charts=2)
    pb = pullback(a)
    assert pb.presentation.dims.dim(IndexSet([1, 2])) == 0
    assert pb.presentation.dims.dim(IndexSet([1])) == a.dims.dim(IndexSet([1]))


def test_ultracore_sequence_exact_on_fixtures():
    for seed, n in ((63, 2), (64, 3)):
        a = twisted_instance(seed, n=n, n_points=2, n_charts=2)
        for axis in range(1, n + 1):
            iota, pi, cert = ultracore_sequence(a, axis)
            assert cert.passed, cert.to_dict()
            assert iota.is_natural()


def test_ultracore_dimension_identity_n3_all_ones():
    a = decomposed(dims_of(3), FiniteBase(["p"]))
    iota, pi, cert = ultracore_sequence(a, 1)
    assert cert.passed
    identity = [w for w in cert.witnesses if "dimension_identity" in w]
    assert identity and identity[0]["dimension_identity"] == [7, 1, 6]


def test_inclusion_is_top_slot_on_decomposed():
    rng = random.Random(4)
    a = decomposed(dims_of(3, 2), FiniteBase(["p"]))
    z = zero_element(a, full_set(3), "p")
    zc = dict(z.components)
    zc[full_set(3)] = (Fraction(5), Fraction(-1))
    z = element(a, full_set(3), "0", "p", zc)
    side = random_element(rng, a, node=IndexSet([2, 3]), point="p")
    out = include_by_nested_sums(a, 1, z, side)
    assert out.components[full_set(3)] == (Fraction(5), Fraction(-1))
    for s in nonempty_subsets(IndexSet([2, 3])):
        assert out.components[s] == side.components[s]
    for s in nonempty_subsets(full_set(3)):
        if 1 in s and s != full_set(3):
            assert all(x == 0 for x in out.components[s])


def test_cores_of_faces_equal_faces_of_cores():
    # restricting to a face first and taking the core second gives the
    # same presentation as taking the core inside the full cube
    a = twisted_instance(66, n=4, n_points=2, n_charts=2)
    s_set = IndexSet([1, 2, 3])
    face_pres = partition_core(a, s_set, Partition([[i] for i in s_set]))
    # core of the face: the face axes are 1..3 in the same order
    spec_direct, direct = core(a, s_set, [1, 2], check=False)
    spec_via, via = core(face_pres, full_set(3), [1, 2], check=False)
    assert direct.dims == via.dims
    assert direct.transitions == via.transitions


def test_disjoint_core_intersection_is_merged_diagonal():
    from helpers import is_diagonal_core_member
    rng = random.Random(6)
    a = twisted_instance(67, n=4, n_points=2, n_charts=2)
    s_set = full_set(4)
    inner_i, inner_j = IndexSet([1, 2]), IndexSet([3, 4])
    merged = Partition([inner_i, inner_j])
    for _ in range(20):
        e = random_element(rng, a, node=s_set)
        both = is_core_member(a, e, inner_i) and is_core_member(a, e, inner_j)
        assert both == is_diagonal_core_member(a, e, merged)
    # crafted members of the intersection
    for _ in range(10):
        e = random_element(rng, a, node=s_set)
        comps = {
            key: (vec if all(
                key.isdisjoint(b) or b.issubset(key) for b in merged)
                else tuple(0 * x for x in vec))
            for key, vec in e.components.items()
        }
        member = element(a, s_set, e.chart, e.point, comps)
        assert is_core_member(a, member, inner_i)
        assert is_core_member(a, member, inner_j)


def test_overlapping_core_intersection_is_union_core():
    # for inner sets that meet, joint membership is membership in the
    # core at their union (the slot computation forces the union here)
    rng = random.Random(7)
    a = twisted_instance(68, n=3, n_points=2, n_charts=2)
    s_set = full_set(3)
    inner_i, inner_j = IndexSet([1, 2]), IndexSet([2, 3])
    for _ in range(20):
        e = random_element(rng, a, node=s_set)
        both = is_core_member(a, e, inner_i) and is_core_member(a, e, inner_j)
        assert both == is_core_member(a, e, inner_i.union(inner_j))
    # a nonzero ultracore element is in both cores
    z = zero_element(a, s_set, a.base.points[0])
    zc = dict(z.components)
    zc[s_set] = tuple(Fraction(1) for _ in zc[s_set])
    member = element(a, s_set, z.chart, z.point, zc)
    assert is_core_member(a, member, inner_i)
    assert is_core_member(a, member, inner_j)
    assert is_core_member(a, member, s_set)


def test_inclusion_ordering_independence_twisted():
    rng = random.Random(5)
    a = twisted_instance(65, n=3, n_points=2, n_charts=2)
    pt = a.base.points[0]
    d_top = a.dims.dim(full_set(3))
    z = zero_element(a, full_set(3), pt)
    zc = dict(z.components)
    zc[full_set(3)] = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d_top))
    z = element(a, full_set(3), z.chart, pt, zc)
    side = random_element(rng, a, node=IndexSet([2, 3]), point=pt)
    out_a = include_by_nested_sums(a, 1, z, side, [2, 3])
    out_b = include_by_nested_sums(a, 1, z, side, [3, 2])
    assert elements_equal(a, out_a, out_b)
