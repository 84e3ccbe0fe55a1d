import random

import pytest

from mvb.atlas import (
    AtlasPresentation,
    Chart,
    FiniteBase,
    associated_decomposed,
    associated_vacant,
    decomposed,
    diagonal,
    perturb_transition,
    vacant,
    validate,
)
from mvb.cubecat import IndexSet, Partition, full_set, nonempty_subsets
from mvb.errors import InvalidInput
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment, Gauge, identity_gauge
from mvb.rand import random_gauge, twisted_instance


def dims_of(n, value=1):
    return DimAssignment(n, {s: value for s in nonempty_subsets(full_set(n))})


def test_decomposed_single_chart_validates():
    a = decomposed(dims_of(2), FiniteBase(["p", "q"]))
    assert len(a.charts) == 1
    assert validate(a).valid


def test_decomposed_total_fiber_dimension_n3():
    # seven coordinate slots for n=3 with every slot one-dimensional
    a = decomposed(dims_of(3), FiniteBase(["p"]))
    assert a.node_dim(full_set(3)) == 7


def test_decomposed_n1_is_trivial_bundle():
    a = decomposed(dims_of(1, 4), FiniteBase(["p"]))
    assert a.n == 1
    assert a.node_dim(IndexSet([1])) == 4
    assert validate(a).valid


def test_decomposed_node_dims_n2():
    d = DimAssignment(2, {IndexSet([1]): 2, IndexSet([2]): 3, IndexSet([1, 2]): 5})
    a = decomposed(d, FiniteBase(["p"]))
    assert a.node_dim(IndexSet([1])) == 2
    assert a.node_dim(IndexSet([2])) == 3
    assert a.node_dim(IndexSet([1, 2])) == 10


def test_vacant_dims():
    d = DimAssignment(2, {IndexSet([1]): 1, IndexSet([2]): 1, IndexSet([1, 2]): 7})
    a = vacant(d, FiniteBase(["p"]))
    assert a.dims.dim(IndexSet([1, 2])) == 0
    assert a.node_dim(IndexSet([1, 2])) == 2
    assert validate(a).valid


def test_vacant_n3_total_dim():
    a = vacant(dims_of(3), FiniteBase(["p"]))
    assert a.node_dim(full_set(3)) == 3


def test_diagonal_all_singletons_is_decomposed():
    d = dims_of(3)
    blocks = Partition([[1], [2], [3]])
    a = diagonal(d, blocks, FiniteBase(["p"]))
    b = decomposed(d, FiniteBase(["p"]))
    assert a.dims == b.dims
    assert validate(a).valid


def test_diagonal_merged_block_example():
    # ground {1,2,3} partitioned into {1,2} and {3}: a 2-cube whose top
    # slot takes the ambient dimension of {1,2,3}
    d = dims_of(3)
    a = diagonal(d, Partition([[1, 2], [3]]), FiniteBase(["p"]))
    assert a.n == 2
    assert a.dims.dim(IndexSet([1])) == d.dim(IndexSet([1, 2]))
    assert a.dims.dim(IndexSet([2])) == d.dim(IndexSet([3]))
    assert a.dims.dim(IndexSet([1, 2])) == d.dim(IndexSet([1, 2, 3]))
    assert a.node_dim(full_set(2)) == 3
    assert validate(a).valid


def test_diagonal_one_block():
    d = dims_of(3, 2)
    a = diagonal(d, Partition([[1, 2, 3]]), FiniteBase(["p"]))
    assert a.n == 1
    assert a.dims.dim(IndexSet([1])) == 2
    assert validate(a).valid


def test_two_chart_mutually_inverse_validates():
    rng = random.Random(1)
    dims = dims_of(2)
    base = FiniteBase(["p"])
    charts = (Chart("a", ("p",)), Chart("b", ("p",)))
    g = random_gauge(rng, dims)
    ident = identity_gauge(dims)
    transitions = {
        ("a", "a", "p"): ident,
        ("b", "b", "p"): ident,
        ("a", "b", "p"): g,
        ("b", "a", "p"): g.invert(),
    }
    a = AtlasPresentation(2, dims, base, charts, transitions)
    assert validate(a).valid


def test_non_inverse_pair_reported_at_degenerate_triple():
    rng = random.Random(2)
    dims = dims_of(2)
    charts = (Chart("a", ("p",)), Chart("b", ("p",)))
    g = random_gauge(rng, dims)
    ident = identity_gauge(dims)
    transitions = {
        ("a", "a", "p"): ident,
        ("b", "b", "p"): ident,
        ("a", "b", "p"): g,
        ("b", "a", "p"): g,  # wrong: should be the inverse
    }
    a = AtlasPresentation(2, dims, FiniteBase(["p"]), charts, transitions)
    report = validate(a)
    assert not report.valid
    kinds = {(v.kind, v.charts) for v in report.violations}
    assert ("cocycle", ("a", "b", "a")) in kinds


def test_generated_instances_validate():
    for seed in range(6):
        a = twisted_instance(seed, n=2, n_points=2, n_charts=2)
        assert validate(a).valid
    a = twisted_instance(99, n=3, n_points=3, n_charts=3)
    assert validate(a).valid


def test_missing_transition_is_structural():
    a = twisted_instance(3, n=2, n_points=2, n_charts=2)
    broken = dict(a.transitions)
    key = sorted(broken)[0]
    del broken[key]
    b = AtlasPresentation(a.n, a.dims, a.base, a.charts, broken)
    report = validate(b)
    assert not report.valid
    assert all(v.kind == "structural" for v in report.violations)


def test_perturbation_detected_at_exactly_one_triple():
    rng = random.Random(7)
    a = twisted_instance(17, n=2, n_points=2, n_charts=3)
    assert validate(a).valid
    # pick a point in a triple overlap
    triple_points = [
        p for p in a.base
        if len(a.charts_at(p)) >= 3
    ]
    assert triple_points, "fixture must have a triple overlap"
    p = triple_points[0]
    tau = random_gauge(rng, a.dims, statomorphism=True)
    assert not tau.is_identity()
    b = perturb_transition(a, "2", "1", p, tau)
    report = validate(b)
    cocycle = [v for v in report.violations if v.kind == "cocycle"]
    assert len(cocycle) == 1
    assert cocycle[0].charts == ("2", "1", "0")
    assert cocycle[0].point == p


def test_associated_models_validate_and_are_diagonal():
    a = twisted_instance(11, n=3, n_points=2, n_charts=2)
    d = associated_decomposed(a)
    v = associated_vacant(a)
    assert validate(d).valid
    assert validate(v).valid
    assert all(g.is_block_diagonal() for g in d.transitions.values())
    assert v.dims.dim(IndexSet([1, 2])) == 0


def test_valid_atlas_transitions_are_mutually_inverse():
    # fabricating the reverse transition by inversion reproduces the
    # stored one, so re-validating after the swap is a no-op
    a = twisted_instance(14, n=2, n_points=2, n_charts=3)
    rebuilt = dict(a.transitions)
    for (dst, src, p), g in a.transitions.items():
        if dst != src:
            rebuilt[(src, dst, p)] = g.invert()
    assert rebuilt == a.transitions
    b = AtlasPresentation(a.n, a.dims, a.base, a.charts, rebuilt)
    assert validate(b).valid


def test_canonical_chart_is_least():
    a = twisted_instance(13, n=2, n_points=2, n_charts=3)
    for p in a.base:
        at = a.charts_at(p)
        assert a.canonical_chart(p) == sorted(at)[0]


def test_singular_one_block_parts_are_invertibility_violations():
    instance = twisted_instance(21, n=2, max_dim=2, n_points=1, n_charts=2)
    key = ("0", "1", "p0")
    gauge = instance.transitions[key]
    one_blocks = [(s, rho) for s, rho in gauge.components if len(rho) == 1
                  and instance.dims.dim(s) > 0]
    # a zero one-block part (absent from the store) and a rank-one one
    zero_key, low_key = one_blocks[0], one_blocks[-1]
    d = instance.dims.dim(low_key[0])
    low = MultiTensor(d, (d,), [1] * (d * d))
    comps = dict(gauge.components)
    comps.pop(zero_key)
    comps[low_key] = low
    transitions = dict(instance.transitions)
    transitions[key] = Gauge(instance.dims, instance.dims, comps)
    report = validate(AtlasPresentation(instance.n, instance.dims, instance.base,
                                        instance.charts, transitions))
    found = [(v.kind, v.charts, v.point, v.subset, v.rho) for v in report.violations]
    expected = [("invertibility", ("0", "1"), "p0", s, rho) for s, rho in [zero_key]
                + ([low_key] if d > 1 else [])]
    assert found == expected


def test_decomposed_rejects_a_transition_with_a_multi_block_part():
    dims = DimAssignment(2, {(1,): 1, (2,): 1, (1, 2): 1})
    ident = identity_gauge(dims)
    # the top key, {1,2} in singletons, is the last in plan order
    twisted = Gauge.from_tensors(dims, dims, ident.tensors[:-1] + (MultiTensor(1, (1, 1), [1]),))
    charts = [("a", ("p",)), ("b", ("p",))]
    with pytest.raises(InvalidInput, match="decomposed transitions must be one-block"):
        decomposed(dims, ["p"], charts, {("a", "b", "p"): twisted})
