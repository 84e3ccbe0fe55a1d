import random
from fractions import Fraction

import pytest
from chain_oracle import compose_from_canonical
from gauge_oracle import permute_gauge
from helpers import hom_apply, identity_morphism, random_morphism_gauge
from tensor_oracle import entry

from mvb.atlas import FiniteBase, associated_decomposed, decomposed, validate
from mvb.bundle import (
    add,
    element,
    elements_equal,
    hom_bundle,
    hom_dims,
    morphism_from_canonical,
    project,
    scale,
    tangent_prolongation,
    transport,
    zero_element,
    zero_lift,
)
from mvb import cores
from mvb.cores import face, partition_core, pullback
from mvb.cubecat import IndexSet, full_set, nonempty_subsets
from mvb.errors import InvalidInput
from mvb.exactlin import MultiTensor
from mvb.formats import atlas_from_json, atlas_to_json
from mvb.gauge import DimAssignment
from mvb.rand import (
    interchange_quadruple,
    random_element,
    random_gauge,
    twisted_instance,
)
from mvb.split import decompose


def dims_of(n, value=1):
    return DimAssignment(n, {s: value for s in nonempty_subsets(full_set(n))})


def test_project_decomposed_example():
    a = decomposed(dims_of(2), FiniteBase(["p"]))
    e = element(a, [1, 2], "0", "p", {
        (1,): (Fraction(1),), (2,): (Fraction(2),), (1, 2): (Fraction(3),),
    })
    p1 = project(a, e, 1)
    assert p1.node == IndexSet([2])
    assert p1.components == {IndexSet([2]): (Fraction(2),)}


def test_project_commutes():
    rng = random.Random(0)
    a = twisted_instance(21, n=3, n_points=2, n_charts=2)
    for _ in range(10):
        e = random_element(rng, a)
        assert project(a, project(a, e, 1), 2) == project(a, project(a, e, 2), 1)


def test_zero_projects_to_zero():
    a = twisted_instance(22, n=2, n_points=2, n_charts=2)
    z = zero_element(a, full_set(2), a.base.points[0])
    assert project(a, z, 1) == zero_element(a, IndexSet([2]), a.base.points[0])


def with_empty_ids(a, point, chart):
    """``a`` read back from JSON with ``point`` and ``chart`` renamed ``""``."""
    obj = atlas_to_json(a)
    obj["base"] = ["" if p == point else p for p in obj["base"]]
    for c in obj["charts"]:
        c["id"] = "" if c["id"] == chart else c["id"]
        c["domain"] = ["" if p == point else p for p in c["domain"]]
    for t in obj["transitions"]:
        for field, old in (("from", chart), ("to", chart), ("point", point)):
            t[field] = "" if t[field] == old else t[field]
    return atlas_from_json(obj)


def test_random_elements_keep_an_empty_point_and_chart():
    b = with_empty_ids(twisted_instance(5, n=2), "p0", "0")
    rng = random.Random(0)
    for _ in range(20):
        e = random_element(rng, b, point="", chart="")
        assert (e.point, e.chart) == ("", "")


def test_pullback_samples_each_chart_and_point_with_empty_ids(monkeypatch):
    b = with_empty_ids(twisted_instance(5, n=2), "p0", "0")
    seen = []
    fiber_matrix = cores.fiber_matrix

    def spy(morphism, axis, base_elem):
        seen.append((base_elem.chart, base_elem.point))
        return fiber_matrix(morphism, axis, base_elem)

    monkeypatch.setattr(cores, "fiber_matrix", spy)
    assert pullback(b).certificate.passed
    assert seen == [(c.id, p) for c in b.charts for p in c.domain for _ in range(b.n * 3)]


def test_zero_element_in_an_empty_chart_that_misses_the_point_is_refused():
    b = with_empty_ids(twisted_instance(2, n=2), "p0", "0")
    assert [c.domain for c in b.charts if c.id == ""] == [("",)]
    assert zero_element(b, full_set(2), "", "").chart == ""
    with pytest.raises(InvalidInput, match="outside chart"):
        zero_element(b, full_set(2), "p1", "")


def test_transport_round_trip_and_equality():
    rng = random.Random(1)
    a = twisted_instance(23, n=2, n_points=2, n_charts=2)
    for _ in range(10):
        e = random_element(rng, a)
        for other in a.charts_at(e.point):
            moved = transport(a, e, other)
            assert elements_equal(a, e, moved)
            back = transport(a, moved, e.chart)
            assert back == e


def test_interchange_law_random_quadruples():
    rng = random.Random(2)
    for seed in (31, 32):
        a = twisted_instance(seed, n=3, n_points=2, n_charts=2)
        for node in nonempty_subsets(full_set(3)):
            if len(node) < 2:
                continue
            axes = list(node)
            for i_pos in range(len(axes)):
                for j_pos in range(i_pos + 1, len(axes)):
                    i, j = axes[i_pos], axes[j_pos]
                    for _ in range(5):
                        d1, d2, d3, d4 = interchange_quadruple(rng, a, node, i, j)
                        left = add(a, add(a, d1, d2, i), add(a, d3, d4, i), j)
                        right = add(a, add(a, d1, d3, j), add(a, d2, d4, j), i)
                        assert left == right


def test_scale_zero_gives_fiber_zero():
    rng = random.Random(3)
    a = twisted_instance(33, n=2, n_points=2, n_charts=2)
    e = random_element(rng, a)
    z = scale(a, 0, e, 1)
    for s, vec in z.components.items():
        if 1 in s:
            assert all(x == 0 for x in vec)
        else:
            assert vec == e.components[s]


def test_add_chart_independence():
    rng = random.Random(4)
    a = twisted_instance(34, n=2, n_points=1, n_charts=2)
    p = a.base.points[0]
    charts = a.charts_at(p)
    assert len(charts) == 2
    for _ in range(5):
        e1 = random_element(rng, a, point=p, chart=charts[0])
        e2c = {
            s: (tuple(Fraction(rng.randint(-3, 3)) for _ in vec) if 1 in s else vec)
            for s, vec in e1.components.items()
        }
        e2 = element(a, e1.node, charts[0], p, e2c)
        in_alpha = add(a, e1, e2, 1)
        in_beta = add(
            a, transport(a, e1, charts[1]), transport(a, e2, charts[1]), 1,
        )
        assert elements_equal(a, in_alpha, in_beta)


def test_add_requires_matching_projection():
    rng = random.Random(5)
    a = twisted_instance(35, n=2, n_points=1, n_charts=1)
    e1 = random_element(rng, a)
    comps = {
        s: tuple(x + 1 for x in vec) for s, vec in e1.components.items()
    }
    e2 = element(a, e1.node, e1.chart, e1.point, comps)
    with pytest.raises(InvalidInput):
        add(a, e1, e2, 1)


def test_zero_lift_identity_and_factorization():
    rng = random.Random(6)
    a = twisted_instance(36, n=3, n_points=2, n_charts=2)
    e = random_element(rng, a, node=IndexSet([1]))
    assert zero_lift(a, e, IndexSet([1])) == e
    # two different staged lifts agree
    via_12 = zero_lift(a, zero_lift(a, e, IndexSet([1, 2])), full_set(3))
    via_13 = zero_lift(a, zero_lift(a, e, IndexSet([1, 3])), full_set(3))
    assert via_12 == via_13
    # projecting a lifted axis recovers the smaller lift
    lifted = zero_lift(a, e, full_set(3))
    assert project(a, lifted, 2) == zero_lift(a, e, IndexSet([1, 3]))


def test_face_full_is_identity():
    a = twisted_instance(37, n=3, n_points=2, n_charts=2)
    f = face(a, full_set(3), IndexSet())
    assert f.dims == a.dims
    assert f.transitions == a.transitions


def test_face_proper_subcube_of_decomposed():
    a = decomposed(dims_of(3), FiniteBase(["p"]))
    f = face(a, IndexSet([1, 2]), IndexSet())
    assert f.n == 2
    assert [f.dims.dim(s) for s in nonempty_subsets(full_set(2))] == [1, 1, 1]
    assert validate(f).valid


def test_face_subcube_of_twisted_validates():
    a = twisted_instance(38, n=3, n_points=2, n_charts=2)
    for outer in (IndexSet([1, 2]), IndexSet([2, 3]), IndexSet([1, 3])):
        f = face(a, outer, IndexSet())
        assert validate(f).valid


def test_face_with_frozen_axes():
    a = twisted_instance(39, n=3, n_points=2, n_charts=2)
    f = face(a, full_set(3), IndexSet([3]))
    assert f.n == 2
    d = a.dims
    assert f.dims.dim(IndexSet([1])) == d.dim(IndexSet([1])) + d.dim(IndexSet([1, 3]))
    assert f.dims.dim(IndexSet([2])) == d.dim(IndexSet([2])) + d.dim(IndexSet([2, 3]))
    assert f.dims.dim(IndexSet([1, 2])) == (
        d.dim(IndexSet([1, 2])) + d.dim(full_set(3))
    )
    assert validate(f).valid


def test_face_frozen_axis_transitions_match_ambient_evaluation():
    # grouped face coordinates embed as ambient elements with zero
    # frozen slots; the face transition must agree with the ambient one
    # under that embedding, slot by slot
    from core_oracle import _grouped_offsets
    from mvb.cubecat import subsets
    rng = random.Random(11)
    a = twisted_instance(49, n=3, n_points=2, n_charts=2)
    inner = IndexSet([3])
    f = face(a, full_set(3), inner)
    free = IndexSet([1, 2])
    relabel = {1: 1, 2: 2}

    def group_layout(core_part):
        return _grouped_offsets(a.dims, core_part, inner)

    for (dst, src, p), face_gauge in f.transitions.items():
        ambient_gauge = a.transitions[(dst, src, p)]
        grouped = {
            s: tuple(Fraction(rng.randint(-2, 2))
                     for _ in range(f.dims.dim(s)))
            for s in nonempty_subsets(full_set(2))
        }
        ambient = {}
        for s in nonempty_subsets(full_set(3)):
            ambient[s] = tuple(Fraction(0) for _ in range(a.dims.dim(s)))
        for s_face, vec in grouped.items():
            core_part = IndexSet(relabel[i] for i in s_face)
            offsets, total = group_layout(core_part)
            assert total == len(vec)
            for frozen_sub in subsets(inner):
                d = a.dims.dim(core_part.union(frozen_sub))
                start = offsets[frozen_sub]
                ambient[core_part.union(frozen_sub)] = vec[start:start + d]
        out_face = face_gauge.evaluate(grouped)
        out_ambient = ambient_gauge.evaluate(ambient)
        # frozen slots stay frozen at zero
        for s in nonempty_subsets(inner):
            assert all(x == 0 for x in out_ambient[s])
        for s_face in nonempty_subsets(full_set(2)):
            core_part = IndexSet(relabel[i] for i in s_face)
            offsets, total = group_layout(core_part)
            regrouped = []
            for frozen_sub in subsets(inner):
                regrouped.extend(out_ambient[core_part.union(frozen_sub)])
            assert tuple(regrouped) == out_face[s_face]


def test_face_frozen_axis_block_structure_n2():
    # for a double bundle frozen along axis 2, the face is an ordinary
    # bundle whose transition is the direct sum of the two linear parts
    a = twisted_instance(50, n=2, n_points=2, n_charts=2)
    f = face(a, full_set(2), IndexSet([2]))
    assert f.n == 1
    d1 = a.dims.dim(IndexSet([1]))
    d12 = a.dims.dim(full_set(2))
    for (dst, src, p), g in f.transitions.items():
        amb = a.transitions[(dst, src, p)]
        block = g.linear_part(IndexSet([1]))
        t1 = amb.linear_part(IndexSet([1]))
        t12 = amb.linear_part(full_set(2))
        for i in range(d1):
            for j in range(d1):
                assert entry(block, i, (j,)) == entry(t1, i, (j,))
            for j in range(d12):
                assert entry(block, i, (d1 + j,)) == 0
        for i in range(d12):
            for j in range(d1):
                assert entry(block, d1 + i, (j,)) == 0
            for j in range(d12):
                assert entry(block, d1 + i, (d1 + j,)) == entry(t12, i, (j,))


def test_face_everything_frozen_is_zero_fold():
    a = twisted_instance(40, n=2, n_points=2, n_charts=2)
    f = face(a, full_set(2), full_set(2))
    assert f.n == 0
    assert f.base == a.base


def test_morphism_identity_and_naturality():
    a = twisted_instance(41, n=2, n_points=2, n_charts=2)
    ident = identity_morphism(a)
    assert ident.is_natural()
    rng = random.Random(7)
    e = random_element(rng, a)
    assert ident.apply(e) == e


def test_random_natural_morphism():
    rng = random.Random(8)
    a = twisted_instance(42, n=2, n_points=2, n_charts=2)
    b = twisted_instance(43, n=2, n_points=2, n_charts=2, dims=a.dims)
    # force the same chart layout by rebuilding b over a's charts
    from mvb.atlas import AtlasPresentation
    from mvb.rand import random_gauge
    frames = {}
    for c in a.charts:
        for p in c.domain:
            frames[(c.id, p)] = random_gauge(rng, a.dims)
    transitions = {}
    for ca in a.charts:
        for cb in a.charts:
            for p in ca.domain:
                if p in cb.domain:
                    transitions[(ca.id, cb.id, p)] = frames[(ca.id, p)].compose(
                        frames[(cb.id, p)].invert())
    b = AtlasPresentation(a.n, a.dims, a.base, a.charts, transitions)
    family = {
        p: random_morphism_gauge(rng, a.dims, b.dims) for p in a.base
    }
    tau = morphism_from_canonical(a, b, family)
    assert tau.is_natural()
    # evaluating along either side of the naturality square agrees
    for _ in range(5):
        e = random_element(rng, a)
        out = tau.apply(e)
        for other in a.charts_at(e.point):
            assert elements_equal(b, tau.apply(transport(a, e, other)), out)


def test_naturality_skips_only_identity_self_transitions(monkeypatch):
    """Data under an identity self-transition on both sides commutes with
    it, so only the other pairs are composed; a self-transition that is
    not the identity is still checked."""
    from mvb.atlas import AtlasPresentation, Chart
    from mvb.bundle import BundleMorphism
    from mvb.gauge import Gauge
    rng = random.Random(9)
    a = twisted_instance(44, n=2, n_points=2, n_charts=3)
    tau = morphism_from_canonical(a, a, {
        p: random_morphism_gauge(rng, a.dims, a.dims) for p in a.base})
    for c in a.charts:  # derive every chart's data before counting
        for p in c.domain:
            tau.data[(c.id, p)]
    calls = []
    compose = Gauge.compose
    monkeypatch.setattr(Gauge, "compose", lambda g, f: calls.append(1) or compose(g, f))
    assert tau.is_natural()
    pairs = sum(len(a.charts_at(p)) * (len(a.charts_at(p)) - 1) for p in a.base)
    assert len(calls) == 2 * pairs > 0

    # over unit dims: a self-transition with bilinear part 1 and data
    # scaling every slot by 2 give bilinear parts 4 and 2 on the two sides
    d = dims_of(2)
    linear = {(s, (s,)): MultiTensor.identity(1) for s in nonempty_subsets(full_set(2))}
    bilinear = {((1, 2), ((1,), (2,))): MultiTensor(1, (1, 1), [1])}
    twisted = AtlasPresentation(2, d, FiniteBase(["p"]), (Chart("0", ("p",)),), {
        ("0", "0", "p"): Gauge(d, d, {**linear, **bilinear})})
    data = {("0", "p"): Gauge(d, d, {key: t.scaled(2) for key, t in linear.items()})}
    assert not BundleMorphism(twisted, twisted, data).is_natural()


def test_hom_dims_ordinary_case():
    e = dims_of(1, 3)
    f = dims_of(1, 2)
    assert hom_dims(e, f).dim(IndexSet([1])) == 6


def test_hom_dims_n2_all_ones_total():
    d = dims_of(2)
    h = hom_dims(d, d)
    assert h.dim(IndexSet([1])) == 1
    assert h.dim(IndexSet([2])) == 1
    assert h.dim(IndexSet([1, 2])) == 2
    assert h.node_dim(full_set(2)) == 4


def test_hom_apply_and_additivity():
    rng = random.Random(9)
    e_pres = twisted_instance(44, n=2, n_points=2, n_charts=2)
    h = hom_bundle(e_pres, e_pres)
    assert validate(h).valid
    p = e_pres.base.points[0]
    h1 = random_element(rng, h, point=p)
    h2c = {
        s: (tuple(Fraction(rng.randint(-3, 3)) for _ in vec) if 2 in s else vec)
        for s, vec in h1.components.items()
    }
    h2 = element(h, h1.node, h1.chart, p, h2c)
    summed = add(h, h1, h2, 2)
    x = random_element(rng, e_pres, point=p)
    out1 = hom_apply(e_pres, e_pres, h1, x)
    out2 = hom_apply(e_pres, e_pres, h2, x)
    outs = hom_apply(e_pres, e_pres, summed, x)
    assert outs == add(e_pres, out1, out2, 2)


def test_hom_section_defines_natural_morphism_compatible_with_cores():
    # a section of the morphism bundle induces a natural transformation;
    # pointwise evaluation agrees with the induced morphism, and the
    # core restriction of that morphism is again well-defined
    rng = random.Random(10)
    e_pres = twisted_instance(48, n=2, n_points=2, n_charts=2)
    from helpers import hom_encode
    from mvb.cores import core_morphism
    from mvb.cubecat import partitions as all_partitions
    family = {}
    hom_elems = {}
    for p in e_pres.base:
        g = random_morphism_gauge(rng, e_pres.dims, e_pres.dims)
        family[p] = g
        tensors = {
            (subset, rho): g.components[(subset, rho)]
            for subset in nonempty_subsets(full_set(2))
            for rho in all_partitions(subset)
        }
        hom_elems[p] = hom_encode(e_pres, e_pres, full_set(2), p, tensors)
    tau = morphism_from_canonical(e_pres, e_pres, family)
    assert tau.is_natural()
    for p in e_pres.base:
        x = random_element(rng, e_pres, point=p)
        via_hom = hom_apply(e_pres, e_pres, hom_elems[p], x)
        via_tau = tau.apply(x)
        assert elements_equal(e_pres, via_hom, via_tau)
    # functoriality through the core restriction
    sigma = morphism_from_canonical(e_pres, e_pres, {
        p: random_morphism_gauge(rng, e_pres.dims, e_pres.dims)
        for p in e_pres.base
    })
    lhs = core_morphism(sigma.compose(tau), [1, 2], [1, 2])
    rhs = core_morphism(sigma, [1, 2], [1, 2]).compose(
        core_morphism(tau, [1, 2], [1, 2]))
    assert lhs == rhs


def test_hom_encode_decode_round_trip():
    rng = random.Random(12)
    e_pres = twisted_instance(51, n=2, n_points=2, n_charts=2)
    from helpers import hom_encode, hom_decode
    from mvb.cubecat import partitions as all_partitions
    g = random_morphism_gauge(rng, e_pres.dims, e_pres.dims)
    tensors = {
        (subset, rho): g.components[(subset, rho)]
        for subset in nonempty_subsets(full_set(2))
        for rho in all_partitions(subset)
    }
    p = e_pres.base.points[0]
    encoded = hom_encode(e_pres, e_pres, full_set(2), p, tensors)
    decoded = hom_decode(e_pres, e_pres, encoded)
    assert decoded == tensors


def test_contract_slot():
    from mvb.exactlin import contract_slots
    t = MultiTensor(1, (2, 2), [1, 2, 3, 4])
    fixed = contract_slots(t, {1: (Fraction(1), Fraction(1))})
    # rows of the 2x2 block sum pairwise: [1+2, 3+4]
    assert fixed.in_dims == (2,)
    assert fixed.entries == (Fraction(3), Fraction(7))
    fixed0 = contract_slots(t, {0: (Fraction(2), Fraction(0))})
    assert fixed0.entries == (Fraction(2), Fraction(4))


def test_tangent_of_line_bundle():
    a = decomposed(dims_of(1), FiniteBase(["p", "q"]))
    t = tangent_prolongation(a)
    assert t.n == 2
    assert t.dims.dim(IndexSet([1])) == 1
    assert t.dims.dim(IndexSet([2])) == 0
    assert t.dims.dim(IndexSet([1, 2])) == 1
    assert validate(t).valid


def test_tangent_of_twisted_validates():
    a = twisted_instance(46, n=2, n_points=2, n_charts=2)
    t = tangent_prolongation(a)
    assert validate(t).valid


def test_double_tangent_commutes_up_to_swap():
    a = twisted_instance(47, n=2, n_points=2, n_charts=2)
    tt = tangent_prolongation(tangent_prolongation(a))
    swap = {1: 1, 2: 2, 3: 4, 4: 3}
    swapped_dims = {
        IndexSet(swap[i] for i in s): d for s, d in tt.dims.dims.items()
    }
    assert swapped_dims == tt.dims.dims
    for key, g in tt.transitions.items():
        assert permute_gauge(g, swap) == g


def test_morphism_from_canonical_matches_composing_at_every_chart():
    # the canonical chart keeps its gauge as given; composing it with the
    # identity self-transitions gives the same data
    rng = random.Random(23)
    a = twisted_instance(505, n=3, n_points=3, n_charts=3)
    model = associated_decomposed(a)
    d = decompose(a)
    families = [
        (model, a, {p: d.data[(a.canonical_chart(p), p)] for p in a.base}),
        (a, a, {p: random_gauge(rng, a.dims, statomorphism=True) for p in a.base}),
    ]
    core = partition_core(a, [[1, 2], [3]])
    families.append(
        (core, core, {p: random_gauge(rng, core.dims) for p in a.base}))
    for source, target, family in families:
        kept = morphism_from_canonical(source, target, family)
        composed = compose_from_canonical(source, target, family)
        assert kept.data == composed.data
        for p in source.base:
            assert kept.data[(source.canonical_chart(p), p)] is family[p]


def test_add_across_charts_is_the_canonical_sum():
    """Two summands given in different charts are both moved to the
    point's canonical chart and added there."""
    rng = random.Random(41)
    a = twisted_instance(41, n=2, n_points=1, n_charts=3)
    p = a.base.points[0]
    can = a.canonical_chart(p)
    c1, c2 = [c for c in a.charts_at(p) if c != can]
    e1 = random_element(rng, a, point=p, chart=can)
    free = random_element(rng, a, point=p, chart=can)
    # the summands share their projection along axis 2
    e2 = element(a, e1.node, can, p, {key: free.components[key] if 2 in key else vec
                                      for key, vec in e1.components.items()})
    total = add(a, transport(a, e1, c1), transport(a, e2, c2), 2)
    assert total == add(a, e1, e2, 2)
    assert total.chart == can
