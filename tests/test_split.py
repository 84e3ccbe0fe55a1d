import random
import re
from fractions import Fraction

import pytest
from chain_oracle import builder_chain_data, splitting_to_decomposition_data

from mvb import split
from mvb.atlas import (
    FiniteBase,
    associated_decomposed,
    associated_vacant,
    decomposed,
    validate,
)
from mvb.bundle import element, elements_equal
from mvb.cores import partition_core
from mvb.cubecat import IndexSet, Partition, cube_plan, full_set, nonempty_subsets, partitions
from mvb.errors import InvalidInput, SemanticError
from mvb.gauge import DimAssignment, Gauge, identity_gauge
from mvb.rand import random_element, random_gauge, twisted_instance
from mvb.split import (
    DecompositionBuilder,
    act_by_statomorphism,
    decompose,
    decompositions,
    extract_core_decompositions,
    extract_splitting,
    find_splitting,
    is_decomposition,
    is_splitting,
    normalize_atlas,
    split_pullback,
    splitting_to_decomposition,
    torsor_statomorphism,
)


def dims_of(n, value=1):
    return DimAssignment(n, {s: value for s in nonempty_subsets(full_set(n))})


def test_splitting_of_decomposed_is_canonical():
    a = decomposed(dims_of(2), FiniteBase(["p", "q"]))
    for strategy in ("least-chart", "uniform-average"):
        s = find_splitting(a, strategy)
        assert is_splitting(s)
        # higher components vanish: the canonical vacant inclusion
        for g in s.data.values():
            top = g.components[(full_set(2), Partition([[1], [2]]))]
            assert top.is_zero()


def test_splitting_twisted_n2_both_strategies():
    for seed in (71, 72, 73):
        a = twisted_instance(seed, n=2, n_points=2, n_charts=2)
        for strategy in ("least-chart", "uniform-average"):
            s = find_splitting(a, strategy)
            assert is_splitting(s)


def test_splitting_twisted_n3():
    a = twisted_instance(74, n=3, n_points=2, n_charts=2)
    for strategy in ("least-chart", "uniform-average"):
        s = find_splitting(a, strategy)
        assert is_splitting(s)


def test_frame_interpolation_repairs_nonlinear_right_inverse():
    # inject a right inverse whose top slot is quadratic in the second
    # axis; the interpolation must linearize it and still produce a
    # natural splitting
    a = twisted_instance(75, n=2, n_points=2, n_charts=2)
    d1 = a.dims.dim(IndexSet([1]))
    d2 = a.dims.dim(IndexSet([2]))
    d_top = a.dims.dim(full_set(2))

    def theta(chart, point, args):
        out = []
        for i in range(d_top):
            acc = Fraction(0)
            for x in args[0]:
                for y in args[1]:
                    acc += x * y * y  # quadratic in the second slot
            out.append(acc)
        return tuple(out)

    s = find_splitting(a, "least-chart", theta_top=theta)
    assert is_splitting(s)
    # multilinearity of the stored component is structural; the injected
    # nonlinearity must have been averaged into a genuine tensor
    sl = find_splitting(a, "least-chart")
    assert s.data != sl.data


def _scaled_product_hook(length):
    """A trilinear hook: the product of the first coordinates, times
    1..length."""
    def theta(chart, point, args):
        value = args[0][0] * args[1][0] * args[2][0]
        return tuple(value * (i + 1) for i in range(length))
    return theta


def test_theta_top_sets_only_the_top_slot_of_a_triple_bundle():
    # the top fiber has dim 1 and the face {1, 2} dim 2: a hook read at
    # the face tops too raised IndexError there
    a = twisted_instance(2718, n=3, n_points=2, n_charts=2)
    hooked = find_splitting(a, theta_top=_scaled_product_hook(a.dims.dim(full_set(3))))
    plain = find_splitting(a)
    assert is_splitting(hooked) and hooked.data != plain.data
    top = (full_set(3), Partition([[1], [2], [3]]))
    for location, gauge in hooked.data.items():
        for key, tensor in gauge.components.items():
            if key != top:
                assert tensor == plain.data[location].components[key], (location, key)


def test_theta_top_of_the_wrong_length_names_chart_point_and_length():
    a = twisted_instance(2718, n=3, n_points=2, n_charts=2)
    with pytest.raises(InvalidInput, match=r"^theta_top at chart '\w+', point 'p0'"
                       r" returned 2 values, expected 1$"):
        find_splitting(a, theta_top=_scaled_product_hook(2))


@pytest.mark.parametrize("strategy", ["least-chart", "uniform-average"])
def test_unit_decompose_checks_only_the_gauges_it_makes_new(strategy, monkeypatch):
    """On the n = 5 unit-dims decompose every pasted splitting gauge and
    every assembled decomposition gauge takes its tensors by position
    from checked gauges, so none is shape-checked again: the only checked
    gauges are identities, one made by validate and one holding the
    decomposition's one-block parts."""
    a = twisted_instance(9, n=5, max_dim=1, n_points=1, n_charts=2)
    calls = []
    store = Gauge._store
    monkeypatch.setattr(Gauge, "_store", lambda g, *args: calls.append(1) or store(g, *args))
    dec = decompose(a, strategy)
    assert len(calls) == 2
    assert is_decomposition(dec)


def test_decompose_identity_on_decomposed():
    a = decomposed(dims_of(3), FiniteBase(["p"]))
    d = decompose(a)
    assert is_decomposition(d)
    for g in d.data.values():
        assert g.is_identity()


def test_decompose_n1_twisted():
    a = twisted_instance(76, n=1, n_points=3, n_charts=2)
    d = decompose(a)
    assert is_decomposition(d)


def test_decompose_n2_twisted_with_bracket_check():
    a = twisted_instance(77, n=2, n_points=2, n_charts=2)
    d = decompose(a)
    assert is_decomposition(d)
    # the element chain evaluates both bracketing orders at every key
    builder = DecompositionBuilder(a)
    assert builder.decomposition(builder.top_key()).data == d.data
    for key in partitions(full_set(2)):
        assert (builder_chain_data(builder, key, check_bracketing=True)
                == builder.decomposition(key).data), key


def test_decompose_n2_matches_displayed_formula():
    # S(a, b, c) = Sigma(a, b) +_2 (0 over the 2-projection +_1 core(c))
    rng = random.Random(1)
    a = twisted_instance(78, n=2, n_points=2, n_charts=2)
    sigma = find_splitting(a)
    d = decompose(a)
    model = associated_decomposed(a)
    vac = associated_vacant(a)
    from mvb.bundle import add, project, zero_lift
    for _ in range(6):
        x = random_element(rng, model)
        out = d.apply(x)
        vac_x = element(vac, x.node, x.chart, x.point, {
            s: (x.components[s] if len(s) == 1 else ())
            for s in nonempty_subsets(full_set(2))
        })
        sig = sigma.apply(vac_x)
        core_x = element(model, x.node, x.chart, x.point, {
            s: (x.components[s] if s == full_set(2) else
                tuple(Fraction(0) for _ in x.components[s]))
            for s in nonempty_subsets(full_set(2))
        })
        core_img = d.apply(core_x)  # embeds the core slot
        lifted = zero_lift(a, project(a, sig, 2), full_set(2))
        expected = add(a, sig, add(a, lifted, core_img, 1), 2)
        assert elements_equal(a, out, expected)


def test_decompose_n3_twisted():
    a = twisted_instance(79, n=3, n_points=2, n_charts=2)
    d = decompose(a)
    assert is_decomposition(d)


def test_decomposition_round_trip_through_parts():
    # decomposition -> (splitting, core decompositions) -> decomposition
    a = twisted_instance(80, n=3, n_points=2, n_charts=2)
    d = decompose(a)
    sigma = extract_splitting(a, d)
    assert is_splitting(sigma)
    cores = extract_core_decompositions(d)
    rebuilt = splitting_to_decomposition(a, sigma, cores)
    assert rebuilt.data == d.data
    chained = splitting_to_decomposition_data(a, sigma, cores, check_bracketing=True)
    assert chained == d.data


def test_statomorphism_twisted_core_is_compatible_and_changes_output():
    # twisting one codimension-one core decomposition by a statomorphism
    # of its model passes the intersection checks (the conditions never
    # probe mixed vacant/core slots of a single core) and produces a
    # different, still valid decomposition
    a = twisted_instance(81, n=3, n_points=2, n_charts=2)
    d = decompose(a)
    sigma = extract_splitting(a, d)
    cores = extract_core_decompositions(d)
    mu = IndexSet([1, 2])
    bad = cores[mu]
    rngg = random.Random(5)
    from mvb.bundle import morphism_from_canonical
    while True:
        tau_fam = {p: random_gauge(rngg, bad.source.dims, statomorphism=True)
                   for p in a.base}
        if not all(g.is_identity() for g in tau_fam.values()):
            break
    twisted_core = bad.compose(morphism_from_canonical(
        bad.source, bad.source, tau_fam))
    from mvb.split import Decomposition
    cores[mu] = Decomposition(bad.source, bad.target, twisted_core.data)
    rebuilt = splitting_to_decomposition(a, sigma, cores)
    assert is_decomposition(rebuilt)
    assert rebuilt.data != d.data


def test_splitting_to_decomposition_rejects_incompatible():
    # a core family whose singleton linear part is corrupted violates
    # the restriction-to-splitting condition and must be rejected
    a = twisted_instance(81, n=3, n_points=2, n_charts=2)
    d = decompose(a)
    sigma = extract_splitting(a, d)
    cores = extract_core_decompositions(d)
    mu = IndexSet([1, 2])
    bad = cores[mu]
    corrupt = {}
    for keyp, g in bad.data.items():
        comps = dict(g.components)
        single = IndexSet([2])  # the {3}-axis of the merged cube
        tensor = comps[(single, Partition([single]))]
        comps[(single, Partition([single]))] = tensor.scaled(2)
        corrupt[keyp] = Gauge(g.source_dims, g.target_dims, comps)
    from mvb.split import Decomposition
    cores[mu] = Decomposition(bad.source, bad.target, corrupt)
    with pytest.raises(SemanticError):
        splitting_to_decomposition(a, sigma, cores)


def parts_and_wider_twin():
    """An n=3 atlas with d13 = 1, its splitting and core decompositions,
    and the same draw with d13 = 2."""
    a = twisted_instance(81, n=3, max_dim=2, n_points=2, n_charts=2)
    assert a.dims.dim([1, 3]) == 1
    dims = DimAssignment(3, {s: 2 if s == (1, 3) else a.dims.dim(s)
                             for s in nonempty_subsets(full_set(3))})
    b = twisted_instance(81, n=3, max_dim=2, n_points=2, n_charts=2, dims=dims)
    d = decompose(a)
    return a, extract_splitting(a, d), extract_core_decompositions(d), b


def test_splitting_to_decomposition_rejects_a_core_of_other_dims():
    a, sigma, cores, b = parts_and_wider_twin()
    cores[IndexSet([1, 3])] = extract_core_decompositions(decompose(b))[IndexSet([1, 3])]
    with pytest.raises(InvalidInput, match=r"core decomposition at \[1, 3\]"):
        splitting_to_decomposition(a, sigma, cores)


def test_splitting_to_decomposition_rejects_a_splitting_of_other_dims():
    a, _, cores, b = parts_and_wider_twin()
    with pytest.raises(InvalidInput, match="splitting"):
        splitting_to_decomposition(a, extract_splitting(b, decompose(b)), cores)


def other_layout(a, n_charts):
    """A decomposition of an atlas over ``a``'s dims and other charts."""
    return decompose(twisted_instance(5, n=3, dims=a.dims, n_points=2, n_charts=n_charts))


@pytest.mark.parametrize("n_charts", [3, 1])
def test_splitting_to_decomposition_rejects_a_splitting_over_other_charts(n_charts):
    a, _, cores, _ = parts_and_wider_twin()
    d = other_layout(a, n_charts)
    with pytest.raises(InvalidInput, match=r"^splitting has no component at chart '\d', point 'p0'$"):
        splitting_to_decomposition(a, extract_splitting(d.target, d), cores)


@pytest.mark.parametrize("n_charts", [3, 1])
def test_splitting_to_decomposition_rejects_a_core_over_other_charts(n_charts):
    a, sigma, cores, _ = parts_and_wider_twin()
    mu = IndexSet([1, 3])
    cores[mu] = extract_core_decompositions(other_layout(a, n_charts))[mu]
    with pytest.raises(InvalidInput, match=r"^core decomposition at \[1, 3\] has no component"
                                           r" at chart '\d', point 'p0'$"):
        splitting_to_decomposition(a, sigma, cores)


@pytest.mark.parametrize("key", [(1, 2, 3), (1,), (3, 4)])
def test_splitting_to_decomposition_rejects_a_key_that_is_no_pair(key):
    a, sigma, cores, _ = parts_and_wider_twin()
    cores[key] = cores[IndexSet([1, 2])]
    with pytest.raises(InvalidInput, match=re.escape(repr(key))):
        splitting_to_decomposition(a, sigma, cores)


def test_splitting_to_decomposition_rejects_a_pair_given_twice():
    # (2, 1) and (1, 2) name one pair; neither may replace the other
    a, sigma, cores, _ = parts_and_wider_twin()
    cores[(2, 1)] = cores[IndexSet([2, 3])]
    with pytest.raises(InvalidInput, match=r"\[1, 2\] is given twice"):
        splitting_to_decomposition(a, sigma, cores)


@pytest.mark.parametrize("strategy", ["least-chart", "uniform-average"])
@pytest.mark.parametrize("n", [3, 4])
def test_splitting_to_decomposition_reads_only_seeded_tops(n, strategy, monkeypatch):
    """Every top the rebuilt decomposition reads was seeded from its
    inputs: no top is pasted or conjugated, and no core view is made.
    Under least-chart an unseeded core would paste a zero top equal to
    the input's, so the data alone cannot show a missed seed."""
    a = twisted_instance(88, n=n, max_dim=1, n_points=2, n_charts=3)
    d = decompose(a, strategy)
    sigma, cores = extract_splitting(a, d), extract_core_decompositions(d)
    calls = []

    def counted(name, original):
        return lambda *args: calls.append(name) or original(*args)
    monkeypatch.setattr(split, "_conjugated_top", counted("conjugate", split._conjugated_top))
    monkeypatch.setattr(DecompositionBuilder, "_paste",
                        counted("paste", DecompositionBuilder._paste))
    monkeypatch.setattr(split, "partition_core", counted("view", partition_core))
    assert splitting_to_decomposition(a, sigma, cores).data == d.data
    assert calls == []


def test_both_strategies_give_decompositions_and_torsor():
    a = twisted_instance(82, n=2, n_points=2, n_charts=3)
    d1 = decompose(a, "least-chart")
    d2 = decompose(a, "uniform-average")
    assert is_decomposition(d1) and is_decomposition(d2)
    tau = torsor_statomorphism(d1, d2)
    for g in tau.data.values():
        assert g.is_statomorphism()
    # the pasting strategies genuinely differ on this twisted fixture
    assert any(not g.is_identity() for g in tau.data.values())
    # freeness: identical decompositions give the identity
    tau_id = torsor_statomorphism(d1, d1)
    assert all(g.is_identity() for g in tau_id.data.values())
    # transitivity: acting by tau sends d1 to d2
    acted = act_by_statomorphism(d1, tau)
    assert acted.data == d2.data


def test_torsor_round_trip_random_statomorphism():
    rng = random.Random(2)
    a = twisted_instance(83, n=2, n_points=2, n_charts=2)
    d = decompose(a)
    from mvb.bundle import morphism_from_canonical
    model = d.source
    fam = {p: random_gauge(rng, model.dims, statomorphism=True) for p in a.base}
    tau = morphism_from_canonical(model, model, fam)
    acted = act_by_statomorphism(d, tau)
    assert is_decomposition(acted)
    extracted = torsor_statomorphism(d, acted)
    assert extracted.data == tau.data


def test_normalize_atlas():
    a = twisted_instance(84, n=2, n_points=2, n_charts=2)
    d = decompose(a)
    normalized = normalize_atlas(a, d)
    assert validate(normalized).valid
    for g in normalized.transitions.values():
        assert g.is_block_diagonal()
    # normalizing an already-decomposed instance changes nothing
    b = decomposed(dims_of(2), FiniteBase(["p"]))
    db = decompose(b)
    nb = normalize_atlas(b, db)
    assert nb.transitions == b.transitions


def test_normalize_atlas_inverts_each_decomposition_gauge_once(monkeypatch):
    """One inversion per (chart, point), not one per transition: tw-n3b has
    22 transitions and 8 chart points."""
    a = twisted_instance(505, n=3, n_points=3, n_charts=3)
    d = decompose(a)
    calls = []
    original = Gauge.invert

    def counted(self):
        calls.append(self)
        return original(self)
    monkeypatch.setattr(Gauge, "invert", counted)
    normalized = normalize_atlas(a, d)
    assert len(calls) == len(d.data) == 8 < len(a.transitions)
    assert validate(normalized).valid


def test_normalized_atlas_is_intertwined():
    a = twisted_instance(85, n=2, n_points=2, n_charts=2)
    d = decompose(a)
    normalized = normalize_atlas(a, d)
    for (dst, src, p), g in a.transitions.items():
        left = g.compose(d.data[(src, p)])
        right = d.data[(dst, p)].compose(normalized.transitions[(dst, src, p)])
        assert left == right


def test_split_pullback_sections():
    for seed, n in ((86, 2), (87, 3)):
        a = twisted_instance(seed, n=n, n_points=2, n_charts=2)
        s = split_pullback(a)
        assert s.is_natural()


def test_split_pullback_decomposed_zero_top():
    a = decomposed(dims_of(2), FiniteBase(["p"]))
    s = split_pullback(a)
    for g in s.data.values():
        top = g.components[(full_set(2), Partition([full_set(2)]))]
        assert top.in_dims == (0,)
        nonlinear = g.components[(full_set(2), Partition([[1], [2]]))]
        assert nonlinear.is_zero()


def test_zero_dimensional_slots_through_the_pipeline():
    # vacant-like instances with empty slots decompose like any other
    dims = DimAssignment(3, {
        IndexSet([1]): 1, IndexSet([2]): 2, IndexSet([3]): 1,
        IndexSet([1, 2]): 0, IndexSet([1, 3]): 1, IndexSet([2, 3]): 0,
        IndexSet([1, 2, 3]): 1,
    })
    a = twisted_instance(89, n=3, n_points=2, n_charts=2, dims=dims)
    assert validate(a).valid
    d = decompose(a)
    assert is_decomposition(d)
    normalized = normalize_atlas(a, d)
    assert validate(normalized).valid


def test_small_triple_instance_decomposes_quickly():
    import time
    dims = dims_of(3)
    a = twisted_instance(90, n=3, n_points=1, n_charts=2, dims=dims)
    started = time.monotonic()
    d = decompose(a)
    elapsed = time.monotonic() - started
    assert is_decomposition(d)
    assert elapsed < 1.0, "took %.2fs" % elapsed


def test_shared_cache_reuses_core_splittings(monkeypatch):
    """Faces of cores and cores of faces reach one key through several
    routes, and each top is made once per (key, chart, point): every
    entry of the table in a chart other than its point's canonical one is
    conjugated once, and every canonical one conjugates each other
    chart's local splitting once."""
    calls = []
    conjugated_top = split._conjugated_top

    def counted(*args):
        calls.append(1)
        return conjugated_top(*args)
    monkeypatch.setattr(split, "_conjugated_top", counted)
    a = twisted_instance(88, n=4, max_dim=1, n_points=2, n_charts=3)
    builder = DecompositionBuilder(a, "uniform-average")
    builder.decomposition(builder.top_key())
    canonical = [(key, p) for key, chart, p in builder.cache.tops
                 if chart == a.canonical_chart(p)]
    assert sorted(canonical) == sorted(
        (rho, p) for _, rho in cube_plan(4).keys if len(rho) > 1 for p in a.base.points)
    others = len(builder.cache.tops) - len(canonical)
    assert others > 0
    assert len(calls) == others + sum(len(a.charts_at(p)) - 1 for _, p in canonical)


def test_strategies_share_one_object_per_key(monkeypatch):
    """Both strategies read each key's core from one map: on the corpus
    fixture tw-n3b, uniform-average conjugates by the cores of the 7 keys
    of two or more blocks, least-chart reads the top one's again, and no
    one-block core is built."""
    keys = []

    def counted(presentation, blocks):
        keys.append(blocks)
        return partition_core(presentation, blocks)
    monkeypatch.setattr("mvb.split.partition_core", counted)
    a = twisted_instance(505, n=3, n_points=3, n_charts=3)
    least, average = decompositions(a, ["least-chart", "uniform-average"])
    assert len(keys) == len(set(keys)) == 7
    assert least == decompose(a, "least-chart")
    assert average == decompose(a, "uniform-average")


def test_strategies_share_one_model_per_core(monkeypatch):
    """Each core keeps its vacant and decomposed models: on tw-n3b the
    two strategies make 7 vacant models, one per core that
    uniform-average builds a local splitting gauge for, as that gauge's
    source dims, and one decomposed model, the top core's, which both
    decompositions read; not one set per strategy."""
    made = {"associated_vacant": [], "associated_decomposed": []}
    for name, models in made.items():
        def counted(presentation, original=getattr(split, name), models=models):
            models.append(original(presentation))
            return models[-1]
        monkeypatch.setattr(split, name, counted)
    a = twisted_instance(505, n=3, n_points=3, n_charts=3)
    decompositions(a, ["least-chart", "uniform-average"])
    assert len(set(map(id, made["associated_vacant"]))) == 7
    assert len(made["associated_decomposed"]) == 2
    assert len(set(map(id, made["associated_decomposed"]))) == 1


def test_uniform_average_derives_no_vacant_transition(monkeypatch):
    """The paste conjugates by the core's own transitions on both sides,
    so decomposing tw-n3b trims no transition to a vacant model."""
    calls = []
    original = Gauge.trimmed

    def counted(self, dims):
        calls.append(dims)
        return original(self, dims)
    monkeypatch.setattr(Gauge, "trimmed", counted)
    dec = decompose(twisted_instance(505, n=3, n_points=3, n_charts=3), "uniform-average")
    assert calls == []
    assert is_decomposition(dec)


def test_tops_table_keeps_zero_tops_as_none():
    """A zero top is ``None`` in every chart: on a two-chart decomposed
    atlas every top is zero, the conjugated face tops of the other chart
    included, and the table holds no zero tensor."""
    a = decomposed(dims_of(3), FiniteBase(["p"]), [("a", ("p",)), ("b", ("p",))])
    builder = DecompositionBuilder(a, "uniform-average")
    builder.decomposition(builder.top_key())
    tops = builder.cache.tops
    assert any(chart != a.canonical_chart("p") for _, chart, _ in tops)
    assert all(top is None for top in tops.values())


def test_splitting_to_decomposition_names_a_missing_core_decomposition():
    a = twisted_instance(91, n=3, n_points=2, n_charts=2)
    dec = decompose(a)
    core_decs = extract_core_decompositions(dec)
    del core_decs[IndexSet([1, 3])]
    with pytest.raises(InvalidInput, match=r"missing core decomposition at \[1, 3\]"):
        splitting_to_decomposition(a, extract_splitting(a, dec), core_decs)


@pytest.mark.parametrize("strategy", ["least-chart", "uniform-average"])
@pytest.mark.parametrize("n", [0, 1])
def test_splitting_of_at_most_one_axis_is_the_vacant_inclusion(n, strategy):
    """With no top to paste, every chart's gauge, the derived ones too, is
    the identity inclusion of the vacant model."""
    a = twisted_instance(12, n=n, n_points=3, n_charts=3)
    assert max(len(a.charts_at(p)) for p in a.base) == 3
    sigma = find_splitting(a, strategy)
    inclusion = identity_gauge(associated_vacant(a).dims, a.dims)
    for c in a.charts:
        for p in c.domain:
            assert sigma.data[(c.id, p)] == inclusion, (c.id, p)


def test_builder_names_an_unknown_strategy():
    with pytest.raises(InvalidInput, match="unknown strategy 'bogus'"):
        DecompositionBuilder(twisted_instance(3, n=2), "bogus")
