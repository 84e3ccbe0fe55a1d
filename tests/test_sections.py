import random
import sys
from fractions import Fraction

import pytest

from mvb.atlas import FiniteBase, decomposed
from mvb.bundle import element, elements_equal
from mvb.cubecat import full_set, nonempty_subsets
from mvb.errors import SemanticError
from mvb.exactlin import MultiTensor
from mvb.formats import fingerprint
from mvb.gauge import DimAssignment
from mvb.rand import random_element, twisted_instance
from mvb.sections import (
    BaseSection,
    DoublyLinearSection,
    HorizontalLift,
    check_lift_compatibility,
    decomposition_to_lift,
    doubly_linear_sequence,
    explicit_triple_formula,
    hat_doubly,
    hat_linear,
    lift_from_free_part,
    lift_to_decomposition,
    linear_module_certificate,
    local_split_double,
    splitting_top,
    tilde_doubly,
    tilde_linear,
    zero_free_part,
    S1, S2, S3, S12, S13, S23, S123,
)
from mvb.split import (
    decompose,
    find_splitting,
    is_decomposition,
    is_splitting,
    torsor_statomorphism,
)


def dims_of(n, value=1):
    return DimAssignment(n, {s: value for s in nonempty_subsets(full_set(n))})


def random_matrix(rng, out_dim, in_dim):
    return MultiTensor(out_dim, (in_dim,),
                       [Fraction(rng.randint(-3, 3)) for _ in range(out_dim * in_dim)])


def test_tilde_linear_zero_map_is_zero_lift_section():
    a = twisted_instance(101, n=2, n_points=2, n_charts=2)
    d1, d12 = a.dims.dim(S1), a.dims.dim(S12)
    phi = {p: MultiTensor.zeros(d12, (d1,)) for p in a.base}
    xi = tilde_linear(a, phi)
    rng = random.Random(0)
    e = random_element(rng, a, node=S1)
    out = xi.apply(e)
    assert all(x == 0 for x in out.components[S2])
    assert all(x == 0 for x in out.components[S12])


def test_tilde_linear_fills_core_slot():
    a = decomposed(dims_of(2, 2), FiniteBase(["p"]))
    rng = random.Random(1)
    phi = {p: random_matrix(rng, 2, 2) for p in a.base}
    xi = tilde_linear(a, phi)
    e = random_element(rng, a, node=S1)
    out = xi.apply(e)
    assert out.components[S12] == phi["p"].apply([e.components[S1]])


def test_tilde_linear_injective_on_fixture():
    # the core map vanishes only on the zero slope: kernel computation
    a = twisted_instance(102, n=2, n_points=1, n_charts=2)
    d1, d12 = a.dims.dim(S1), a.dims.dim(S12)
    if d1 and d12:
        # tilde is slope-faithful: distinct slopes give different sections
        m1 = MultiTensor.zeros(d12, (d1,))
        entries = [Fraction(1)] + [Fraction(0)] * (d12 * d1 - 1)
        m2 = MultiTensor(d12, (d1,), entries)
        p = a.base.points[0]
        assert tilde_linear(a, {p: m1}) != tilde_linear(a, {p: m2})


def test_hat_linear_through_splitting():
    a = twisted_instance(103, n=2, n_points=2, n_charts=2)
    s = find_splitting(a)
    rng = random.Random(2)
    b_sec = BaseSection(a, S2, {p: random_element(rng, a, node=S2, point=p)
                                for p in a.base})
    xi = hat_linear(a, b_sec, s)
    e = random_element(rng, a, node=S1)
    out = xi.apply(e)
    # the hat section rides the splitting: compare against the
    # splitting's top component directly
    p = e.point
    from mvb.bundle import canonicalize
    ec = canonicalize(a, e)
    top = splitting_top(s, p)
    assert out.components[S12] == top.apply(
        [ec.components[S1], b_sec.at(p).components[S2]])
    assert out.components[S2] == b_sec.at(p).components[S2]


def test_hat_of_zero_base_lands_in_zero_section():
    a = twisted_instance(104, n=2, n_points=2, n_charts=2)
    s = find_splitting(a)
    b_sec = BaseSection.zero(a, S2)
    xi = hat_linear(a, b_sec, s)
    rng = random.Random(3)
    e = random_element(rng, a, node=S1)
    out = xi.apply(e)
    assert all(x == 0 for x in out.components[S2])
    assert all(x == 0 for x in out.components[S12])


def test_linear_section_module_action():
    a = twisted_instance(105, n=2, n_points=2, n_charts=2)
    s = find_splitting(a)
    rng = random.Random(4)
    b_sec = BaseSection(a, S2, {p: random_element(rng, a, node=S2, point=p)
                                for p in a.base})
    xi = hat_linear(a, b_sec, s)
    fn = {p: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for p in a.base}
    scaled = xi.scale_by_function(fn)
    e = random_element(rng, a, node=S1)
    p = e.point
    out = scaled.apply(e)
    raw = xi.apply(e)
    assert out.components[S2] == tuple(fn[p] * x for x in raw.components[S2])
    assert out.components[S12] == tuple(fn[p] * x for x in raw.components[S12])
    # f*xi1 + g*xi2 matches componentwise arithmetic
    phi = {q: random_matrix(rng, a.dims.dim(S12), a.dims.dim(S1)) for q in a.base}
    xi2 = tilde_linear(a, phi)
    gn = {q: Fraction(rng.randint(-2, 2)) for q in a.base}
    combo = xi.scale_by_function(fn).add(xi2.scale_by_function(gn))
    assert combo.base_values[p] == tuple(fn[p] * x for x in xi.base_values[p])
    assert combo.slope[p] == xi.slope[p].scaled(fn[p]).plus(xi2.slope[p].scaled(gn[p]))


def test_linear_module_certificate():
    a = twisted_instance(106, n=2, n_points=2, n_charts=2)
    cert = linear_module_certificate(a)
    assert cert.passed


def test_local_split_double_default_matches_least_chart():
    a = twisted_instance(107, n=2, n_points=2, n_charts=2)
    built = local_split_double(a)
    assert is_splitting(built)
    pipeline = find_splitting(a, "least-chart")
    assert built.data == pipeline.data


def test_local_split_double_with_frames():
    rng = random.Random(5)
    a = twisted_instance(108, n=2, n_points=1, n_charts=2)
    d1, d2, d12 = (a.dims.dim(s) for s in (S1, S2, S12))
    frames = {}
    p = a.base.points[0]
    can = a.canonical_chart(p)
    for j in range(d2):
        frames[(can, p, j)] = random_matrix(rng, d12, d1)
    built = local_split_double(a, frames)
    assert is_splitting(built)
    # differs from the canonical one by a statomorphism of the model
    base = find_splitting(a, "least-chart")
    from mvb.split import DecompositionBuilder
    b1 = DecompositionBuilder(a)
    b1.seed(b1.top_key(), built)
    d_built = b1.decomposition(b1.top_key())
    b2 = DecompositionBuilder(a)
    b2.seed(b2.top_key(), base)
    d_base = b2.decomposition(b2.top_key())
    tau = torsor_statomorphism(d_base, d_built)
    assert any(not g.is_identity() for g in tau.data.values())


def test_doubly_linear_section_apply_and_module():
    rng = random.Random(6)
    t = twisted_instance(109, n=3, n_points=2, n_charts=2)
    dims = t.dims
    c_vals = {p: tuple(Fraction(rng.randint(-2, 2))
                       for _ in range(dims.dim(S3))) for p in t.base}
    sf = {p: random_matrix(rng, dims.dim(S13), dims.dim(S1)) for p in t.base}
    se = {p: random_matrix(rng, dims.dim(S23), dims.dim(S2)) for p in t.base}
    lin = {p: random_matrix(rng, dims.dim(S123), dims.dim(S12)) for p in t.base}
    bil = {p: MultiTensor(dims.dim(S123), (dims.dim(S1), dims.dim(S2)),
                          [Fraction(rng.randint(-2, 2))
                           for _ in range(dims.dim(S123) * dims.dim(S1) * dims.dim(S2))])
           for p in t.base}
    xi = DoublyLinearSection(t, c_vals, sf, se, lin, bil)
    d_elem = random_element(rng, t, node=S12)
    out = xi.apply(d_elem)
    from mvb.bundle import canonicalize
    dc = canonicalize(t, d_elem)
    p = d_elem.point
    assert out.components[S1] == dc.components[S1]
    assert out.components[S12] == dc.components[S12]
    assert out.components[S3] == c_vals[p]
    # module action scales every stored piece
    fn = {q: Fraction(rng.randint(-2, 2)) for q in t.base}
    scaled = xi.scale_by_function(fn)
    assert scaled.c_values[p] == tuple(fn[p] * x for x in c_vals[p])


def test_doubly_linear_sequence_certificate():
    t = twisted_instance(110, n=3, n_points=2, n_charts=2)
    cert = doubly_linear_sequence(t)
    assert cert.passed
    # explicit count for the all-ones decomposed case:
    # left 1*1 + 1*1*1 = 2, right 1 + 1 + 1 = 3, middle 5
    t1 = decomposed(dims_of(3), FiniteBase(["p"]))
    cert1 = doubly_linear_sequence(t1)
    assert cert1.passed
    assert cert1.witnesses[0]["dims"] == [2, 5, 3]


def test_tilde_doubly_lands_in_kernel_and_hat_projects():
    rng = random.Random(7)
    t = twisted_instance(111, n=3, n_points=2, n_charts=2)
    dims = t.dims
    lin = {p: random_matrix(rng, dims.dim(S123), dims.dim(S12)) for p in t.base}
    bil = {p: MultiTensor.zeros(dims.dim(S123), (dims.dim(S1), dims.dim(S2)))
           for p in t.base}
    xi = tilde_doubly(t, lin, bil)
    pf, pe = xi.side_sections()
    assert all(all(x == 0 for x in v) for v in pf["base"].values())
    assert all(m.is_zero() for m in pf["slope"].values())
    # hat lift of a random compatible pair projects back to it
    c_vals = {p: tuple(Fraction(rng.randint(-2, 2)) for _ in range(dims.dim(S3)))
              for p in t.base}
    pair_f = {"base": c_vals,
              "slope": {p: random_matrix(rng, dims.dim(S13), dims.dim(S1))
                        for p in t.base}}
    pair_e = {"base": c_vals,
              "slope": {p: random_matrix(rng, dims.dim(S23), dims.dim(S2))
                        for p in t.base}}
    lifted = hat_doubly(t, pair_f, pair_e)
    gf, ge = lifted.side_sections()
    assert gf["slope"] == pair_f["slope"]
    assert ge["slope"] == pair_e["slope"]
    assert gf["base"] == c_vals


def test_lift_round_trip_from_decomposition():
    t = twisted_instance(112, n=3, n_points=2, n_charts=2)
    dec = decompose(t)
    pieces = decomposition_to_lift(t, dec)
    rebuilt = lift_to_decomposition(
        t, pieces["split_d"], pieces["split_e"], pieces["split_f"],
        pieces["split_lde"], pieces["split_lfd"], pieces["lift"])
    assert rebuilt.data == dec.data


def record_built_presentations(monkeypatch):
    """Wrap ``partition_core``, ``associated_decomposed`` and
    ``associated_vacant`` wherever the library binds them; the returned
    list receives the fingerprint of every presentation they build."""
    built = []
    for owner, name in (("mvb.cores", "partition_core"),
                        ("mvb.atlas", "associated_decomposed"),
                        ("mvb.atlas", "associated_vacant")):
        original = getattr(sys.modules[owner], name)

        def wrapper(*args, original=original, **kwargs):
            out = original(*args, **kwargs)
            built.append(fingerprint(out))
            return out

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "mvb" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return built


def test_lift_round_trip_builds_each_presentation_once(monkeypatch):
    t = twisted_instance(505, n=3, max_dim=2, n_points=3, n_charts=3)
    dec = decompose(t)
    built = record_built_presentations(monkeypatch)
    pieces = decomposition_to_lift(t, dec)
    assert built and len(set(built)) == len(built)
    built.clear()
    rebuilt = lift_to_decomposition(t, **pieces)
    assert built and len(set(built)) == len(built)
    assert rebuilt.data == dec.data


def test_lift_forward_then_extract():
    t = twisted_instance(113, n=3, n_points=2, n_charts=2)
    # build pieces from one decomposition, push forward, extract back
    dec = decompose(t, "uniform-average")
    pieces = decomposition_to_lift(t, dec)
    rebuilt = lift_to_decomposition(
        t, pieces["split_d"], pieces["split_e"], pieces["split_f"],
        pieces["split_lde"], pieces["split_lfd"], pieces["lift"])
    second = decomposition_to_lift(t, rebuilt)
    assert second["split_d"].data == pieces["split_d"].data
    assert second["split_lde"].data == pieces["split_lde"].data
    # lift values agree on random side data
    rng = random.Random(8)
    dims = t.dims
    for p in t.base:
        c = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dims.dim(S3)))
        sf = random_matrix(rng, dims.dim(S13), dims.dim(S1))
        se = random_matrix(rng, dims.dim(S23), dims.dim(S2))
        lin1, bil1 = pieces["lift"].output(p, c, sf, se)
        lin2, bil2 = second["lift"].output(p, c, sf, se)
        assert lin1 == lin2 and bil1 == bil2


def test_decomposed_instance_gives_identity_pipeline():
    t = decomposed(dims_of(3), FiniteBase(["p"]))
    dec = decompose(t)
    pieces = decomposition_to_lift(t, dec)
    free_lin, free_bil = zero_free_part(t)
    zero_lift_map = lift_from_free_part(
        t, pieces["split_lde"], pieces["split_lfd"], free_lin, free_bil)
    rebuilt = lift_to_decomposition(
        t, pieces["split_d"], pieces["split_e"], pieces["split_f"],
        pieces["split_lde"], pieces["split_lfd"], zero_lift_map)
    assert is_decomposition(rebuilt)
    for g in rebuilt.data.values():
        assert g.is_identity()


def test_incompatible_lift_rejected():
    """A lift whose {1,3}-core top, or in a second case its {2,3}-core
    top, differs from the core splitting's at one point is rejected,
    naming the side and the point."""
    t = twisted_instance(114, n=3, n_points=2, n_charts=2)
    dec = decompose(t)
    pieces = decomposition_to_lift(t, dec)
    p = t.base.points[-1]
    for position, side in ((0, r"\{1,3\}"), (1, r"\{2,3\}")):
        parts = dict(pieces["lift"].parts)
        lam = parts[p][position]
        bump = MultiTensor(lam.out_dim, lam.in_dims, [Fraction(1)] * len(lam.entries))
        parts[p] = parts[p][:position] + (lam.plus(bump),) + parts[p][position + 1:]
        bad = HorizontalLift(t, parts)
        with pytest.raises(SemanticError, match=r"disagrees with the %s-core splitting at %r"
                           % (side, p)):
            check_lift_compatibility(t, bad, pieces["split_lde"], pieces["split_lfd"])
        with pytest.raises(SemanticError, match=side):
            lift_to_decomposition(t, **dict(pieces, lift=bad))


def test_explicit_seven_argument_formula_matches_pipeline():
    rng = random.Random(10)
    for seed in (115, 116):
        t = twisted_instance(seed, n=3, n_points=2, n_charts=2)
        dec = decompose(t)
        model = dec.source
        dims = t.dims
        for _ in range(4):
            p = rng.choice(t.base.points)
            can = t.canonical_chart(p)
            vals = {
                s: tuple(Fraction(rng.randint(-2, 2))
                         for _ in range(dims.dim(s)))
                for s in nonempty_subsets(S123)
            }
            x = element(model, S123, can, p, vals)
            via_pipeline = dec.apply(x)
            via_formula = explicit_triple_formula(
                t, dec, p,
                vals[S1], vals[S2], vals[S3],
                vals[S12], vals[S23], vals[S13], vals[S123])
            assert elements_equal(t, via_pipeline, via_formula)


def test_explicit_formula_identity_on_decomposed():
    t = decomposed(dims_of(3), FiniteBase(["p"]))
    dec = decompose(t)
    one = (Fraction(1),)
    two = (Fraction(2),)
    out = explicit_triple_formula(
        t, dec, "p", one, two, (Fraction(3),), (Fraction(4),),
        (Fraction(5),), (Fraction(6),), (Fraction(7),))
    assert out.components[S1] == one
    assert out.components[S2] == two
    assert out.components[S3] == (Fraction(3),)
    assert out.components[S12] == (Fraction(4),)
    assert out.components[S23] == (Fraction(5),)
    assert out.components[S13] == (Fraction(6),)
    assert out.components[S123] == (Fraction(7),)
