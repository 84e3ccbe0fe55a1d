"""Double and triple bundles: section modules, horizontal lifts, explicit formula.

The linear sections of a double bundle over its axis-1 node fit in an
exact sequence: a splitting lifts each section of the axis-2 node (the
hat), and the sections over the zero section are the fiberwise maps
into the core slot (the tilde).  One dimension up, the doubly linear
sections of the total node over the {1,2}-node fit in the same kind of
sequence; a compatible module splitting of it (a horizontal lift) plus
five double splittings is the same data as a decomposition, and a
seven-argument assembly formula writes that decomposition with fiber
operations only.
"""

import random
from fractions import Fraction

from mvb.bundle import element, elements_equal
from mvb.cubecat import IndexSet, full_set, nonempty_subsets
from mvb.exactlin import MultiTensor, vec_scale
from mvb.rand import random_element, random_tensor, twisted_instance
from mvb.sections import (
    S1, S2, S3, S12, S13, S23,
    BaseSection,
    check_lift_compatibility,
    decomposition_to_lift,
    doubly_linear_sequence,
    explicit_triple_formula,
    hat_doubly,
    hat_linear,
    lift_from_free_part,
    lift_to_decomposition,
    linear_module_certificate,
    tilde_doubly,
    tilde_linear,
    zero_free_part,
)
from mvb.split import decompose, find_splitting, is_decomposition

rng = random.Random(0)


def matrix(out_dim, in_dim):
    return random_tensor(rng, out_dim, (in_dim,))


def scaled_pair(fn, pair):
    """A base function times side data: the module action on a side."""
    return {"base": {p: vec_scale(fn[p], v) for p, v in pair["base"].items()},
            "slope": {p: t.scaled(fn[p]) for p, t in pair["slope"].items()}}


d = twisted_instance(271, n=2, n_points=2, n_charts=2)
d1, d2, d12 = (d.dims.dim(s) for s in (S1, S2, S12))
print("double bundle: linear section sequence exact:",
      linear_module_certificate(d).status)

sigma = find_splitting(d)
b_sec = BaseSection(d, S2, {p: random_element(rng, d, node=S2, point=p) for p in d.base})
xi = hat_linear(d, b_sec, sigma)
a1 = random_element(rng, d, node=S1)
print("the hat of an axis-2 section through a splitting lies over it:",
      xi.apply(a1).components[S2] == b_sec.at(a1.point).components[S2])
print("the hat of the zero section is the tilde of the zero map:",
      hat_linear(d, BaseSection.zero(d, S2), sigma)
      == tilde_linear(d, {p: MultiTensor.zeros(d12, (d1,)) for p in d.base}))
fn = {p: Fraction(rng.randint(1, 3), 2) for p in d.base}
phi = {p: matrix(d12, d1) for p in d.base}
combo = xi.scale_by_function(fn).add(tilde_linear(d, phi))
print("f * hat(b) + tilde(phi) lies over f * b with slope f * slope + phi:",
      all(combo.base_values[p] == vec_scale(fn[p], xi.base_values[p])
          and combo.slope[p] == xi.slope[p].scaled(fn[p]).plus(phi[p]) for p in d.base))

t = twisted_instance(314, n=3, n_points=2, n_charts=2)
dims = t.dims

cert = doubly_linear_sequence(t)
print("\ntriple bundle: doubly linear section sequence exact:", cert.status,
      " per-point dims (kernel, middle, pair):", cert.witnesses[0]["dims"])

c_values = {p: tuple(Fraction(rng.randint(-2, 2)) for _ in range(dims.dim(S3)))
            for p in t.base}
pair_f = {"base": c_values, "slope": {p: matrix(dims.dim(S13), dims.dim(S1)) for p in t.base}}
pair_e = {"base": c_values, "slope": {p: matrix(dims.dim(S23), dims.dim(S2)) for p in t.base}}
print("the hat of a side pair projects back onto it:",
      hat_doubly(t, pair_f, pair_e).side_sections() == (pair_f, pair_e))
kernel = tilde_doubly(t, {p: matrix(dims.dim(full_set(3)), dims.dim(S12)) for p in t.base},
                      {p: MultiTensor.zeros(dims.dim(full_set(3)), (dims.dim(S1), dims.dim(S2)))
                       for p in t.base})
print("a tilde section has zero side sections:",
      all(not any(c) for c in kernel.side_sections()[0]["base"].values())
      and all(s.is_zero() for side in kernel.side_sections() for s in side["slope"].values()))

dec = decompose(t)
pieces = decomposition_to_lift(t, dec)
lift = pieces["lift"]
lifted = lift.apply(pair_f, pair_e)
print("the horizontal lift of a side pair projects back onto it:",
      lifted.side_sections() == (pair_f, pair_e))
x12 = random_element(rng, t, node=S12)
print("on a {1,2}-element the lifted section takes the axis-3 value of the pair:",
      lifted.apply(x12).components[S3] == c_values[x12.point])
gn = {p: Fraction(rng.randint(1, 3), 2) for p in t.base}
print("the lift is a module map, lift(g * pair) = g * lift(pair):",
      lift.apply(scaled_pair(gn, pair_f), scaled_pair(gn, pair_e))
      == lifted.scale_by_function(gn))

rebuilt = lift_to_decomposition(t, **pieces)
print("decomposition -> (splittings, lift) -> decomposition round trip exact:",
      rebuilt.data == dec.data)
free_lin, free_bil = zero_free_part(t)
other = lift_from_free_part(t, pieces["split_lde"], pieces["split_lfd"], free_lin, free_bil)
print("the lift with zero free part is compatible and gives a decomposition:",
      check_lift_compatibility(t, other, pieces["split_lde"], pieces["split_lfd"])
      and is_decomposition(lift_to_decomposition(t, **dict(pieces, lift=other))))

point = t.base.points[0]
chart = t.canonical_chart(point)
values = {
    s: tuple(Fraction(rng.randint(-2, 2)) for _ in range(t.dims.dim(s)))
    for s in nonempty_subsets(full_set(3))
}
x = element(dec.source, full_set(3), chart, point, values)
via_pipeline = dec.apply(x)
via_formula = explicit_triple_formula(
    t, dec, point,
    values[IndexSet([1])], values[IndexSet([2])], values[IndexSet([3])],
    values[IndexSet([1, 2])], values[IndexSet([2, 3])],
    values[IndexSet([1, 3])], values[IndexSet([1, 2, 3])])
print("seven-argument assembly equals the pipeline on a random element:",
      elements_equal(t, via_pipeline, via_formula))
