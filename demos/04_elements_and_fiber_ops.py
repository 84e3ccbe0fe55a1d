"""Elements, transport, the interchange law, and functorial builds.

Within one chart every fiber operation is coordinatewise; all the
twisting sits in transport between charts, and equality of elements is
decided in the canonical chart of the base point.
"""

import random

from mvb.atlas import validate
from mvb.bundle import (
    add,
    elements_equal,
    hom_bundle,
    project,
    scale,
    tangent_prolongation,
    transport,
    zero_lift,
)
from mvb.cores import face
from mvb.cubecat import IndexSet, full_set
from mvb.rand import interchange_quadruple, random_element, twisted_instance

a = twisted_instance(42, n=2, n_points=2, n_charts=2)
rng = random.Random(1)

e = random_element(rng, a)
other_chart = [c for c in a.charts_at(e.point) if c != e.chart][0]
moved = transport(a, e, other_chart)
print("element transported to chart", other_chart, "and back equals itself?",
      transport(a, moved, e.chart) == e)
print("quotient equality across charts?", elements_equal(a, e, moved))

d1, d2, d3, d4 = interchange_quadruple(rng, a, full_set(2), 1, 2)
left = add(a, add(a, d1, d2, 1), add(a, d3, d4, 1), 2)
right = add(a, add(a, d1, d3, 2), add(a, d2, d4, 2), 1)
print("interchange law (sum over axis 1 then 2 = 2 then 1)?", left == right)
print("scaling over axis 1 distributes over the sum over axis 1?",
      scale(a, 3, add(a, d1, d2, 1), 1)
      == add(a, scale(a, 3, d1, 1), scale(a, 3, d2, 1), 1))

small = random_element(rng, a, node=IndexSet([1]))
print("zero lift then project recovers the element?",
      project(a, zero_lift(a, small, full_set(2)), 2) == small)

t = twisted_instance(43, n=3, n_points=2, n_charts=2)
side = face(t, IndexSet([1, 3]), IndexSet())
print("\nface on axes {1,3} of a triple bundle: n =", side.n,
      " valid?", validate(side).valid)

h = hom_bundle(a, a)
print("morphism bundle of a double bundle with itself, slot dims:",
      {tuple(k): v for k, v in sorted(h.dims.dims.items())})

ta = tangent_prolongation(a)
print("tangent prolongation: n =", ta.n, " new singleton slot dim =",
      ta.dims.dim(IndexSet([3])), " valid?", validate(ta).valid)
