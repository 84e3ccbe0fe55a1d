"""Atlases over finite bases: constructors, validation, perturbation.

Transitions are per-point tables; the validator checks identity
self-transitions, mutually inverse pairs, and one cocycle per chart
triple, reporting violations with full coordinates.
"""

import random

from mvb.atlas import FiniteBase, decomposed, diagonal, perturb_transition, vacant, validate
from mvb.cubecat import Partition, full_set, nonempty_subsets
from mvb.gauge import DimAssignment
from mvb.rand import random_gauge, twisted_instance

dims = DimAssignment(3, {s: 1 for s in nonempty_subsets(full_set(3))})
base = FiniteBase(["p", "q"])

plain = decomposed(dims, base)
print("decomposed triple bundle, total fiber dimension:",
      plain.node_dim(full_set(3)), " (seven slots)")
print("vacant version:", vacant(dims, base).node_dim(full_set(3)), "(three slots)")

diag = diagonal(dims, Partition([[1, 2], [3]]), base)
print("diagonal cube over blocks {1,2},{3}: n =", diag.n,
      " top dimension =", diag.node_dim(full_set(2)))

twisted = twisted_instance(2025, n=2, n_points=2, n_charts=3)
report = validate(twisted)
print("\ngenerated 3-chart instance valid?", report.valid)

# every point of this layout lies in all three charts
point = twisted.base.points[0]
tau = random_gauge(random.Random(0), twisted.dims, statomorphism=True)
bad = validate(perturb_transition(twisted, "2", "1", point, tau))
print("after one coherent twist of t[2<-1]:", len(bad.violations),
      "violation:", bad.violations[0].kind, "at charts",
      bad.violations[0].charts, "point", bad.violations[0].point)
