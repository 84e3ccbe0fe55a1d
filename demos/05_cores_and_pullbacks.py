"""Cores, cores by stages, the pullback, and the ultracore sequence.

The core at (S, J) keeps exactly the slots that are unions of J and the
leftover singletons, and restricting morphisms to it is a functor; the
pullback trivializes the top slot; and the ultracore measures the
difference, fiberwise exactly.
"""

import random

from mvb.atlas import FiniteBase, decomposed, validate
from mvb.bundle import morphism_from_canonical
from mvb.cores import core, core_by_stages, core_morphism, pullback, ultracore_sequence
from mvb.cubecat import full_set, nonempty_subsets
from mvb.gauge import DimAssignment
from mvb.rand import random_gauge, twisted_instance

dims = DimAssignment(3, {s: 1 for s in nonempty_subsets(full_set(3))})
plain = decomposed(dims, FiniteBase(["p"]))

blocks, pres = core(plain, [1, 2, 3], [1, 2])
print("core at (S, J) = ({1,2,3}, {1,2}): axes", [list(b) for b in blocks],
      " total fiber dim:", pres.node_dim(full_set(2)))
print("core presentation validates?", validate(pres).valid)

twisted = twisted_instance(77, n=3, n_points=2, n_charts=2)
print("\ncore by stages on a twisted instance (K={1} inside J={1,2}):",
      core_by_stages(twisted, [1, 2, 3], [1, 2], [1]).status)

rng = random.Random(5)
t1, t2 = (morphism_from_canonical(twisted, twisted, {
    p: random_gauge(rng, twisted.dims, statomorphism=True) for p in twisted.base})
    for _ in range(2))
print("restriction to the ({1,2,3}, {1,2})-core is functorial,"
      " core(t2 . t1) = core(t2) . core(t1)?",
      core_morphism(t2.compose(t1), [1, 2, 3], [1, 2])
      == core_morphism(t2, [1, 2, 3], [1, 2]).compose(core_morphism(t1, [1, 2, 3], [1, 2])))

pb = pullback(twisted)
print("pullback: top slot dim", pb.presentation.dims.dim(full_set(3)),
      ", projection fiberwise surjective:", pb.certificate.status)

iota, pi, cert = ultracore_sequence(twisted, 1)
identity = [w for w in cert.witnesses if "dimension_identity" in w][0]
total, ultra, pulled = identity["dimension_identity"]
print("ultracore sequence over axis 1:", cert.status,
      "  dimension identity: %d = %d + %d" % (total, ultra, pulled))
