"""The constructive pipeline: split, decompose, compare, normalize.

Splittings are pasted from per-chart right inverses with a partition of
unity over the finite base; a splitting plus core decompositions gives
the unique decomposition; two decompositions differ by a statomorphism;
conjugating the transitions by the decomposition removes every
nonlinear tail.
"""

from mvb.atlas import validate
from mvb.cubecat import full_set, nonempty_subsets, partitions
from mvb.rand import twisted_instance
from mvb.split import (
    act_by_statomorphism,
    decompose,
    find_splitting,
    is_decomposition,
    is_splitting,
    normalize_atlas,
    split_pullback,
    torsor_statomorphism,
)

a = twisted_instance(2718, n=3, n_points=2, n_charts=3)

sigma = find_splitting(a, "least-chart")
print("splitting found (least-chart):", is_splitting(sigma))

d1 = decompose(a, "least-chart")
d2 = decompose(a, "uniform-average")
print("decompositions verify:", is_decomposition(d1), is_decomposition(d2))

tau = torsor_statomorphism(d1, d2)
nontrivial = sum(1 for g in tau.data.values() if not g.is_identity())
print("strategies differ by a nontrivial statomorphism:", nontrivial > 0,
      "(at", nontrivial, "of", len(tau.data), "chart points)")
print("acting on the first by it recovers the second:",
      act_by_statomorphism(d1, tau).data == d2.data)

normalized = normalize_atlas(a, d1)
tails = sum(
    0 if g.components[(s, rho)].is_zero() else 1
    for g in normalized.transitions.values()
    for s in nonempty_subsets(full_set(3))
    for rho in partitions(s) if len(rho) > 1
)
print("normalized atlas: nonlinear tails remaining:", tails,
      " valid:", validate(normalized).valid)

section = split_pullback(a)
print("simultaneous section of the pullback projection is natural:",
      section.is_natural())


# the top slot of each chart's local right inverse is a free choice; a
# hook read on basis tuples sets it (the faces keep their zero tops)
def theta(chart, point, args):
    """Linear in each argument: the product of their first coordinates."""
    return (args[0][0] * args[1][0] * args[2][0],) * a.dims.dim(full_set(3))


hooked = find_splitting(a, "least-chart", theta_top=theta)
print("\na top-slot hook gives another splitting:",
      is_splitting(hooked) and hooked.data != sigma.data)
