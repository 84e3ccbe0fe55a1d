"""Seeded random generators for gauges and twisted instances.

Twisted atlases are built by the frame rule ``atlas.conjugates``: each
chart gets a random invertible gauge per point, all drawn first in chart
then domain order, and the transition from chart b to chart a at p is g_a(p)
composed with the inverse of g_b(p).  Cocycle conditions then hold by
construction, so every generated instance validates.
"""

import random
from fractions import Fraction
from math import prod

from .bundle import element
from .cubecat import IndexSet, full_set, nonempty_subsets
from .exactlin import MultiTensor, rank
from .gauge import DimAssignment, Gauge


def random_invertible_matrix(rng, n):
    if n == 0:
        return MultiTensor.zeros(0, (0,))
    while True:
        t = MultiTensor.from_integers(n, (n,), [rng.randint(-2, 2) for _ in range(n * n)], 1)
        if rank(t) == n:
            return t


def random_tensor(rng, out_dim, in_dims, lo=-2, hi=2):
    return MultiTensor.from_integers(out_dim, tuple(in_dims), [
        rng.randint(lo, hi) for _ in range(prod(in_dims, start=out_dim))], 1)


def random_dims(rng, n, max_dim=2, min_dim=0):
    return DimAssignment(
        n, {s: rng.randint(min_dim, max_dim) for s in nonempty_subsets(full_set(n))}
    )


def random_gauge(rng, source_dims, target_dims=None, statomorphism=False):
    """Random square gauge with invertible (or identity) linear parts."""
    target_dims = target_dims or source_dims
    tensors = []
    for (out, _), (_, ins) in zip(target_dims.shapes, source_dims.shapes):
        if len(ins) == 1 and statomorphism:
            tensors.append(MultiTensor.identity(out))
        elif len(ins) == 1 and out == ins[0]:
            tensors.append(random_invertible_matrix(rng, out))
        else:
            tensors.append(random_tensor(rng, out, ins))
    return Gauge.from_tensors(source_dims, target_dims, tensors)


def _chart_layout(rng, points, n_charts):
    """Random domains covering the base, every domain nonempty."""
    from .atlas import Chart
    while True:
        domains = [[] for _ in range(n_charts)]
        for p in points:
            members = [i for i in range(n_charts) if rng.random() < 0.7]
            if not members:
                members = [rng.randrange(n_charts)]
            for i in members:
                domains[i].append(p)
        if all(domains):
            return tuple(Chart(str(i), tuple(d)) for i, d in enumerate(domains))


def twisted_instance(seed, n=2, max_dim=2, n_points=2, n_charts=2, dims=None):
    """A valid atlas twisted by per-chart random gauges.

    Transitions are conjugates t[a<-b](p) = g_a(p) . g_b(p)^{-1}, so the
    instance validates by construction.  One-chart layouts give a
    (possibly nontrivially presented) globally trivialized instance.
    """
    from .atlas import AtlasPresentation, FiniteBase, conjugates
    rng = random.Random(seed)
    points = ["p%d" % i for i in range(n_points)]
    base = FiniteBase(points)
    if dims is None:
        dims = random_dims(rng, n, max_dim=max_dim, min_dim=1)
    charts = _chart_layout(rng, points, n_charts)
    frames = {(c.id, p): random_gauge(rng, dims) for c in charts for p in c.domain}
    transitions = conjugates(dims, charts, lambda chart, point: frames[chart, point])
    return AtlasPresentation(n, dims, base, charts, transitions)


def random_element(rng, presentation, node=None, point=None, chart=None, lo=-3, hi=3):
    node = IndexSet(node) if node is not None else full_set(presentation.n)
    if point is None:
        point = rng.choice(presentation.base.points)
    if chart is None:
        chart = rng.choice(presentation.charts_at(point))
    comps = {
        s: tuple(Fraction(rng.randint(lo, hi)) for _ in range(presentation.dims.dim(s)))
        for s in nonempty_subsets(node)
    }
    return element(presentation, node, chart, point, comps)


def interchange_quadruple(rng, presentation, node, i, j, lo=-3, hi=3):
    """Four elements satisfying the projection constraints of the
    interchange law in the (node; i, j) square."""
    d1 = random_element(rng, presentation, node=node, lo=lo, hi=hi)

    def fresh(base_elem, fixed_axes_out):
        comps = {}
        for s, vec in base_elem.components.items():
            if any(ax in s for ax in fixed_axes_out):
                comps[s] = tuple(
                    Fraction(rng.randint(lo, hi)) for _ in vec
                )
            else:
                comps[s] = vec
        return element(presentation, base_elem.node, base_elem.chart,
                       base_elem.point, comps)

    d2 = fresh(d1, [i])            # shares the i-projection with d1
    d3 = fresh(d1, [j])            # shares the j-projection with d1
    comps4 = {}
    for s in d1.components:
        if i in s and j in s:
            comps4[s] = tuple(
                Fraction(rng.randint(lo, hi)) for _ in d1.components[s]
            )
        elif i in s:
            comps4[s] = d2.components[s]
        elif j in s:
            comps4[s] = d3.components[s]
        else:
            comps4[s] = d1.components[s]
    d4 = element(presentation, d1.node, d1.chart, d1.point, comps4)
    return d1, d2, d3, d4
