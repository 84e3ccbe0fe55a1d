"""Frame-conjugated atlases built one transition at a time, kept as a test oracle.

The library makes every frame-conjugated level with ``atlas.conjugates``:
each frame once per (chart, point), each inverted once, and the identity
on a chart's own transitions.  This module is the construction it
replaces: ``twisted_instance`` walks the chart overlaps by hand and
composes every transition, a chart's own included, and a generator
hands over one transition per ordered chart pair, remaking both frames
and one inverse for each.
"""

import random

from mvb.atlas import AtlasPresentation, FiniteBase
from mvb.cubecat import ambient_positions, cube_plan, full_set, nonempty_subsets
from mvb.gauge import DimAssignment, Gauge, identity_gauge
from mvb.rand import _chart_layout, random_dims, random_gauge
from mvb.split import _top_key
from mvb.tower import RuleGenerator


def twisted_instance(seed, n=2, max_dim=2, n_points=2, n_charts=2, dims=None):
    rng = random.Random(seed)
    points = ["p%d" % i for i in range(n_points)]
    base = FiniteBase(points)
    if dims is None:
        dims = random_dims(rng, n, max_dim=max_dim, min_dim=1)
    charts = _chart_layout(rng, points, n_charts)
    frames = {}
    for c in charts:
        for p in c.domain:
            frames[(c.id, p)] = random_gauge(rng, dims)
    inverses = {key: frame.invert() for key, frame in frames.items()}
    transitions = {}
    for ca in charts:
        for cb in charts:
            for p in ca.domain:
                if p in cb.domain:
                    g = frames[(ca.id, p)].compose(inverses[(cb.id, p)])
                    transitions[(ca.id, cb.id, p)] = g
    return AtlasPresentation(n, dims, base, charts, transitions)


def transition(generator, dst, src, point, dims):
    """The generator's transition dst <- src at ``point`` over ``dims``."""
    if isinstance(generator, RuleGenerator):
        if generator.transition_rule["kind"] == "identity" or dst == src:
            return identity_gauge(dims)
        g_dst = generator._frame(dst, point, dims)
        g_src = generator._frame(src, point, dims)
        return g_dst.compose(g_src.invert())
    g = generator.instance.transition(dst, src, point)
    if dims.n <= generator.level:
        return g.diagonal_restrict(_top_key(dims.n))
    tensors = [None] * len(cube_plan(dims.n).keys)
    for at, tensor in zip(ambient_positions((dims.n, _top_key(generator.level))),
                          g.tensors):
        tensors[at] = tensor
    return Gauge.from_tensors(dims, dims, tensors)


def truncate(generator, n):
    """Level ``n`` of the generator, one transition per overlap."""
    dims = DimAssignment(n, {
        s: generator.dim(s) for s in nonempty_subsets(full_set(n))
    })
    transitions = {}
    for ca in generator.charts:
        for cb in generator.charts:
            for p in ca.domain:
                if p not in cb.domain:
                    continue
                transitions[(ca.id, cb.id, p)] = transition(generator, ca.id, cb.id, p, dims)
    return AtlasPresentation(n, dims, generator.base, generator.charts, transitions)
