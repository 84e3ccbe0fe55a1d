"""Lazy towers of truncations and their compatible decompositions.

An infinity presentation is a rule for producing one n-fold
presentation per level, over a shared base and chart layout, such that
each level restricts to the previous one along the coordinate
inclusion.  Two generator kinds are supported: a stabilizing generator
wraps explicit finite data and pads every slot beyond its level with
zeros, and a rule generator derives slot dimensions and per-chart
conjugation frames from a deterministic hash of a seed.

Tower decompositions share one splitting cache across levels, keyed by
the block partition that names each core; since those keys never
mention the level, the decomposition of level n+1 restricts to the
decomposition of level n by construction.
"""

import hashlib

from .atlas import AtlasPresentation, Chart, FiniteBase
from .cubecat import (
    IndexSet,
    ambient_positions,
    cube_plan,
    full_set,
    nonempty_subsets,
    partitions,
)
from .errors import InvalidInput, SchemaError
from .exactlin import MultiTensor
from .gauge import DimAssignment, Gauge, identity_gauge
from .split import BuilderCache, DecompositionBuilder, _top_key


class StabilizingGenerator:
    """Explicit data up to a fixed level, zero slots beyond it."""

    def __init__(self, instance):
        self.instance = instance
        self.level = instance.n

    @property
    def base(self):
        return self.instance.base

    @property
    def charts(self):
        return self.instance.charts

    def dim(self, subset):
        subset = IndexSet(subset)
        if subset.issubset(full_set(self.level)):
            return self.instance.dims.dim(subset)
        return 0

    def transition(self, dst, src, point, dims):
        """The instance's transition read over the cube of ``dims``: its
        face on {1..n} at or below the level, else its components placed
        at their keys in the larger cube, every other one zero."""
        g = self.instance.transition(dst, src, point)
        if dims.n <= self.level:
            return g.diagonal_restrict(_top_key(dims.n))
        tensors = [None] * len(cube_plan(dims.n).keys)
        for at, tensor in zip(ambient_positions((dims.n, _top_key(self.level))),
                              g.tensors):
            tensors[at] = tensor
        return Gauge.from_tensors(dims, dims, tensors)


def _hash_ints(*labels):
    """Deterministic stream of small integers from string labels."""
    text = "|".join(str(l) for l in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    pos = 0
    while True:
        if pos >= len(digest):
            digest = hashlib.sha256(digest).digest()
            pos = 0
        yield digest[pos] % 5 - 2
        pos += 1


class RuleGenerator:
    """Slot dimensions by cardinality threshold, transitions by seeded
    per-chart conjugation frames.

    The frame of a chart at a point has unit upper-triangular one-block
    parts (hence invertible with determinant one) and hashed small
    integer entries elsewhere; transitions are frame conjugates, so all
    cocycle conditions hold at every level.  ``dim_rule`` holds two
    nonnegative ints, ``dim`` and ``max_card``; ``transition_rule`` an int
    ``seed``, 0 when absent.
    """

    def __init__(self, points, chart_specs, dim_rule, transition_rule):
        self._base = FiniteBase(points)
        self._charts = tuple(Chart(cid, domain) for cid, domain in chart_specs)
        if dim_rule.get("kind") != "threshold":
            raise SchemaError("rule generator dim_rule: kind must be 'threshold', got %r"
                              % (dim_rule.get("kind"),))
        for field in ("dim", "max_card"):
            if type(dim_rule.get(field)) is not int or dim_rule[field] < 0:
                raise SchemaError("rule generator dim_rule: %s must be a nonnegative"
                                  " integer, got %r" % (field, dim_rule.get(field)))
        self.dim_rule = dict(dim_rule)
        if transition_rule.get("kind") not in ("identity", "conjugate"):
            raise SchemaError("rule generator transition_rule: kind must be 'identity' or"
                              " 'conjugate', got %r" % (transition_rule.get("kind"),))
        seed = transition_rule.get("seed", 0)
        if type(seed) is not int:
            raise SchemaError("rule generator transition_rule: seed must be an integer,"
                              " got %r" % (seed,))
        self.transition_rule = dict(transition_rule)
        for name, rule, fields in (("dim_rule", dim_rule, ("kind", "dim", "max_card")),
                                   ("transition_rule", transition_rule, ("kind", "seed"))):
            for field in rule:
                if field not in fields:
                    raise SchemaError("rule generator %s: unknown field %r" % (name, field))
        self.chart_specs = tuple((c.id, c.domain) for c in self._charts)

    @property
    def base(self):
        return self._base

    @property
    def charts(self):
        return self._charts

    def dim(self, subset):
        subset = IndexSet(subset)
        if len(subset) <= self.dim_rule["max_card"]:
            return self.dim_rule["dim"]
        return 0

    def _frame_tensor(self, chart, point, subset, rho, out_dim, in_dims):
        seed = self.transition_rule.get("seed", 0)
        stream = _hash_ints("frame", seed, chart, point,
                            list(subset), [list(b) for b in rho])
        size = out_dim
        for d in in_dims:
            size *= d
        if len(rho) == 1:
            # unit upper triangular
            nums = [int(i == j) if i >= j else next(stream)
                    for i in range(out_dim) for j in range(out_dim)]
        else:
            nums = [next(stream) for _ in range(size)]
        return MultiTensor.from_integers(out_dim, tuple(in_dims), nums, 1)

    def _frame(self, chart, point, dims):
        return Gauge.from_tensors(dims, dims, [
            self._frame_tensor(chart, point, subset, rho, *shape)
            for (subset, rho), shape in zip(cube_plan(dims.n).keys, dims.shapes)])

    def transition(self, dst, src, point, dims):
        if self.transition_rule["kind"] == "identity" or dst == src:
            return identity_gauge(dims)
        g_dst = self._frame(dst, point, dims)
        g_src = self._frame(src, point, dims)
        return g_dst.compose(g_src.invert())


class InfinityPresentation:
    """A generator plus memoized truncations."""

    def __init__(self, generator):
        self.generator = generator
        self._truncations = {}

    def truncate(self, n):
        if n < 0:
            raise InvalidInput("negative truncation level")
        if n not in self._truncations:
            self._truncations[n] = self._build(n)
        return self._truncations[n]

    def _build(self, n):
        gen = self.generator
        dims = DimAssignment(n, {
            s: gen.dim(s) for s in nonempty_subsets(full_set(n))
        })
        transitions = {}
        for ca in gen.charts:
            for cb in gen.charts:
                for p in ca.domain:
                    if p not in cb.domain:
                        continue
                    transitions[(ca.id, cb.id, p)] = gen.transition(ca.id, cb.id, p, dims)
        return AtlasPresentation(n, dims, gen.base, gen.charts, transitions)


class TowerDecomposition:
    """Levelwise decompositions from one shared splitting cache."""

    def __init__(self, infinity, strategy="least-chart"):
        self.infinity = infinity
        self.strategy = strategy
        self.cache = BuilderCache()
        self._levels = {}

    def level(self, n):
        if n not in self._levels:
            presentation = self.infinity.truncate(n)
            builder = DecompositionBuilder(presentation, self.strategy, cache=self.cache)
            self._levels[n] = builder.decomposition(builder.top_key())
        return self._levels[n]

    def node_map_agrees(self, node, n1, n2):
        """Level-independence of the decomposition on one node."""
        node = IndexSet(node)
        for level in (n1, n2):
            if not node.issubset(full_set(level)):
                raise InvalidInput("node outside level %d" % level)
        d1, d2 = self.level(n1), self.level(n2)
        for key, g1 in d1.data.items():
            g2 = d2.data[key]
            for subset in nonempty_subsets(node):
                for rho in partitions(subset):
                    if g1.components[(subset, rho)] != g2.components[(subset, rho)]:
                        return False
        return True


def decompose_infinity(infinity, strategy="least-chart"):
    return TowerDecomposition(infinity, strategy)
