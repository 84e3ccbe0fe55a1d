"""Presentations of multiple vector bundles over a finite base.

A presentation fixes a finite point set, charts with domains covering
it, a dimension for every coordinate slot, and one gauge per ordered
chart pair and shared point.  Base points are opaque identifiers, so
"functions on overlaps" become finite tables; this is the maximal
locally constant structure testable without smooth analysis.

Both directions of every transition are stored and cross-checked
rather than derived, so corrupted inputs are detectable.  The cocycle
conditions are checked on a spanning family: identity self-transitions,
mutually inverse pairs (reported at the degenerate triple (a, b, a)),
and one orientation per unordered chart triple; all other orientations
follow from these.
"""

from collections.abc import Mapping

from .cubecat import Partition, cube_plan
from .errors import InvalidInput
from .exactlin import rank
from .gauge import DimAssignment, Gauge, diagonal_dims, identity_gauge, singleton_dims


class FiniteBase:
    """A nonempty finite set of distinct point identifiers."""

    def __init__(self, points):
        self.points = tuple(str(p) for p in points)
        if not self.points:
            raise InvalidInput("base must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise InvalidInput("duplicate base point %r" % max(self.points, key=self.points.count))

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return p in self.points

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, FiniteBase) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "FiniteBase(%s)" % (list(self.points),)


class Chart:
    def __init__(self, chart_id, domain):
        self.id = str(chart_id)
        self.domain = tuple(str(p) for p in domain)
        if len(set(self.domain)) != len(self.domain):
            raise InvalidInput("duplicate point %r in the domain of chart %r"
                               % (max(self.domain, key=self.domain.count), self.id))

    def __eq__(self, other):
        return isinstance(other, Chart) and self.id == other.id and self.domain == other.domain

    def __hash__(self):
        return hash((self.id, self.domain))

    def __repr__(self):
        return "Chart(%r, %s)" % (self.id, list(self.domain))


class DerivedMapping(Mapping):
    """A read-only mapping over the collection ``keys``, in its order,
    whose value at a key is ``derive(key)``, made on the first read of
    that key and kept; ``made`` may give some values up front."""

    __slots__ = ("_keys", "_derive", "_made")

    def __init__(self, keys, derive, made=None):
        self._keys, self._derive, self._made = keys, derive, made or {}

    def __getitem__(self, key):
        if key not in self._made:
            if key not in self._keys:
                raise KeyError(key)
            self._made[key] = self._derive(key)
        return self._made[key]

    def __contains__(self, key):
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


class AtlasPresentation:
    """Finite-model data of an n-fold vector bundle.

    ``transitions[(a, b, p)]`` rewrites chart-b coordinates at point p
    into chart-a coordinates.  ``axis_blocks`` optionally records what
    each cube axis stands for when the presentation arose from a core
    or diagonal construction.

    A presentation made by ``derived`` (a core, a vacant or decomposed
    model) shares its parent's ``base`` and ``charts`` objects and the
    canonical chart of each point, computed once per chart system.  Its
    ``transitions`` is a read-only ``DerivedMapping`` whose entries are
    made from the parent's on first read.  Each presentation object
    keeps its vacant and decomposed models once made; a derived view
    starts with none.
    """

    def __init__(self, n, dims, base, charts, transitions, axis_blocks=None):
        self.n = int(n)
        if not isinstance(dims, DimAssignment) or dims.n != self.n:
            raise InvalidInput("dims must be a DimAssignment over the same cube")
        self.dims = dims
        self.base = base if isinstance(base, FiniteBase) else FiniteBase(base)
        self.charts = tuple(
            c if isinstance(c, Chart) else Chart(*c) for c in charts
        )
        if not self.charts:
            raise InvalidInput("need at least one chart")
        ids = [c.id for c in self.charts]
        if len(set(ids)) != len(ids):
            raise InvalidInput("duplicate chart ids")
        self.transitions = dict(transitions)
        self.axis_blocks = tuple(axis_blocks) if axis_blocks else None
        self._canonical = {}
        self._vacant = self._decomposed = None

    def derived(self, n, dims, derive, axis_blocks=None):
        """The presentation over this one's base and charts (not checked
        again) with ``dims``, whose transition at each of this one's keys
        is ``derive(key)``, made on first read."""
        out = AtlasPresentation.__new__(AtlasPresentation)
        out.n, out.dims, out.base, out.charts = n, dims, self.base, self.charts
        out.transitions = DerivedMapping(self.transitions.keys(), derive)
        out.axis_blocks = tuple(axis_blocks) if axis_blocks else None
        out._canonical = self._canonical
        out._vacant = out._decomposed = None
        return out

    def chart(self, chart_id):
        for c in self.charts:
            if c.id == chart_id:
                return c
        raise InvalidInput("no chart %r" % (chart_id,))

    def charts_at(self, point):
        return [c.id for c in self.charts if point in c.domain]

    def canonical_chart(self, point):
        """The lexicographically least chart containing the point."""
        chart = self._canonical.get(point)
        if chart is None:
            at = self.charts_at(point)
            if not at:
                raise InvalidInput("point %r not covered" % (point,))
            chart = self._canonical[point] = min(at)
        return chart

    def transition(self, dst, src, point):
        try:
            return self.transitions[(dst, src, point)]
        except KeyError:
            raise InvalidInput(
                "missing transition %r <- %r at %r" % (dst, src, point)
            )

    def node_dim(self, node):
        return self.dims.node_dim(node)

    def trimmed(self, dims):
        """The sub-presentation over ``dims`` (each slot's dimension at
        most the ambient one): every transition is ``Gauge.trimmed``, on
        first read.  The view holds this one's transitions, not this one,
        which keeps its vacant model."""
        transitions = self.transitions
        return self.derived(
            self.n, dims, lambda key: transitions[key].trimmed(dims), self.axis_blocks)

    def same_chart_system(self, other):
        # derived presentations share one canonical-chart memo
        return self._canonical is other._canonical or (
            self.base == other.base and self.charts == other.charts)

    def __repr__(self):
        return "AtlasPresentation(n=%d, charts=%d, points=%d)" % (
            self.n, len(self.charts), len(self.base),
        )


class Violation:
    """One failed invariant, located by chart/point/component coordinates."""

    def __init__(self, kind, charts=(), point=None, subset=None, rho=None, detail=""):
        self.kind = kind
        self.charts = tuple(charts)
        self.point = point
        self.subset = subset
        self.rho = rho
        self.detail = detail

    def sort_key(self):
        return (
            self.kind,
            self.charts,
            self.point or "",
            tuple(self.subset or ()),
            tuple(tuple(b) for b in (self.rho or ())),
        )

    def to_dict(self):
        out = {"kind": self.kind, "charts": list(self.charts)}
        if self.point is not None:
            out["point"] = self.point
        if self.subset is not None:
            out["subset"] = list(self.subset)
        if self.rho is not None:
            out["partition"] = [list(b) for b in self.rho]
        if self.detail:
            out["detail"] = self.detail
        return out

    def __repr__(self):
        return "Violation(%s, %s, %s)" % (self.kind, self.charts, self.point)


class ValidationReport:
    def __init__(self, violations):
        self.violations = sorted(violations, key=Violation.sort_key)

    @property
    def valid(self):
        return not self.violations

    def __repr__(self):
        return "ValidationReport(valid=%s, violations=%d)" % (
            self.valid, len(self.violations),
        )


def _first_component_difference(got, expected):
    for key, a, b in zip(cube_plan(got.n).keys, got.tensors, expected.tensors):
        if a != b:
            return key
    return None, None


def validate(presentation):
    """Check every presentation invariant; empty report iff valid."""
    a = presentation
    violations = []

    covered = set()
    for c in a.charts:
        for p in c.domain:
            if p not in a.base:
                violations.append(Violation(
                    "structural", (c.id,), p, detail="domain point outside base"))
            covered.add(p)
    for p in a.base:
        if p not in covered:
            violations.append(Violation(
                "structural", (), p, detail="point not covered by any chart"))

    # presence and shape of transitions on all ordered overlapping pairs
    pair_points = {}
    for ca in a.charts:
        for cb in a.charts:
            shared = [p for p in ca.domain if p in cb.domain]
            pair_points[(ca.id, cb.id)] = shared
            for p in shared:
                g = a.transitions.get((ca.id, cb.id, p))
                if g is None:
                    violations.append(Violation(
                        "structural", (ca.id, cb.id), p, detail="missing transition"))
                elif g.source_dims != a.dims or g.target_dims != a.dims:
                    violations.append(Violation(
                        "structural", (ca.id, cb.id), p, detail="transition dims mismatch"))
    for (dst, src, p) in a.transitions:
        if p not in pair_points.get((dst, src), ()):
            violations.append(Violation(
                "structural", (dst, src), p, detail="transition outside overlap"))

    if violations:
        return ValidationReport(violations)

    ident = identity_gauge(a.dims)
    chart_ids = sorted(c.id for c in a.charts)

    for cid in chart_ids:
        for p in a.chart(cid).domain:
            g = a.transitions[(cid, cid, p)]
            if g != ident:
                subset, rho = _first_component_difference(g, ident)
                violations.append(Violation(
                    "identity", (cid,), p, subset, rho,
                    "self-transition is not the identity"))

    # invertibility of every transition's one-block parts (square: the
    # dims were checked above)
    plan = cube_plan(a.n)
    for (dst, src, p), g in sorted(a.transitions.items()):
        for (subset, rho), lin, (dim, _) in zip(plan.keys, g.tensors, a.dims.shapes):
            if len(rho) == 1 and dim and (lin is None or rank(lin) != dim):
                violations.append(Violation(
                    "invertibility", (dst, src), p, subset, rho,
                    "one-block part not invertible"))

    if violations:
        return ValidationReport(violations)

    # cocycles: mutually inverse pairs at (a, b, a), one orientation per triple
    for i, cid in enumerate(chart_ids):
        for cjd in chart_ids[i + 1:]:
            for p in pair_points[(cid, cjd)]:
                back_forth = a.transitions[(cid, cjd, p)].compose(
                    a.transitions[(cjd, cid, p)])
                if back_forth != ident:
                    subset, rho = _first_component_difference(back_forth, ident)
                    violations.append(Violation(
                        "cocycle", (cid, cjd, cid), p, subset, rho,
                        "transitions not mutually inverse"))
    for i, c1 in enumerate(chart_ids):
        for j in range(i + 1, len(chart_ids)):
            for k in range(j + 1, len(chart_ids)):
                c2, c3 = chart_ids[j], chart_ids[k]
                shared = [p for p in pair_points[(c1, c2)] if p in a.chart(c3).domain]
                for p in shared:
                    direct = a.transitions[(c3, c1, p)]
                    via = a.transitions[(c3, c2, p)].compose(a.transitions[(c2, c1, p)])
                    if direct != via:
                        subset, rho = _first_component_difference(direct, via)
                        violations.append(Violation(
                            "cocycle", (c3, c2, c1), p, subset, rho,
                            "triple cocycle fails"))

    return ValidationReport(violations)


def single_chart(base, chart_id="0"):
    return (Chart(chart_id, tuple(base)),)


def decomposed(dims, base, charts=None, transitions=None, axis_blocks=None):
    """The decomposed presentation: block-diagonal (default identity) gluing.

    With ``charts`` omitted a single chart covers the base.  When charts
    are supplied, ``transitions`` may give one-block cocycles; omitted
    transitions default to the identity.
    """
    base = base if isinstance(base, FiniteBase) else FiniteBase(base)
    charts = tuple(charts) if charts else single_chart(base)
    charts = tuple(c if isinstance(c, Chart) else Chart(*c) for c in charts)
    out = {}
    ident = identity_gauge(dims)
    for ca in charts:
        for cb in charts:
            for p in ca.domain:
                if p in cb.domain:
                    key = (ca.id, cb.id, p)
                    g = (transitions or {}).get(key, ident)
                    if not g.is_block_diagonal():
                        raise InvalidInput("decomposed transitions must be one-block")
                    out[key] = g
    return AtlasPresentation(dims.n, dims, base, charts, out, axis_blocks)


def vacant(dims, base, charts=None):
    """Decomposed presentation with all non-singleton dimensions zero."""
    return decomposed(singleton_dims(dims), base, charts)


def diagonal(dims, blocks, base):
    """Decomposed presentation over the cube of the given partition blocks.

    Axis i of the new cube is block i in canonical order; the new slot
    at a set of axes has the ambient dimension of the union of its
    blocks.
    """
    blocks = tuple(Partition(blocks))
    return decomposed(
        diagonal_dims(dims, blocks), base, axis_blocks=blocks,
    )


def associated_decomposed(presentation):
    """The decomposed model sharing base, charts, and one-block cocycles;
    each transition is made on first read, the model once per
    presentation."""
    a = presentation
    if a._decomposed is None:
        keys, transitions, dims = cube_plan(a.n).keys, a.transitions, a.dims

        def linear(key):
            return Gauge.from_tensors(dims, dims, [
                t if len(rho) == 1 else None
                for (_, rho), t in zip(keys, transitions[key].tensors)])
        a._decomposed = a.derived(a.n, dims, linear, a.axis_blocks)
    return a._decomposed


def associated_vacant(presentation):
    """The vacant model: singleton cocycles of the presentation, made
    once per presentation."""
    a = presentation
    if a._vacant is None:
        a._vacant = a.trimmed(singleton_dims(a.dims))
    return a._vacant


def perturb_transition(presentation, dst, src, point, statomorphism):
    """Coherently twist one transition pair by a statomorphism.

    Replaces t[dst<-src] by t[dst<-src] . tau and t[src<-dst] by
    tau^{-1} . t[src<-dst] at the given point, keeping the pair mutually
    inverse; on a triple overlap exactly one triple cocycle breaks.
    """
    a = presentation
    if dst == src:
        raise InvalidInput("perturb a proper chart pair")
    transitions = dict(a.transitions)
    transitions[(dst, src, point)] = transitions[(dst, src, point)].compose(statomorphism)
    transitions[(src, dst, point)] = statomorphism.invert().compose(
        transitions[(src, dst, point)])
    return AtlasPresentation(a.n, a.dims, a.base, a.charts, transitions, a.axis_blocks)
