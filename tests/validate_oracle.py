"""The presentation check that scanned every claim, kept as a test oracle.

``mvb.atlas.validate`` composes per point only the gauges that imply
every cocycle and runs the rank scan and the scan of every triple only
where one of those fails.  This module is the check it replaces: the
rank of every one-block part of every transition, then one composition
per chart pair and one per chart triple, at every shared point.
"""

from mvb.atlas import ValidationReport, Violation
from mvb.cubecat import cube_plan
from mvb.exactlin import rank
from mvb.gauge import identity_gauge


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
