"""Acceptance suite: every criterion is exact (zero tolerance) rational
arithmetic; each test prints one pass/fail line.  Runtime bounds are
asserted where stated."""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from helpers import random_vectors

from mvb.atlas import (
    FiniteBase,
    associated_decomposed,
    decomposed,
    perturb_transition,
    validate,
)
from mvb.bundle import add, element, elements_equal, morphism_from_canonical
from mvb.cores import (
    core,
    core_by_stages,
    core_morphism,
    include_by_nested_sums,
    ultracore_sequence,
)
from mvb.cubecat import IndexSet, full_set, nonempty_subsets, partitions
from mvb.gauge import DimAssignment, identity_gauge
from mvb.rand import (
    interchange_quadruple,
    random_dims,
    random_element,
    random_gauge,
    twisted_instance,
)
from mvb.sections import (
    decomposition_to_lift,
    doubly_linear_sequence,
    explicit_triple_formula,
    lift_to_decomposition,
)
from mvb.split import (
    act_by_statomorphism,
    decompose,
    is_decomposition,
    normalize_atlas,
    torsor_statomorphism,
)
from mvb.tower import InfinityPresentation, StabilizingGenerator, decompose_infinity


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d FAIL: %s" % (number, label), flush=True)
        raise
    print("ACCEPTANCE %2d PASS: %s" % (number, label), flush=True)


def dims_of(n, value=1):
    return DimAssignment(n, {s: value for s in nonempty_subsets(full_set(n))})


CORPUS = None


def corpus():
    """Fixtures within the stated bounds: n <= 4, dims <= 2, <= 3 charts,
    <= 4 base points."""
    global CORPUS
    if CORPUS is None:
        CORPUS = [
            ("dec-n2", decomposed(dims_of(2), FiniteBase(["p", "q"]))),
            ("dec-n3", decomposed(dims_of(3), FiniteBase(["p"]))),
            ("dec-n4", decomposed(dims_of(4), FiniteBase(["p"]))),
            ("tw-n1", twisted_instance(501, n=1, n_points=2, n_charts=2)),
            ("tw-n2a", twisted_instance(502, n=2, n_points=2, n_charts=2)),
            ("tw-n2b", twisted_instance(503, n=2, n_points=4, n_charts=3)),
            ("tw-n3a", twisted_instance(504, n=3, n_points=2, n_charts=2)),
            ("tw-n3b", twisted_instance(505, n=3, n_points=3, n_charts=3)),
            ("tw-n4", twisted_instance(506, n=4, n_points=2, n_charts=2)),
        ]
        for name, fixture in CORPUS:
            assert fixture.n <= 4 and len(fixture.charts) <= 3
            assert len(fixture.base) <= 4
            assert all(d <= 2 for d in fixture.dims.dims.values())
    return CORPUS


def brute_force_partition_count(size):
    elements = list(range(1, size + 1))
    seen = set()
    for labels in itertools.product(range(size), repeat=size):
        blocks = {}
        for e, l in zip(elements, labels):
            blocks.setdefault(l, []).append(e)
        seen.add(tuple(sorted(tuple(b) for b in blocks.values())))
    return len(seen)


def test_criterion_1_partition_calculus():
    with criterion(1, "partition counts 1, 2, 5, 15, 52 in under a second"):
        started = time.monotonic()
        expected = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
        for size, count in expected.items():
            enumerated = partitions(full_set(size))
            assert len(enumerated) == count
            assert len(set(enumerated)) == count
            assert brute_force_partition_count(size) == count
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, "took %.2fs" % elapsed


def test_criterion_2_gauge_group():
    with criterion(2, "gauge group laws on 1000 random gauges in under 60 s"):
        started = time.monotonic()
        rng = random.Random(2024)
        produced = 0
        while produced < 1000:
            n = rng.choice([1, 2, 3])
            dims = random_dims(rng, n, max_dim=2)
            f = random_gauge(rng, dims)
            g = random_gauge(rng, dims)
            h = random_gauge(rng, dims)
            produced += 3
            ident = identity_gauge(dims)
            composite = g.compose(f)
            v = random_vectors(rng, dims)
            assert composite.evaluate(v) == g.evaluate(f.evaluate(v))
            assert ident.compose(f) == f and f.compose(ident) == f
            assert h.compose(g.compose(f)) == (h.compose(g)).compose(f)
            for gauge in (f, g, h):
                inv = gauge.invert()
                assert gauge.compose(inv) == ident
                assert inv.compose(gauge) == ident
        for _ in range(200):
            n = rng.choice([1, 2, 3])
            dims = random_dims(rng, n, max_dim=2)
            s = random_gauge(rng, dims, statomorphism=True)
            t = random_gauge(rng, dims, statomorphism=True)
            assert s.compose(t).is_statomorphism()
            assert s.invert().is_statomorphism()
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, "took %.2fs" % elapsed


def test_criterion_3_cocycles_and_perturbation():
    with criterion(3, "cocycles hold; one perturbation hits exactly one triple"):
        for name, fixture in corpus():
            assert validate(fixture).valid, name
        rng = random.Random(7)
        probe = twisted_instance(508, n=2, n_points=2, n_charts=3)
        assert validate(probe).valid
        triple_points = [p for p in probe.base if len(probe.charts_at(p)) >= 3]
        assert triple_points
        point = triple_points[0]
        tau = random_gauge(rng, probe.dims, statomorphism=True)
        assert not tau.is_identity()
        perturbed = perturb_transition(probe, "2", "1", point, tau)
        report = validate(perturbed)
        cocycle = [v for v in report.violations if v.kind == "cocycle"]
        assert len(cocycle) == 1
        assert cocycle[0].point == point


def test_criterion_4_interchange_law():
    with criterion(4, "interchange law on 1000+ random quadruples per fixture"):
        rng = random.Random(11)
        for name, fixture in corpus():
            if fixture.n < 2:
                continue
            squares = []
            for node in nonempty_subsets(full_set(fixture.n)):
                if len(node) < 2:
                    continue
                for i in node:
                    for j in node:
                        if i < j:
                            squares.append((node, i, j))
            quota = math.ceil(1000 / len(squares))
            total = 0
            for node, i, j in squares:
                for _ in range(quota):
                    d1, d2, d3, d4 = interchange_quadruple(rng, fixture, node, i, j)
                    left = add(fixture, add(fixture, d1, d2, i),
                               add(fixture, d3, d4, i), j)
                    right = add(fixture, add(fixture, d1, d3, j),
                                add(fixture, d2, d4, j), i)
                    assert left == right
                    total += 1
            assert total >= 1000, name


def test_criterion_5_pullback_and_ultracore():
    with criterion(5, "pullback surjectivity, exactness, dimension identity,"
                      " ordering independence"):
        for name, fixture in corpus():
            for axis in range(1, fixture.n + 1):
                iota, pi, cert = ultracore_sequence(fixture, axis)
                assert cert.passed, (name, axis, cert.to_dict())
        reference = decomposed(dims_of(3), FiniteBase(["p"]))
        _, _, cert = ultracore_sequence(reference, 1)
        identity_witness = [w for w in cert.witnesses if "dimension_identity" in w]
        assert identity_witness[0]["dimension_identity"] == [7, 1, 6]

        rng = random.Random(13)
        fixture = dict(corpus())["tw-n4"]
        top = full_set(4)
        point = fixture.base.points[0]
        from mvb.bundle import zero_element
        z = zero_element(fixture, top, point)
        zc = dict(z.components)
        zc[top] = tuple(Fraction(rng.randint(-3, 3))
                        for _ in range(fixture.dims.dim(top)))
        z = element(fixture, top, z.chart, point, zc)
        side = random_element(rng, fixture, node=top.difference([1]), point=point)
        orderings = [(2, 3, 4), (4, 3, 2), (3, 2, 4), (2, 4, 3)]
        results = [include_by_nested_sums(fixture, 1, z, side, list(o))
                   for o in orderings]
        for other in results[1:]:
            assert elements_equal(fixture, results[0], other)
        assert len(orderings) >= 3


def test_criterion_6_cores():
    with criterion(6, "decomposed cores, cores by stages, core functoriality"):
        reference = decomposed(dims_of(3), FiniteBase(["p"]))
        expectations = {
            (1, 2): [(1,), (3,)],
            (1, 3): [(2,), (1, 3)],
            (2, 3): [(1,), (2, 3)],
        }
        for inner, axis_sets in expectations.items():
            _, pres = core(reference, [1, 2, 3], list(inner))
            assert pres.n == 2
            assert pres.node_dim(full_set(2)) == 3
            blocks = [tuple(b) for b in pres.axis_blocks]
            assert tuple(inner) in blocks
        for name, fixture in corpus():
            if fixture.n < 3:
                continue
            assert core_by_stages(fixture, [1, 2, 3], [1, 2], [1]).passed, name
            assert core_by_stages(fixture, [1, 2, 3], [1, 2, 3], [2, 3]).passed, name
        rng = random.Random(17)
        fixture = dict(corpus())["tw-n3a"]
        for _ in range(5):
            fam1 = {p: random_gauge(rng, fixture.dims, statomorphism=True)
                    for p in fixture.base}
            fam2 = {p: random_gauge(rng, fixture.dims, statomorphism=True)
                    for p in fixture.base}
            t1 = morphism_from_canonical(fixture, fixture, fam1)
            t2 = morphism_from_canonical(fixture, fixture, fam2)
            lhs = core_morphism(t2.compose(t1), [1, 2, 3], [1, 2])
            rhs = core_morphism(t2, [1, 2, 3], [1, 2]).compose(
                core_morphism(t1, [1, 2, 3], [1, 2]))
            assert lhs == rhs


def test_criterion_7_decomposition_pipeline():
    with criterion(7, "decomposition pipeline on the corpus, both strategies,"
                      " under 5 minutes"):
        started = time.monotonic()
        for name, fixture in corpus():
            for strategy in ("least-chart", "uniform-average"):
                dec = decompose(fixture, strategy)
                assert is_decomposition(dec), (name, strategy)
        elapsed = time.monotonic() - started
        assert elapsed < 300.0, "took %.2fs" % elapsed


def test_criterion_8_torsor():
    with criterion(8, "decompositions form a statomorphism torsor"):
        rng = random.Random(19)
        for name, fixture in corpus():
            if fixture.n < 2:
                continue
            d1 = decompose(fixture, "least-chart")
            d2 = decompose(fixture, "uniform-average")
            tau = torsor_statomorphism(d1, d2)
            assert all(g.is_statomorphism() for g in tau.data.values()), name
            assert act_by_statomorphism(d1, tau).data == d2.data, name
        fixture = dict(corpus())["tw-n3a"]
        d = decompose(fixture)
        fam = {p: random_gauge(rng, d.source.dims, statomorphism=True)
               for p in fixture.base}
        tau = morphism_from_canonical(d.source, d.source, fam)
        acted = act_by_statomorphism(d, tau)
        assert torsor_statomorphism(d, acted).data == tau.data


def test_criterion_9_normalization():
    with criterion(9, "normalized atlases are one-block and validate"):
        for name, fixture in corpus():
            dec = decompose(fixture)
            normalized = normalize_atlas(fixture, dec)
            assert all(g.is_block_diagonal()
                       for g in normalized.transitions.values()), name
            assert validate(normalized).valid, name
            assert normalized.transitions == associated_decomposed(
                fixture).transitions, name


def test_criterion_10_triple_section_calculus():
    with criterion(10, "triple-bundle section sequences and horizontal lifts"):
        rng = random.Random(23)
        for name in ("tw-n3a", "tw-n3b"):
            fixture = dict(corpus())[name]
            assert doubly_linear_sequence(fixture).passed
            dec = decompose(fixture)
            pieces = decomposition_to_lift(fixture, dec)
            rebuilt = lift_to_decomposition(
                fixture, pieces["split_d"], pieces["split_e"], pieces["split_f"],
                pieces["split_lde"], pieces["split_lfd"], pieces["lift"])
            assert rebuilt.data == dec.data, name
            model = dec.source
            for _ in range(5):
                point = rng.choice(fixture.base.points)
                chart = fixture.canonical_chart(point)
                values = {
                    s: tuple(Fraction(rng.randint(-2, 2))
                             for _ in range(fixture.dims.dim(s)))
                    for s in nonempty_subsets(full_set(3))
                }
                x = element(model, full_set(3), chart, point, values)
                via_pipeline = dec.apply(x)
                via_formula = explicit_triple_formula(
                    fixture, dec, point,
                    values[IndexSet([1])], values[IndexSet([2])],
                    values[IndexSet([3])], values[IndexSet([1, 2])],
                    values[IndexSet([2, 3])], values[IndexSet([1, 3])],
                    values[IndexSet([1, 2, 3])])
                assert elements_equal(fixture, via_pipeline, via_formula), name


def test_criterion_11_tower_level_independence():
    with criterion(11, "tower decompositions independent of the level"):
        instance = dict(corpus())["tw-n3a"]
        tower = decompose_infinity(
            InfinityPresentation(StabilizingGenerator(instance)))
        for node in nonempty_subsets(full_set(3)):
            assert tower.node_map_agrees(node, 3, 4)


def test_criterion_12_cli_determinism(tmp_path, capsys):
    with criterion(12, "CLI reports are canonically hash-identical across runs"):
        from mvb import formats
        from mvb.cli import run

        path = tmp_path / "fixture.json"
        path.write_bytes(formats.dumps(dict(corpus())["tw-n2a"]))
        bodies = []
        for _ in range(2):
            code = run(["decompose", str(path), "--strategy", "uniform-average"])
            captured = capsys.readouterr()
            assert code == 0
            bodies.append(json.loads(captured.out))
        assert bodies[0]["report_hash"] == bodies[1]["report_hash"]
        for body in bodies:
            body.pop("timing_ms")
        assert bodies[0] == bodies[1]

        bodies = []
        for _ in range(2):
            code = run(["gen", "--seed", "99", "--n", "3"])
            captured = capsys.readouterr()
            assert code == 0
            bodies.append(json.loads(captured.out))
        assert bodies[0]["report_hash"] == bodies[1]["report_hash"]
