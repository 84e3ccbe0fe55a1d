"""Composition and inversion over unit dims, where every component is one
rational.

A gauge whose dimensions are all 0 or 1 stores reduced ``(numerator,
denominator)`` pairs, and ``Gauge.compose``, ``Gauge.invert``,
``gauge._compose_at`` and the other readers of the store run on them.
The tensor kernel path, taken by the same gauges over copies of their
dims marked as not unit, the dense oracles of ``gauge_oracle`` and the
eager reader and writer of ``format_oracle`` are the references.  Gauge
equality compares the pairs, or else every tensor's integer form, so
equal gauges hold the same integers.
"""

import copy
import json
import random
from fractions import Fraction
from math import gcd

import format_oracle
import pytest
from gauge_oracle import dense_compose, dense_evaluate, dense_invert
from helpers import random_vectors
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_restriction import assert_restricts_as_checked, every_core_key

from mvb import cli, exactlin, formats, gauge
from mvb.cubecat import cube_plan, full_set, nonempty_subsets
from mvb.errors import SingularMatrix
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment, Gauge, _compose_at, identity_gauge
from mvb.rand import random_dims, random_gauge, twisted_instance

DIFFERENTIAL = settings(max_examples=40, derandomize=True, database=None, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])

# pairwise coprime denominators, so that sums of terms need a real lcm
DENOMINATORS = (1, 2, 3, 5, 7)


def on_kernel(g):
    """``g`` over copies of its dims that read as not unit, so that its
    compositions and its inverse take the tensor kernel path."""
    src, tgt = copy.copy(g.source_dims), copy.copy(g.target_dims)
    src.unit = tgt.unit = False
    return Gauge.from_tensors(src, src if g.is_square() else tgt, g.tensors)


def unit_dims(rng, n, one=0.7):
    return DimAssignment(n, {s: int(rng.random() < one) for s in nonempty_subsets(full_set(n))})


def unit_gauge(rng, source_dims, target_dims, zeros=0.3, invertible=False):
    """A gauge over unit dims with rational entries, about ``zeros`` of
    them zero; with ``invertible`` no dim-1 one-block part is zero."""
    tensors = []
    for (out, _), (_, ins) in zip(target_dims.shapes, source_dims.shapes):
        size = out
        for d in ins:
            size *= d
        entries = []
        for _ in range(size):
            if rng.random() < zeros and not (invertible and len(ins) == 1):
                entries.append(0)
            else:
                entries.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                        rng.choice(DENOMINATORS)))
        tensors.append(MultiTensor(out, ins, entries))
    return Gauge.from_tensors(source_dims, target_dims, tensors)


@DIFFERENTIAL
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4))
def test_scalar_compose_matches_the_kernel_and_the_dense_oracle(seed, n):
    rng = random.Random(seed)
    d0, d1, d2 = (unit_dims(rng, n) for _ in range(3))
    f, g = unit_gauge(rng, d0, d1), unit_gauge(rng, d1, d2)
    got = g.compose(f)
    assert got == on_kernel(g).compose(on_kernel(f))
    assert got == dense_compose(g, f)
    positions = sorted(rng.sample(range(len(got.tensors)),
                                  rng.randint(1, len(got.tensors))))
    at = _compose_at(g, f, positions).tensors
    for i, tensor in enumerate(at):
        assert tensor == (got.tensors[i] if i in positions else None)


@DIFFERENTIAL
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4))
def test_scalar_invert_matches_the_kernel_and_the_dense_oracle(seed, n):
    rng = random.Random(seed)
    dims = unit_dims(rng, n)
    g = unit_gauge(rng, dims, dims, invertible=True)
    got = g.invert()
    assert got == on_kernel(g).invert()
    assert got == dense_invert(g)
    assert got.compose(g) == identity_gauge(dims)


def test_a_singular_dim_one_part_raises_the_same_error_on_both_paths():
    rng = random.Random(5)
    dims = DimAssignment(3, {s: 1 for s in nonempty_subsets(full_set(3))})
    g = unit_gauge(rng, dims, dims, invertible=True)
    comps = dict(g.components)
    comps[((1, 3), ((1, 3),))] = MultiTensor(1, (1,), [0])
    singular = Gauge(dims, dims, comps)
    messages = []
    for g in (singular, on_kernel(singular)):
        with pytest.raises(SingularMatrix) as err:
            g.invert()
        messages.append(str(err.value))
    assert messages == ["one-block part at [1, 3] is singular"] * 2
    with pytest.raises(SingularMatrix, match=r"at \[1, 3\] is singular"):
        dense_invert(singular)


def test_dim_zero_slots():
    rng = random.Random(8)
    for dims in (DimAssignment(3, {s: 0 for s in nonempty_subsets(full_set(3))}),
                 DimAssignment(3, {s: int(len(s) != 2) for s in nonempty_subsets(full_set(3))})):
        g = unit_gauge(rng, dims, dims, zeros=0.0, invertible=True)
        f = unit_gauge(rng, dims, dims, zeros=0.0, invertible=True)
        assert g.compose(f) == dense_compose(g, f)
        assert g.invert() == dense_invert(g)
        for tensor, (out, ins) in zip(g.compose(f).tensors, dims.shapes):
            assert tensor is None or out == 1 and set(ins) == {1}


def test_source_and_target_dims_can_differ():
    rng = random.Random(13)
    src, tgt = unit_dims(rng, 4, one=0.5), unit_dims(rng, 4, one=0.5)
    assert src != tgt
    there, back = identity_gauge(src, tgt), identity_gauge(tgt, src)
    for outer, inner in ((back, there), (there, back)):
        got = outer.compose(inner)
        assert got == on_kernel(outer).compose(on_kernel(inner))
        assert got == dense_compose(outer, inner)
    g = unit_gauge(rng, tgt, tgt)
    assert g.compose(there) == dense_compose(g, there)
    assert back.compose(g) == dense_compose(back, g)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of ``_sum_of_composites`` and ``compose_tensors`` calls
    gauge makes, by name."""
    calls = {"_sum_of_composites": 0, "compose_tensors": 0}
    for name in calls:
        kernel = getattr(exactlin, name)

        def counted(*args, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(gauge, name, counted)
    return calls


def test_unit_dims_compose_and_invert_without_the_kernel(kernel_calls):
    rng = random.Random(3)
    dims = DimAssignment(5, {s: 1 for s in nonempty_subsets(full_set(5))})
    g, f = random_gauge(rng, dims), random_gauge(rng, dims)
    g.compose(f)
    g.invert()
    assert kernel_calls == {"_sum_of_composites": 0, "compose_tensors": 0}
    wide = DimAssignment(5, {**dims.dims, (2, 4): 2})
    g, f = random_gauge(rng, wide), random_gauge(rng, wide)
    g.compose(f)
    assert kernel_calls["_sum_of_composites"] > 0
    g.invert()
    assert kernel_calls["compose_tensors"] > 0


@pytest.mark.parametrize("wide_at", range(3))
def test_one_wide_dims_on_either_side_takes_the_kernel(kernel_calls, wide_at):
    """Composing over dims d0 -> d1 -> d2 with one of them not unit."""
    rng = random.Random(wide_at)
    ones = {s: 1 for s in nonempty_subsets(full_set(3))}
    dims = [DimAssignment(3, ones) for _ in range(3)]
    dims[wide_at] = DimAssignment(3, {**ones, (1, 2): 2, (3,): 2})
    f, g = unit_gauge(rng, dims[0], dims[1]), unit_gauge(rng, dims[1], dims[2])
    assert g.compose(f) == dense_compose(g, f)
    assert kernel_calls["_sum_of_composites"] > 0


def test_the_unit_flag_reads_the_dims():
    dims = random_dims(random.Random(1), 3, max_dim=1)
    assert dims.unit is True
    assert random_dims(random.Random(1), 3, max_dim=2, min_dim=2).unit is False
    assert dims.zeroed(lambda key: len(key) == 1).unit is True


def test_a_wrongly_shaped_gauge_component_exits_two_naming_it(tmp_path, capsys):
    dims = DimAssignment(2, {s: 1 for s in nonempty_subsets(full_set(2))})
    body = json.loads(formats.dumps(random_gauge(random.Random(4), dims)))
    component = next(c for c in body["components"] if c["blocks"] == [[1], [2]])
    component["tensor"] = {"entries": ["1", "2"], "in_dims": [1, 2], "out_dim": 1}
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(body))
    for argv in (["stato", "invert", str(path)], ["stato", "check", str(path)]):
        code = cli.run(argv)
        err = capsys.readouterr().err
        assert code == 2, (argv, err)
        assert "component at ([1, 2], [[1], [2]]) has shape 1x[1, 2], expected 1x[1, 1]" \
            in err, (argv, err)


def statomorphism(rng, dims):
    """A gauge with identity one-block parts and random others."""
    plan = cube_plan(dims.n)
    tensors = list(unit_gauge(rng, dims, dims).tensors)
    for at in plan.one_block:
        tensors[at] = MultiTensor.identity(dims.shapes[at][0])
    return Gauge.from_tensors(dims, dims, tensors)


def some_gauge(rng, dims):
    """A random gauge, a statomorphism, a block-diagonal one or the identity."""
    kind = rng.randrange(4)
    if kind == 0:
        return unit_gauge(rng, dims, dims, zeros=rng.choice([0.0, 0.3, 0.9]))
    if kind == 1:
        return statomorphism(rng, dims)
    if kind == 2:
        return unit_gauge(rng, dims, dims, invertible=True).one_block_parts(dims)
    return identity_gauge(dims)


def written_as_by_the_oracle(g):
    return format_oracle.canonical_bytes(format_oracle.to_json(on_kernel(g)))


def assert_one_store(*gauges):
    """Each is over unit dims and stores reduced pairs; all are equal, with equal hashes."""
    for g in gauges:
        assert g.pairs is not None
        assert all(pair is None or (pair[1] > 0 and pair[0] and gcd(*pair) == 1)
                   for pair in g.pairs)
        assert g == gauges[0] and hash(g) == hash(gauges[0])


@DIFFERENTIAL
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4))
def test_built_composed_inverted_or_read_a_unit_gauge_is_one_store(seed, n):
    rng = random.Random(seed)
    d0, d1, d2 = (unit_dims(rng, n) for _ in range(3))
    f, g = unit_gauge(rng, d0, d1), unit_gauge(rng, d1, d2)
    composed = g.compose(f)
    assert_one_store(composed, dense_compose(g, f),
                     Gauge.from_tensors(d0, d2, on_kernel(g).compose(on_kernel(f)).tensors),
                     formats.parse(formats.dumps(composed)),
                     format_oracle.gauge_from_json(json.loads(formats.dumps(composed))))
    h = unit_gauge(rng, d1, d1, invertible=True)
    inverse = h.invert()
    assert_one_store(inverse, dense_invert(h),
                     Gauge.from_tensors(d1, d1, on_kernel(h).invert().tensors),
                     formats.parse(formats.dumps(inverse)))
    assert_one_store(h, formats.parse(formats.dumps(h)), Gauge(d1, d1, h.components))


@DIFFERENTIAL
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4))
def test_unit_gauge_readers_agree_with_the_kernel_copy_and_the_oracles(seed, n):
    rng = random.Random(seed)
    dims = unit_dims(rng, n)
    g = some_gauge(rng, dims)
    twin = on_kernel(g)
    blocks = rng.choice(every_core_key(n))
    restricted = g.diagonal_restrict(blocks)
    assert_restricts_as_checked(g, restricted, blocks)
    assert restricted == twin.diagonal_restrict(blocks)
    smaller = dims.zeroed(lambda key: rng.random() < 0.7)
    assert g.trimmed(smaller) == twin.trimmed(smaller) == Gauge(smaller, smaller, {
        key: tensor for key, tensor, (out, ins) in zip(g.components, g.tensors, smaller.shapes)
        if tensor is not None and (tensor.out_dim, tensor.in_dims) == (out, ins)})
    assert g.is_identity() == twin.is_identity() == (g == identity_gauge(dims))
    assert g.is_statomorphism() == twin.is_statomorphism() == all(
        g.linear_part(s) == MultiTensor.identity(dims.dim(s))
        for s in nonempty_subsets(full_set(n)))
    vectors = random_vectors(rng, dims)
    assert g.evaluate(vectors) == twin.evaluate(vectors) == dense_evaluate(g, vectors)
    text = formats.dumps(g)
    assert text == written_as_by_the_oracle(g)
    assert formats.parse(text) == g and formats.dumps(formats.parse(text)) == text


@DIFFERENTIAL
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4))
def test_an_identity_operand_gives_the_other_operand(seed, n):
    rng = random.Random(seed)
    d0, d1 = unit_dims(rng, n), unit_dims(rng, n)
    g = unit_gauge(rng, d0, d1)
    for outer, inner in ((g, identity_gauge(d0)), (identity_gauge(d1), g)):
        # an identity outer operand is checked first, so it gives inner even when g is one
        kept = inner if outer.is_identity() else outer
        got = outer.compose(inner)
        assert got is kept and got == g == dense_compose(outer, inner)
        assert (got.source_dims, got.target_dims) == (inner.source_dims, outer.target_dims)
        twins = on_kernel(outer), on_kernel(inner)
        kernel = twins[0].compose(twins[1])
        assert kernel is twins[kept is inner] and kernel == g


def test_a_unit_decompose_runs_sums_for_four_of_its_seven_compositions(
        tmp_path, monkeypatch, capsys):
    """``twisted_instance(9, n=5, max_dim=1, n_points=1, n_charts=2)``, the
    n5-unit bench workload at shift 0: its decomposed model has identity
    gluing and its decomposition the identity in the canonical chart."""
    path = tmp_path / "n5.json"
    path.write_bytes(formats.dumps(twisted_instance(9, n=5, max_dim=1, n_points=1,
                                                    n_charts=2)))
    calls = {"compose": 0, "sums": 0}
    compose, compose_at = Gauge.compose, gauge._compose_at

    def counted_compose(self, other):
        calls["compose"] += 1
        return compose(self, other)

    def counted_sums(outer, inner, positions):
        calls["sums"] += 1
        return compose_at(outer, inner, positions)
    monkeypatch.setattr(Gauge, "compose", counted_compose)
    monkeypatch.setattr(gauge, "_compose_at", counted_sums)
    assert cli.run(["decompose", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certificates"][0]["status"] == "pass"
    assert calls == {"compose": 7, "sums": 4}


def test_a_unit_gauge_only_composed_compared_and_written_builds_no_tensors(monkeypatch):
    rng = random.Random(21)
    dims = unit_dims(rng, 4, one=0.7)
    g, f = unit_gauge(rng, dims, dims, invertible=True), unit_gauge(rng, dims, dims)
    built = []
    pair_tensors = gauge._pair_tensors
    monkeypatch.setattr(gauge, "_pair_tensors",
                        lambda *args: built.append(args) or pair_tensors(*args))
    read = formats.parse(formats.dumps(g))
    composed = read.compose(f).compose(identity_gauge(dims)).compose(g.invert())
    assert composed == g.compose(f).compose(g.invert()) and composed != g
    assert formats.dumps(composed) == formats.dumps(g.compose(f.compose(g.invert())))
    assert read.is_statomorphism() == g.is_statomorphism() and not composed.is_identity()
    assert built == []
    assert composed.tensors == dense_compose(dense_compose(g, f), dense_invert(g)).tensors
    assert len(built) >= 1
