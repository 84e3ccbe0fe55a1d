"""Composition and inversion over unit dims, where every component is one
rational.

``Gauge.compose``, ``Gauge.invert`` and ``gauge._compose_at`` run on
``(numerator, denominator)`` pairs when every dimension involved is 0
or 1.  The tensor kernel path, taken by the same gauges over copies of
their dims marked as not unit, and the dense oracles of
``gauge_oracle`` are the references.  Gauge equality compares every
tensor's integer form, so equal gauges hold the same integers.
"""

import copy
import json
import random
from fractions import Fraction

import pytest
from gauge_oracle import dense_compose, dense_invert
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvb import cli, exactlin, formats, gauge
from mvb.cubecat import full_set, nonempty_subsets
from mvb.errors import SingularMatrix
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment, Gauge, _compose_at, identity_gauge
from mvb.rand import random_dims, random_gauge

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
    at = _compose_at(g, f, positions)
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
