"""Morphism charts derived on first read, and key-restricted composition.

``morphism_from_canonical`` keeps the per-point canonical family and
derives each other (chart, point) gauge when it is first read;
``gauge._compose_at`` composes requested plan keys only, and the uniform
paste composes just the top key of each conjugate.  The oracles are the
eager extension ``chain_oracle.compose_from_canonical`` and the dense
``gauge_oracle.dense_compose``.
"""

import contextlib
import random

import pytest
from chain_oracle import compose_from_canonical
from gauge_oracle import dense_compose
from helpers import random_morphism_gauge
from hypothesis import given
from hypothesis import strategies as st
from test_gauge_plan import SMALL, thinned

from mvb import formats
from mvb.atlas import associated_decomposed
from mvb.bundle import BundleMorphism, morphism_from_canonical
from mvb.cubecat import cube_plan
from mvb.errors import DimensionMismatch
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment, Gauge, _compose_at
from mvb.rand import random_dims, random_gauge, twisted_instance
from mvb.split import _conjugated_top, decompose, is_decomposition

MODES = st.sampled_from(["dense", "linear", "sparse"])


@SMALL
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4), max_dim=st.integers(0, 2),
       mode_f=MODES, mode_g=MODES, mode_h=MODES)
def test_restricted_composite_matches_dense_oracle(seed, n, max_dim, mode_f, mode_g,
                                                   mode_h):
    rng = random.Random(seed)
    d0, d1, d2, d3 = (random_dims(rng, n, max_dim=max_dim) for _ in range(4))
    f = thinned(rng, random_morphism_gauge(rng, d0, d1), mode_f)
    g = thinned(rng, random_morphism_gauge(rng, d1, d2), mode_g)
    h = thinned(rng, random_morphism_gauge(rng, d2, d3), mode_h)
    keys = cube_plan(n).keys
    requested = set(rng.sample(range(len(keys)), rng.randint(1, len(keys))))
    dense = dense_compose(g, f)
    got = _compose_at(g, f, sorted(requested)).tensors
    assert len(got) == len(keys)
    for at, key in enumerate(keys):
        if at not in requested:
            assert got[at] is None
        elif got[at] is None:
            assert dense.components[key].is_zero()
        else:
            assert got[at] == dense.components[key]
    top = keys[-1]
    assert _conjugated_top(h, g, f) == dense_compose(h, dense).components[top]


@contextlib.contextmanager
def counted_compose():
    """A list that gains one item per ``Gauge.compose`` call in the block."""
    calls = []
    compose = Gauge.compose

    def counted(self, other):
        calls.append(1)
        return compose(self, other)
    Gauge.compose = counted
    try:
        yield calls
    finally:
        Gauge.compose = compose


def _families():
    rng = random.Random(29)
    a = twisted_instance(505, n=3, n_points=3, n_charts=3)
    model = associated_decomposed(a)
    d = decompose(a)
    return [
        (model, a, {p: d.data[(a.canonical_chart(p), p)] for p in a.base}),
        (a, a, {p: random_gauge(rng, a.dims, statomorphism=True) for p in a.base}),
    ]


@pytest.mark.parametrize("which", [0, 1])
def test_derived_charts_are_kept_and_canonical_entries_are_given(which):
    source, target, family = _families()[which]
    with counted_compose() as calls:
        data = morphism_from_canonical(source, target, family).data
        assert BundleMorphism(source, target, data).data is data
        assert all(key in data for key in data) and ("no chart", "p0") not in data
    assert not calls
    expected = compose_from_canonical(source, target, family).data
    assert list(data) == list(expected) and len(data) == len(expected)
    keys = list(data)
    random.Random(3).shuffle(keys)
    derived = 0
    for chart, point in keys:
        first = data[(chart, point)]
        assert first == expected[(chart, point)]
        assert data[(chart, point)] is first
        if chart == source.canonical_chart(point):
            assert first is family[point]
        else:
            derived += 1
    assert derived > 0
    assert expected == data and data == expected


def test_canonical_family_shape_checked_at_construction():
    source, target, family = _families()[0]
    p = next(iter(source.base))
    wrong = DimAssignment(source.n, {key: d + 1 for key, d in source.dims.dims.items()})
    bad = dict(family)
    bad[p] = Gauge(wrong, target.dims, {})
    with pytest.raises(DimensionMismatch):
        morphism_from_canonical(source, target, bad)


FINGERPRINTS = {"least-chart": "d2305cfbcb118e1a", "uniform-average": "cf9a9a86ecf9c129"}


@pytest.mark.parametrize("strategy", sorted(FINGERPRINTS))
def test_decompose_composes_few_gauges(strategy):
    a = twisted_instance(9, n=5, max_dim=1, n_points=2, n_charts=3)
    with counted_compose() as calls:
        dec = decompose(a, strategy)
    assert len(calls) <= 20
    assert is_decomposition(dec)
    digest = formats.fingerprint(dec)
    assert digest.startswith(FINGERPRINTS[strategy])


def test_conjugated_top_of_zero_composite_is_a_zero_tensor():
    dims = DimAssignment(2, {(1,): 1, (2,): 2, (1, 2): 3})
    zero = Gauge(dims, dims, {})
    top = _conjugated_top(zero, zero, zero)
    assert top == MultiTensor.zeros(3, (1, 2))
