"""A derived presentation is a view of its parent.

``partition_core``, ``associated_vacant`` (``AtlasPresentation.trimmed``)
and ``associated_decomposed`` share their parent's base and charts and
make each transition from the parent's on its first read.  These tests
compare the views with the eager builders kept in ``core_oracle``, count
the restrictions a decomposition makes, and pin that a derived
transition is made once and cannot be replaced, and that a presentation
keeps its models without a reference cycle.
"""

import gc
import weakref

import pytest
from core_oracle import eager_decomposed, eager_linear, eager_partition_core, eager_vacant
from hypothesis import HealthCheck, given, settings
from test_restriction import (
    atlas_with_a_transition_of_other_dims,
    every_core_key,
    small_instances,
)

from mvb.atlas import associated_decomposed, associated_vacant
from mvb.cores import partition_core
from mvb.errors import DimensionMismatch
from mvb.gauge import Gauge
from mvb.rand import twisted_instance
from mvb.split import _top_key, decompose, is_decomposition

SMALL = settings(max_examples=20, derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def outcome(read):
    """What ``read()`` returns, or the class and message of its error."""
    try:
        return read()
    except DimensionMismatch as err:
        return type(err), str(err)


def assert_views_match_the_oracle(presentation):
    a = presentation
    for blocks in every_core_key(a.n):
        core, eager = partition_core(a, blocks), eager_partition_core(a, blocks)
        vacant, decomposed = associated_vacant(core), associated_decomposed(core)
        eager_vac = eager_vacant(eager)
        for view, oracle in ((core, eager), (vacant, eager_vac), (decomposed, eager)):
            assert (view.n, view.dims, view.axis_blocks) == (oracle.n, oracle.dims,
                                                             oracle.axis_blocks)
            assert view.same_chart_system(oracle)
            assert list(view.transitions) == list(oracle.transitions)
        # the models are read first, so each reads a core entry not yet made
        for key in a.transitions:
            assert outcome(lambda: decomposed.transitions[key]) == outcome(
                lambda: eager_linear(eager, key)), (blocks, key)
            assert vacant.transitions[key] == eager_vac.transitions[key], (blocks, key)
            assert core.transitions[key] == eager.transitions[key], (blocks, key)
        assert core.transitions == eager.transitions


@SMALL
@given(small_instances())
def test_core_views_match_the_eager_oracle(presentation):
    assert_views_match_the_oracle(presentation)


def test_a_transition_of_other_dims_is_derived_as_the_oracle_derives_it():
    """The core restricts it by its own dims, on first read; the decomposed
    model of that core raises the oracle's error at that key alone."""
    b, odd_key, _ = atlas_with_a_transition_of_other_dims()
    assert_views_match_the_oracle(b)
    core = partition_core(b, [[1, 3], [2]])
    decomposed = associated_decomposed(core)
    with pytest.raises(DimensionMismatch):
        eager_decomposed(eager_partition_core(b, [[1, 3], [2]]))
    with pytest.raises(DimensionMismatch):
        decomposed.transitions[odd_key]
    other = next(key for key in b.transitions if key != odd_key)
    assert decomposed.transitions[other].source_dims is core.dims


def test_a_least_chart_decompose_restricts_only_what_is_read(monkeypatch):
    """At n=5 the builder makes a core per key, yet no transition of a core
    is read until the result is checked: naturality reads the top core's
    transitions, once each."""
    a = twisted_instance(9, n=5, max_dim=1, n_points=1, n_charts=2)
    calls = []
    restrict = Gauge.diagonal_restrict

    def counted(self, blocks, dims=None):
        calls.append(blocks)
        return restrict(self, blocks, dims)
    monkeypatch.setattr(Gauge, "diagonal_restrict", counted)
    top = partition_core(a, _top_key(5))
    assert list(top.transitions) == list(a.transitions) and len(top.transitions) == 4
    assert all(key in top.transitions for key in a.transitions)
    dec = decompose(a)
    assert calls == []
    assert is_decomposition(dec)
    assert calls == [_top_key(5)] * len(a.transitions)
    assert is_decomposition(dec)
    assert len(calls) == len(a.transitions)


def test_a_derived_transition_is_made_once_and_shares_the_charts():
    a = twisted_instance(5, n=3, n_points=3, n_charts=3)
    core = partition_core(a, [[1, 3], [2]])
    for view in (core, associated_vacant(core), associated_decomposed(core),
                 associated_vacant(a), associated_decomposed(a)):
        assert view.base is a.base and view.charts is a.charts
        assert view.same_chart_system(a) and a.same_chart_system(view)
        for p in a.base:
            assert view.canonical_chart(p) == min(a.charts_at(p))
        for key in view.transitions:
            assert view.transitions[key] is view.transitions[key]
        with pytest.raises(TypeError):
            view.transitions[key] = a.transitions[key]
        with pytest.raises(KeyError):
            view.transitions[("no", "such", "key")]
        assert ("no", "such", "key") not in view.transitions
    # morphism data is the same kind of mapping: a point outside the
    # chart system is no key, not a transition to look for
    data = decompose(a).data
    assert data[("0", "p0")] is data[("0", "p0")]
    with pytest.raises(KeyError):
        data[("0", "nowhere")]


def test_models_are_kept_once_and_freed_with_their_presentation():
    """A presentation keeps its vacant and decomposed models; they hold
    its transitions, not it, so dropping it frees all three without the
    cyclic collector."""
    a = twisted_instance(3, n=3, n_points=2, n_charts=2)
    vacant, model = associated_vacant(a), associated_decomposed(a)
    assert associated_vacant(a) is vacant and associated_decomposed(a) is model
    for key in a.transitions:
        assert vacant.transitions[key] is not None and model.transitions[key] is not None
    refs = [weakref.ref(x) for x in (a, vacant, model)]
    gc.disable()
    try:
        del a, vacant, model
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()
