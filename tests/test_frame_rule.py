"""Every frame-conjugated level is built by ``atlas.conjugates``.

Differential against ``frame_oracle``, the per-transition construction
it replaces: the same transition keys in the same order and equal
gauges, for seeded twisted instances, both rule-generator kinds and the
stabilizing generator at and above its own level; every level built
validates.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frame_oracle
from mvb.atlas import AtlasPresentation, conjugates, overlaps, validate
from mvb.errors import InvalidInput
from mvb.gauge import Gauge, identity_gauge
from mvb.rand import _chart_layout, random_dims, random_gauge, twisted_instance
from mvb.tower import InfinityPresentation, RuleGenerator, StabilizingGenerator

SMALL = settings(max_examples=100, derandomize=True, database=None, deadline=None)

seeds = st.integers(0, 10 ** 6)
levels = st.integers(0, 4)
chart_counts = st.integers(1, 4)
point_counts = st.integers(1, 3)


def assert_same_level(got, expected):
    assert list(got.transitions) == list(expected.transitions)
    assert got.transitions == expected.transitions
    assert (got.n, got.dims, got.base, got.charts) == (
        expected.n, expected.dims, expected.base, expected.charts)
    assert validate(got).valid


@SMALL
@given(seeds, levels, chart_counts, point_counts)
def test_twisted_instance_matches_the_overlap_loop(seed, n, n_charts, n_points):
    max_dim = 2 if n <= 2 else 1
    assert_same_level(
        twisted_instance(seed, n, max_dim=max_dim, n_points=n_points, n_charts=n_charts),
        frame_oracle.twisted_instance(seed, n, max_dim=max_dim, n_points=n_points,
                                      n_charts=n_charts))


@SMALL
@given(seeds, levels, chart_counts, point_counts, st.sampled_from(["identity", "conjugate"]),
       st.integers(0, 2), st.integers(0, 4))
def test_rule_levels_match_the_per_pair_transitions(seed, n, n_charts, n_points, kind, dim,
                                                    max_card):
    if n >= 3:
        dim = min(dim, 1)
    points = ["p%d" % i for i in range(n_points)]
    charts = _chart_layout(random.Random(seed), points, n_charts)
    generator = RuleGenerator(points, [(c.id, c.domain) for c in charts],
                              {"kind": "threshold", "dim": dim, "max_card": max_card},
                              {"kind": kind, "seed": seed})
    assert_same_level(InfinityPresentation(generator).truncate(n),
                      frame_oracle.truncate(generator, n))


@SMALL
@given(seeds, st.integers(0, 3), st.booleans(), chart_counts, point_counts)
def test_stabilizing_levels_match_the_per_pair_transitions(seed, level, above, n_charts,
                                                           n_points):
    instance = twisted_instance(seed, level, max_dim=2 if level <= 2 else 1,
                                n_points=n_points, n_charts=n_charts)
    generator = StabilizingGenerator(instance)
    n = level + above
    assert_same_level(InfinityPresentation(generator).truncate(n),
                      frame_oracle.truncate(generator, n))


def test_conjugates_makes_each_frame_once_and_inverts_it_once(monkeypatch):
    """Three charts on both of two points and a fourth on a point of its
    own: six frames made and each inverted once, where one transition at a
    time makes 24 frames and inverts 12; the lone chart's frame is never
    made."""
    points = ["p", "q", "r"]
    charts = [("a", ("p", "q")), ("b", ("q", "p")), ("c", ("p", "q")), ("d", ("r",))]
    charts = AtlasPresentation(1, random_dims(random.Random(0), 1), points, charts, {}).charts
    dims = random_dims(random.Random(1), 2, min_dim=1)
    rng, made, inverted = random.Random(2), [], []

    def frame(chart, point):
        made.append((chart, point))
        return random_gauge(rng, dims)
    invert = Gauge.invert
    monkeypatch.setattr(Gauge, "invert", lambda g: inverted.append(g) or invert(g))
    transitions = conjugates(dims, charts, frame)
    assert sorted(made) == [(c, p) for c in "abc" for p in "pq"]
    assert len(inverted) == len({id(g) for g in inverted}) == 6
    assert list(transitions) == overlaps(charts)
    for (dst, src, p), g in transitions.items():
        if dst == src:
            assert g == identity_gauge(dims)


def test_stabilizing_level_reads_each_transition_by_its_key():
    """A transition missing from the instance is named, at every level."""
    instance = twisted_instance(5, 2, n_points=1, n_charts=2)
    transitions = dict(instance.transitions)
    del transitions[("1", "0", "p0")]
    broken = AtlasPresentation(2, instance.dims, instance.base, instance.charts, transitions)
    for n in (1, 2, 3):
        with pytest.raises(InvalidInput, match="missing transition '1' <- '0' at 'p0'"):
            InfinityPresentation(StabilizingGenerator(broken)).truncate(n)
