"""A decomposition in the canonical chart is a table of splitting tops.

Unrolled over the lattice of cores, the uniqueness of a decomposition
given a splitting and the codimension-one core decompositions says: in
each point's canonical chart, the component at plan key (T, rho) is the
top of the splitting of the core that rho names, and the identity on a
one-block rho.  Without a ``theta_top`` hook every least-chart top is
zero there, so the least-chart decomposition is the identity gauge.
Both facts are checked on the recursive builder (``builder_oracle``);
the table-backed builder, which reads every component that way, must
agree with it at every core key.  ``splitting_to_decomposition`` seeds
a splitting and the codimension-one core decompositions into that
table and reads the decomposition back: at n >= 4 it must return the
decomposition they came from, as the recursive oracle's routed
assembly does, and a seeded decomposition writes the very tops its
builder made.
"""

import pytest
from builder_oracle import RecursiveBuilder, _assemble
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvb.atlas import associated_decomposed
from mvb.cores import partition_core
from mvb.cubecat import cube_plan, full_set, nonempty_subsets
from mvb.gauge import DimAssignment
from mvb.rand import twisted_instance
from mvb.split import (
    STRATEGIES,
    DecompositionBuilder,
    _merged,
    _pairs,
    _top_key,
    decompose,
    extract_core_decompositions,
    extract_splitting,
    splitting_to_decomposition,
    splitting_top,
)

TOPS = settings(max_examples=30, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# the largest fiber dimension per n, so every example stays small
MAX_DIM = {2: 3, 3: 3, 4: 2, 5: 1}


@st.composite
def atlases(draw):
    # sampled_from shrinks towards its first entry: lead with the largest n
    n = draw(st.sampled_from((5, 4, 3, 2)))
    values = draw(st.lists(st.integers(1, MAX_DIM[n]),
                           min_size=2 ** n - 1, max_size=2 ** n - 1))
    dims = DimAssignment(n, dict(zip(nonempty_subsets(full_set(n)), values)))
    return twisted_instance(
        draw(st.integers(0, 10 ** 6)), n=n, dims=dims,
        n_points=draw(st.integers(1, 3)), n_charts=draw(st.integers(1, 3)))


@st.composite
def n4_atlases_with_a_zero_slot(draw):
    # sampled_from shrinks towards its first entry: lead with the largest
    slots = nonempty_subsets(full_set(4))
    values = draw(st.lists(st.sampled_from((2, 1, 0)), min_size=len(slots),
                           max_size=len(slots)))
    values[draw(st.integers(0, len(slots) - 1))] = 0
    return twisted_instance(
        draw(st.integers(0, 10 ** 6)), n=4, dims=DimAssignment(4, dict(zip(slots, values))),
        n_points=draw(st.sampled_from((2, 1))), n_charts=draw(st.sampled_from((3, 2, 1))))


def zero_slot_atlas():
    """An n=3 atlas whose {1,3} and top slots have dimension 0."""
    n = 3
    dims = DimAssignment(n, {s: 0 if s in ((1, 3), (1, 2, 3)) else 2
                             for s in nonempty_subsets(full_set(n))})
    return twisted_instance(41, n=n, dims=dims, n_points=2, n_charts=3)


def assert_components_are_tops(presentation, strategy):
    builder = RecursiveBuilder(presentation, strategy)
    dec = builder.decomposition(builder.top_key())
    keys = cube_plan(presentation.n).keys
    for p in presentation.base:
        can = presentation.canonical_chart(p)
        g = dec.data[(can, p)]
        for target, rho in keys:
            if len(rho) == 1:
                assert g.components[(target, rho)].is_identity()
            else:
                top = splitting_top(builder.splitting(rho), p)
                assert g.components[(target, rho)] == top, (p, target, rho)


def assert_least_chart_is_identity(presentation):
    builder = RecursiveBuilder(presentation, "least-chart")
    dec = builder.decomposition(builder.top_key())
    for p in presentation.base:
        assert dec.data[(presentation.canonical_chart(p), p)].is_identity(), p


def assert_builders_agree(presentation, strategy):
    table = DecompositionBuilder(presentation, strategy)
    oracle = RecursiveBuilder(presentation, strategy)
    for _, key in cube_plan(presentation.n).keys:
        assert table.splitting(key).data == oracle.splitting(key).data, key
        assert table.decomposition(key).data == oracle.decomposition(key).data, key


def assert_seeded_tops_rebuild(presentation, strategy):
    """The decomposition rebuilt from its splitting and core
    decompositions is the decomposition itself and the routed assembly;
    each core decomposition, seeded into a fresh builder, writes exactly
    the canonical tops of the builder that made it."""
    a = presentation
    d = decompose(a, strategy)
    sigma, cores = extract_splitting(a, d), extract_core_decompositions(d)
    assert splitting_to_decomposition(a, sigma, cores).data == d.data
    obj = partition_core(a, _top_key(a.n))
    assert _assemble(obj, associated_decomposed(obj), sigma, cores, a.base) == d.data
    for mu in _pairs(a.n):
        key = _merged((a.n, mu))
        maker, fresh = DecompositionBuilder(a, strategy), DecompositionBuilder(a, strategy)
        fresh.seed(key, maker.decomposition(key))
        assert fresh.cache.tops == {entry: top for entry, top in maker.cache.tops.items()
                                    if entry[1] == a.canonical_chart(entry[2])}, mu


@settings(TOPS, max_examples=12)
@given(n4_atlases_with_a_zero_slot())
def test_seeded_tops_rebuild_the_decomposition(presentation):
    for strategy in STRATEGIES:
        assert_seeded_tops_rebuild(presentation, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_seeded_tops_rebuild_the_n5_unit_decomposition(strategy):
    assert_seeded_tops_rebuild(twisted_instance(9, n=5, max_dim=1, n_points=1, n_charts=2),
                               strategy)


@TOPS
@given(atlases(), st.sampled_from(STRATEGIES))
def test_table_builder_agrees_with_the_recursive_one(presentation, strategy):
    assert_builders_agree(presentation, strategy)


@TOPS
@given(atlases(), st.sampled_from(STRATEGIES))
def test_canonical_components_are_splitting_tops(presentation, strategy):
    assert_components_are_tops(presentation, strategy)


@TOPS
@given(atlases())
def test_least_chart_decomposition_is_the_identity_in_canonical_charts(presentation):
    assert_least_chart_is_identity(presentation)


def test_a_zero_dimensional_slot_keeps_both_facts():
    a = zero_slot_atlas()
    assert_least_chart_is_identity(a)
    for strategy in STRATEGIES:
        assert_components_are_tops(a, strategy)
        assert_builders_agree(a, strategy)
