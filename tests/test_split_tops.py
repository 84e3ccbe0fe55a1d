"""A decomposition in the canonical chart is a table of splitting tops.

Unrolled over the lattice of cores, the uniqueness of a decomposition
given a splitting and the codimension-one core decompositions says: in
each point's canonical chart, the component at plan key (T, rho) is the
top of the splitting of the core that rho names, and the identity on a
one-block rho.  Without a ``theta_top`` hook every least-chart top is
zero there, so the least-chart decomposition is the identity gauge.
Both facts are checked on the recursive builder (``builder_oracle``);
the table-backed builder, which reads every component that way, must
agree with it at every core key.
"""

from builder_oracle import RecursiveBuilder
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvb.cubecat import cube_plan, full_set, nonempty_subsets
from mvb.gauge import DimAssignment
from mvb.rand import twisted_instance
from mvb.split import STRATEGIES, DecompositionBuilder, splitting_top

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
