"""A face is a core: ``cores.face`` against the entry-by-entry face
builder kept in ``core_oracle``.

With ``inner`` empty a face is the core of the singletons of ``outer``;
with ``inner`` nonempty its components are copied from the ambient ones
by plan position.  Both must give the oracle's presentation on every
pair ``inner <= outer``, the empty set and ``outer == inner`` included.
"""

from core_oracle import face as oracle_face
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_restriction import atlas_with_a_transition_of_other_dims

from mvb import formats
from mvb.atlas import AtlasPresentation
from mvb.cores import face
from mvb.cubecat import full_set, subsets
from mvb.rand import twisted_instance


def every_face(n):
    """Every ``(outer, inner)`` with ``inner <= outer <= {1..n}``."""
    return [(outer, inner) for outer in subsets(full_set(n)) for inner in subsets(outer)]


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), n=st.integers(1, 4))
def test_every_face_matches_the_oracle(seed, n):
    a = twisted_instance(seed, n, max_dim=2, n_points=2, n_charts=2)
    for outer, inner in every_face(n):
        got, want = face(a, outer, inner), oracle_face(a, outer, inner)
        assert got.axis_blocks == want.axis_blocks, (outer, inner)
        assert formats.to_text(got) == formats.to_text(want), (outer, inner)


def test_a_transition_of_other_dims_is_grouped_by_its_own():
    """An unvalidated atlas may hold a transition whose dims are not the
    atlas dims; its face is the face of that transition alone, over its
    own dims, not one cut down to the atlas dims."""
    b, odd_key, other = atlas_with_a_transition_of_other_dims()
    alone = AtlasPresentation(b.n, other, b.base, b.charts, {odd_key: b.transitions[odd_key]})
    for outer, inner in every_face(b.n):
        got = face(b, outer, inner).transitions
        assert got[odd_key] == oracle_face(alone, outer, inner).transitions[odd_key], \
            (outer, inner)
        want = oracle_face(b, outer, inner).transitions
        assert all(got[key] == want[key] for key in b.transitions if key != odd_key)
