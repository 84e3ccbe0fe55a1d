"""Component paste of splittings against the element-level oracle."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from paste_oracle import paste_splitting_data
from test_acceptance import corpus
from test_routing import SMALL, small_instances

from mvb.cubecat import cube_plan, full_set
from mvb.rand import twisted_instance
from mvb.split import STRATEGIES, DecompositionBuilder, find_splitting, is_splitting


def assert_paste_matches_oracle(presentation, strategy, theta_top=None):
    # every core key: each face of each core, and each core of each face
    builder = DecompositionBuilder(presentation, strategy, theta_top=theta_top)
    for _, key in cube_plan(presentation.n).keys:
        assert paste_splitting_data(builder, key) == builder.splitting(key).data, key


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_paste_matches_oracle_on_corpus(name, strategy):
    assert_paste_matches_oracle(dict(corpus())[name], strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("n_charts", [2, 3])
def test_paste_matches_oracle_with_theta_top(n_charts, strategy):
    # the hook of test_frame_interpolation_repairs_nonlinear_right_inverse,
    # scaled per chart: linear in the first slot, quadratic in the second
    a = twisted_instance(75, n=2, n_points=2, n_charts=n_charts)
    d_top = a.dims.dim(full_set(2))

    def theta(chart, point, args):
        acc = Fraction(0)
        for x in args[0]:
            for y in args[1]:
                acc += x * y * y
        return tuple(acc * (i + len(chart)) for i in range(d_top))

    sigma = find_splitting(a, strategy, theta_top=theta)
    assert is_splitting(sigma)
    assert sigma.data != find_splitting(a, strategy).data
    assert_paste_matches_oracle(a, strategy, theta_top=theta)


@SMALL
@given(small_instances(), st.sampled_from(STRATEGIES))
def test_paste_matches_oracle_on_small_instances(presentation, strategy):
    assert_paste_matches_oracle(presentation, strategy)
