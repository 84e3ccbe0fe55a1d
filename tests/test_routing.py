"""Decomposition assembly against the element-chain oracle.

``split.DecompositionBuilder`` reads every component of a decomposition
off a table of splitting tops, and ``split.splitting_to_decomposition``
seeds its given splitting and core decompositions into that table; the
chain oracle runs the chain construction on basis elements instead.
The recursive oracle's routing (``builder_oracle._route``), which names
the one source the chain consults per component, is checked against
the chain oracle's slot maps.
"""

import random

import pytest
from builder_oracle import _route
from chain_oracle import (
    _merged_component,
    _merged_slot_map,
    builder_chain_data,
    merged_slot_keys,
    probe_compatibility,
    splitting_to_decomposition_data,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_acceptance import corpus

from mvb.bundle import morphism_from_canonical
from mvb.cubecat import IndexSet, Partition, cube_plan, full_set, nonempty_subsets, partitions
from mvb.errors import SemanticError
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment, Gauge
from mvb.rand import random_gauge, twisted_instance
from mvb.split import (
    STRATEGIES,
    Decomposition,
    DecompositionBuilder,
    _core_positions,
    _pairs,
    check_compatibility,
    decompose,
    extract_core_decompositions,
    extract_splitting,
    is_decomposition,
    splitting_to_decomposition,
)

SMALL = settings(max_examples=25, derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def assert_routed_matches_chain(presentation, strategy):
    # every key the decomposition of the top key merges down to
    builder = DecompositionBuilder(presentation, strategy)
    for key in partitions(full_set(presentation.n)):
        assert builder_chain_data(builder, key) == builder.decomposition(key).data, key


def twist_core(presentation, cores, mu, seed):
    """Act on one core decomposition by a random non-identity
    statomorphism of its model; None when the model admits none."""
    core = cores[mu]
    rng = random.Random(seed)
    for _ in range(20):
        family = {p: random_gauge(rng, core.source.dims, statomorphism=True)
                  for p in presentation.base}
        if not all(g.is_identity() for g in family.values()):
            twisted = core.compose(morphism_from_canonical(core.source, core.source, family))
            return Decomposition(core.source, core.target, twisted.data)
    return None


def assert_same_verdict(presentation, sigma, cores):
    """The component check and the element probes accept or reject alike;
    returns the rejection message, or None."""
    try:
        probe_compatibility(presentation, sigma, cores)
        probe_error = None
    except SemanticError as err:
        probe_error = str(err)
    try:
        check_compatibility(presentation, sigma, cores)
        check_error = None
    except SemanticError as err:
        check_error = str(err)
    assert check_error == probe_error
    return check_error


@pytest.mark.parametrize("k", range(2, 7))
def test_core_keys_match_the_oracle_slot_map(k):
    # the corpus reaches k=4 only; the key maps are cheap up to k=6
    keys = cube_plan(k).keys
    singles = Partition([[i] for i in full_set(k)])
    # an ambient partition with k blocks, one of them not a singleton
    wide = Partition([[1, k + 1]] + [[i] for i in range(2, k + 1)])
    for mu in _pairs(k):
        # one shared answer per (k, mu), so no caller may write to it
        positions = _core_positions((k, mu))
        assert _core_positions((k, mu)) is positions
        with pytest.raises(TypeError):
            positions[0] = 0
        core_keys = {at: cube_plan(k - 1).keys[core_at] for at, core_at in positions.items()}
        slot_map = _merged_slot_map(singles, mu)
        assert _merged_slot_map(wide, mu) == slot_map
        routed = [at for at, key in enumerate(keys) if _route(key[1]) == mu]
        assert routed
        for at in routed:
            assert core_keys[at] == _merged_component(slot_map, *keys[at]), keys[at]
        # one ambient key per core key, and exactly the oracle's keys
        assert len(core_keys) == len(cube_plan(k - 1).keys)
        assert {keys[at] for at in core_keys} == set(merged_slot_keys(k, mu))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", [name for name, _ in corpus()])
def test_routed_matches_chain_on_corpus(name, strategy):
    presentation = dict(corpus())[name]
    assert_routed_matches_chain(presentation, strategy)


def test_statomorphism_twisted_core_routes_like_chain():
    a = twisted_instance(81, n=3, n_points=2, n_charts=2)
    d = decompose(a)
    sigma = extract_splitting(a, d)
    cores = extract_core_decompositions(d)
    mu = IndexSet([1, 2])
    cores[mu] = twist_core(a, cores, mu, 5)
    assert cores[mu] is not None
    assert_same_verdict(a, sigma, cores)
    rebuilt = splitting_to_decomposition(a, sigma, cores)
    assert is_decomposition(rebuilt)
    assert rebuilt.data != d.data
    assert rebuilt.data == splitting_to_decomposition_data(a, sigma, cores)


@pytest.mark.parametrize("seed, n, max_dim, n_points, mu", [
    (81, 3, 2, 2, (1, 2)),
    (81, 3, 2, 2, (2, 3)),
    (91, 4, 1, 1, (1, 2)),
], ids=["n3-12", "n3-23", "n4-12"])
def test_corrupted_core_rejected_like_the_probes(seed, n, max_dim, n_points, mu):
    # shift every entry of one component of one core decomposition; at
    # n=4 some components are probed only by the core-versus-core check
    a = twisted_instance(seed, n=n, max_dim=max_dim, n_points=n_points, n_charts=2)
    d = decompose(a)
    sigma = extract_splitting(a, d)
    cores = extract_core_decompositions(d)
    mu = IndexSet(mu)
    core = cores[mu]
    rejected = 0
    for key in next(iter(core.data.values())).components:
        corrupt = {}
        for location, g in core.data.items():
            comps = dict(g.components)
            t = comps[key]
            comps[key] = MultiTensor(t.out_dim, t.in_dims, [x + 1 for x in t.entries])
            corrupt[location] = Gauge(g.source_dims, g.target_dims, comps)
        cores[mu] = Decomposition(core.source, core.target, corrupt)
        rejected += assert_same_verdict(a, sigma, cores) is not None
    assert rejected


@st.composite
def small_instances(draw):
    # sampled_from shrinks towards its first entry: lead with the largest
    # shapes so the fixed example budget is not spent on n=1
    n = draw(st.sampled_from((3, 2, 1)))
    values = draw(st.lists(st.sampled_from((1, 2, 0)),
                           min_size=2 ** n - 1, max_size=2 ** n - 1))
    dims = DimAssignment(n, dict(zip(nonempty_subsets(full_set(n)), values)))
    return twisted_instance(
        draw(st.integers(0, 10 ** 6)), n=n, dims=dims,
        n_points=draw(st.sampled_from((2, 1))),
        n_charts=draw(st.sampled_from((2, 3, 1))))


@SMALL
@given(small_instances(), st.sampled_from(STRATEGIES))
def test_routed_matches_chain_on_small_instances(presentation, strategy):
    assert_routed_matches_chain(presentation, strategy)


@SMALL
@given(small_instances(), st.integers(0, 10 ** 6))
def test_twisted_cores_route_like_chain(presentation, seed):
    a = presentation
    d = decompose(a)
    sigma = extract_splitting(a, d)
    cores = extract_core_decompositions(d)
    if cores:
        pairs = sorted(cores, key=tuple)
        mu = pairs[seed % len(pairs)]
        twisted = twist_core(a, cores, mu, seed)
        if twisted is not None:
            cores[mu] = twisted
    assert_same_verdict(a, sigma, cores)
    rebuilt = splitting_to_decomposition(a, sigma, cores)
    assert is_decomposition(rebuilt)
    assert rebuilt.data == splitting_to_decomposition_data(a, sigma, cores)
