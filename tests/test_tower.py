import pytest

from mvb.atlas import validate
from mvb.cores import partition_core
from mvb.cubecat import Partition, full_set, nonempty_subsets, partitions
from mvb.errors import InvalidInput
from mvb.rand import twisted_instance
from mvb.split import is_decomposition
from mvb.tower import (
    InfinityPresentation,
    RuleGenerator,
    StabilizingGenerator,
    decompose_infinity,
)


def stabilizing_fixture(seed=201, n=3):
    inst = twisted_instance(seed, n=n, n_points=2, n_charts=2)
    return InfinityPresentation(StabilizingGenerator(inst))


def rule_fixture(kind="conjugate"):
    gen = RuleGenerator(
        ["p", "q"],
        [("0", ("p", "q")), ("1", ("p",))],
        {"kind": "threshold", "dim": 1, "max_card": 2},
        {"kind": kind, "seed": 7},
    )
    return InfinityPresentation(gen)


def test_truncations_validate():
    x = stabilizing_fixture()
    for n in range(5):
        assert validate(x.truncate(n)).valid or n == 0
    y = rule_fixture()
    for n in range(1, 5):
        assert validate(y.truncate(n)).valid


def test_truncate_zero_is_base_only():
    x = stabilizing_fixture()
    t0 = x.truncate(0)
    assert t0.n == 0
    assert t0.base == x.generator.base


def test_stabilizing_dims_pad_with_zeros():
    x = stabilizing_fixture(n=2)
    t4 = x.truncate(4)
    inner = full_set(2)
    for s in nonempty_subsets(full_set(4)):
        if s.issubset(inner):
            assert t4.dims.dim(s) == x.generator.instance.dims.dim(s)
        else:
            assert t4.dims.dim(s) == 0


def test_truncations_are_compatible_restrictions():
    for x in (stabilizing_fixture(), rule_fixture()):
        t4 = x.truncate(4)
        t3 = x.truncate(3)
        blocks = Partition([[i] for i in full_set(3)])
        restricted = partition_core(t4, full_set(3), blocks)
        assert restricted.dims == t3.dims
        assert restricted.transitions == t3.transitions


def test_stabilized_levels_equal_beyond_level():
    x = stabilizing_fixture(n=2)
    t3, t4 = x.truncate(3), x.truncate(4)
    blocks = Partition([[i] for i in full_set(3)])
    assert partition_core(t4, full_set(3), blocks).transitions == t3.transitions


def test_tower_decomposition_identity_on_rule_identity_generator():
    y = rule_fixture(kind="identity")
    tower = decompose_infinity(y)
    for n in (1, 2, 3):
        dec = tower.level(n)
        assert is_decomposition(dec)
        assert all(g.is_identity() for g in dec.data.values())


def test_tower_levels_are_decompositions():
    x = stabilizing_fixture()
    tower = decompose_infinity(x)
    for n in (2, 3, 4):
        assert is_decomposition(tower.level(n))


def test_tower_level_independence_stabilizing():
    x = stabilizing_fixture()
    tower = decompose_infinity(x)
    assert tower.node_map_agrees(full_set(3), 3, 4)
    for node in nonempty_subsets(full_set(3)):
        assert tower.node_map_agrees(node, 3, 4)


def test_tower_level_independence_rule():
    y = rule_fixture()
    tower = decompose_infinity(y)
    assert tower.node_map_agrees(full_set(3), 3, 4)


def test_tower_restriction_squares_commute():
    # the level-(n+1) decomposition restricted along the inclusion equals
    # the level-n decomposition, componentwise
    x = stabilizing_fixture()
    tower = decompose_infinity(x)
    d3, d4 = tower.level(3), tower.level(4)
    for key, g3 in d3.data.items():
        g4 = d4.data[key]
        for subset in nonempty_subsets(full_set(3)):
            for rho in partitions(subset):
                assert g3.components[(subset, rho)] == g4.components[(subset, rho)]


def test_negative_truncation_rejected():
    x = stabilizing_fixture()
    with pytest.raises(InvalidInput):
        x.truncate(-1)


def test_tower_levels_share_one_cache():
    tower = decompose_infinity(stabilizing_fixture())
    tower.level(2)
    cache = tower.cache
    level2 = {name: dict(getattr(cache, name))
              for name in ("objects", "splittings", "decompositions")}
    tower.level(3)
    for name, entries in level2.items():
        grown = getattr(cache, name)
        assert len(grown) > len(entries)
        for key, entry in entries.items():
            assert grown[key] is entry, (name, key)
