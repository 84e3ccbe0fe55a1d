import re

import pytest

from mvb.atlas import validate
from mvb.cores import partition_core
from mvb.cubecat import Partition, full_set, nonempty_subsets, partitions
from mvb.errors import InvalidInput, SchemaError
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
        restricted = partition_core(t4, blocks)
        assert restricted.dims == t3.dims
        assert restricted.transitions == t3.transitions


def test_stabilized_levels_equal_beyond_level():
    x = stabilizing_fixture(n=2)
    t3, t4 = x.truncate(3), x.truncate(4)
    blocks = Partition([[i] for i in full_set(3)])
    assert partition_core(t4, blocks).transitions == t3.transitions


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


@pytest.mark.parametrize("field, value", [
    ("dim", 1.5), ("dim", True), ("dim", -1), ("dim", None),
    ("max_card", True), ("max_card", 1.5), ("max_card", -1), ("max_card", "2")])
def test_rule_generator_checks_its_dim_rule_fields(field, value):
    """A library caller gets the error the JSON reader reports, naming
    the field; nothing is coerced with ``int()``."""
    dim_rule = {"kind": "threshold", "dim": 1, "max_card": 2}
    dim_rule[field] = value
    with pytest.raises(SchemaError, match="rule generator dim_rule: %s must be a"
                       " nonnegative integer, got %r" % (field, value)):
        RuleGenerator(["p"], [("0", ("p",))], dim_rule, {"kind": "conjugate", "seed": 3})


@pytest.mark.parametrize("seed", ["5", 5.0, None, True, [5]])
def test_rule_generator_checks_its_seed(seed):
    """A seed is an integer: "5" and 5.0 used to hash as the seed 5, and
    null, true and [5] were taken as other seeds."""
    with pytest.raises(SchemaError, match=re.escape(
            "rule generator transition_rule: seed must be an integer, got %r" % (seed,))):
        RuleGenerator(["p"], [("0", ("p",))], {"kind": "threshold", "dim": 1, "max_card": 2},
                      {"kind": "conjugate", "seed": seed})


def test_rule_generator_reads_an_absent_seed_as_zero():
    gens = [RuleGenerator(["p"], [("0", ("p",)), ("1", ("p",))],
                          {"kind": "threshold", "dim": 1, "max_card": 2}, rule)
            for rule in ({"kind": "conjugate"}, {"kind": "conjugate", "seed": 0})]
    a, b = (InfinityPresentation(gen).truncate(2) for gen in gens)
    assert a.transitions == b.transitions


@pytest.mark.parametrize("rule, kind, allowed", [
    ("dim_rule", "linear", "'threshold'"),
    ("transition_rule", "shear", "'identity' or 'conjugate'")])
def test_rule_generator_names_the_field_of_an_unknown_kind(rule, kind, allowed):
    rules = {"dim_rule": {"kind": "threshold", "dim": 1, "max_card": 2},
             "transition_rule": {"kind": "conjugate", "seed": 3}}
    rules[rule]["kind"] = kind
    with pytest.raises(SchemaError, match=re.escape(
            "rule generator %s: kind must be %s, got %r" % (rule, allowed, kind))):
        RuleGenerator(["p"], [("0", ("p",))], **rules)


@pytest.mark.parametrize("rule", ["dim_rule", "transition_rule"])
def test_rule_generator_names_a_field_it_does_not_know(rule):
    """Both rules keep exactly their own fields: an extra ``dim_rule``
    field used to be dropped without a word, and an extra
    ``transition_rule`` field kept and written back."""
    rules = {"dim_rule": {"kind": "threshold", "dim": 1, "max_card": 2},
             "transition_rule": {"kind": "conjugate", "seed": 3}}
    rules[rule]["extra"] = 5
    with pytest.raises(SchemaError, match=re.escape(
            "rule generator %s: unknown field 'extra'" % rule)):
        RuleGenerator(["p"], [("0", ("p",))], **rules)
