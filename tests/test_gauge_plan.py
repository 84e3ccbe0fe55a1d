"""Per-n cube plans and sparse composition against the dense oracles."""

import math
import os
import random
import subprocess
import sys

from gauge_oracle import dense_compose, dense_evaluate, dense_invert
from helpers import block_unions, random_morphism_gauge, random_vectors
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_acceptance import corpus

from mvb.cubecat import (
    Partition,
    ambient_positions,
    coarsen,
    cube_plan,
    full_set,
    nonempty_subsets,
    partitions,
    subsets,
)
from mvb import exactlin
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment, Gauge, identity_gauge
from mvb.rand import (
    random_dims,
    random_gauge,
    random_tensor,
)

SMALL = settings(max_examples=30, derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def thinned(rng, gauge, mode):
    """``gauge`` unchanged ("dense"), with every nonlinear component zeroed
    ("linear"), or with each nonlinear component zeroed by a coin flip
    ("sparse")."""
    if mode == "dense":
        return gauge
    kept = {key: tensor for key, tensor in gauge.components.items()
            if len(key[1]) == 1 or (mode == "sparse" and rng.random() < 0.5)}
    return Gauge(gauge.source_dims, gauge.target_dims, kept)


def test_corpus_transitions_match_dense_oracle():
    pairs = 0
    for name, fixture in corpus():
        rng = random.Random(name)
        for p in fixture.base:
            at_p = [g for (_, _, q), g in sorted(fixture.transitions.items()) if q == p]
            for g in at_p:
                assert g.invert() == dense_invert(g), name
                v = random_vectors(rng, g.source_dims)
                assert g.evaluate(v) == dense_evaluate(g, v), name
                for f in at_p:
                    assert g.compose(f) == dense_compose(g, f), name
                    pairs += 1
    assert pairs > 300


@SMALL
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4), max_dim=st.integers(0, 2),
       mode_f=st.sampled_from(["dense", "linear", "sparse"]),
       mode_g=st.sampled_from(["dense", "linear", "sparse"]))
def test_random_gauges_match_dense_oracle(seed, n, max_dim, mode_f, mode_g):
    rng = random.Random(seed)
    d0 = random_dims(rng, n, max_dim=max_dim)
    d1 = random_dims(rng, n, max_dim=max_dim)
    f = thinned(rng, random_morphism_gauge(rng, d0, d1), mode_f)
    g = thinned(rng, random_gauge(rng, d1), mode_g)
    assert g.compose(f) == dense_compose(g, f)
    assert g.invert() == dense_invert(g)
    v = random_vectors(rng, d0)
    assert f.evaluate(v) == dense_evaluate(f, v)
    assert g.is_block_diagonal() == all(
        tensor.is_zero() for (_, rho), tensor in g.components.items() if len(rho) > 1)


@SMALL
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3), max_dim=st.integers(0, 2))
def test_composites_as_inputs_match_dense_oracle(seed, n, max_dim):
    """Gauges whose components were made in integer form, by composition
    and inversion, compose and invert as the oracle does."""
    rng = random.Random(seed)
    d = random_dims(rng, n, max_dim=max_dim)
    a, b = random_gauge(rng, d), random_gauge(rng, d)
    f = b.invert()
    g = a.compose(f)
    assert g.compose(f) == dense_compose(g, f)
    assert hash(g.compose(f)) == hash(dense_compose(g, f))
    assert g.invert() == dense_invert(g)
    assert dense_compose(g, g.invert()) == identity_gauge(d) == g.compose(g.invert())


def test_plan_keys_and_terms_follow_coarsening():
    for n in range(7):
        plan = cube_plan(n)
        expected = [(s, rho) for s in nonempty_subsets(full_set(n)) for rho in partitions(s)]
        assert list(plan.keys) == expected
        assert all(plan.index[key] == i for i, key in enumerate(plan.keys))
        assert [tuple(sum(1 << (i - 1) for i in b) for b in rho) for _, rho in expected] \
            == list(plan.masks)
        assert all(plan.mask_index[parts] == i for i, parts in enumerate(plan.masks))
        assert list(plan.singletons) == [i for i, (s, rho) in enumerate(expected)
                                         if len(rho) == len(s)]
        if n:
            assert plan.keys[plan.top] == (full_set(n), Partition([[i] for i in full_set(n)]))
        for (subset, rho), terms in zip(plan.keys, plan.terms):
            groupings = partitions(full_set(len(rho)))
            assert len(terms) == len(groupings)
            for (outer, inners, slot_groups), grouping in zip(terms, groupings):
                assert plan.keys[outer] == (subset, coarsen(rho, grouping))
                assert [list(g) for g in slot_groups] == [[p - 1 for p in grp]
                                                          for grp in grouping]
                for inner, group in zip(inners, slot_groups):
                    blocks = Partition([rho[pos] for pos in group])
                    assert plan.keys[inner] == (blocks.ground, blocks)
    assert cube_plan(3) is cube_plan(3)


def test_ambient_positions_match_the_key_built_oracle():
    """For every partition of every nonempty subset of {1..n}, n <= 6, each
    key of the blocks' cube stands for the ambient key whose sets are the
    unions of the blocks it names."""
    for n in range(1, 7):
        index = cube_plan(n).index
        for ambient in nonempty_subsets(full_set(n)):
            for blocks in partitions(ambient):
                unions = block_unions(blocks)
                expected = tuple(
                    index[(unions[nu], Partition([unions[part] for part in sigma]))]
                    for nu, sigma in cube_plan(len(blocks)).keys)
                assert ambient_positions((n, blocks)) == expected, (n, blocks)


def test_memoized_enumerations_hand_out_copies():
    ground = full_set(3)
    for enumerate_ in (partitions, subsets, nonempty_subsets):
        first = enumerate_(ground)
        expected = list(first)
        first.reverse()
        first.append("junk")
        assert enumerate_(ground) == expected
        assert enumerate_(ground) is not enumerate_(ground)
    assert len(partitions(ground)) == 5 and len(subsets(ground)) == 8


def test_plans_are_built_on_first_use_not_at_import():
    code = ("import mvb, mvb.cli, mvb.cubecat as c; "
            "before = len(c.cube_plan.memo); "
            "c.cube_plan(2); print(before, len(c.cube_plan.memo))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["0", "1"]


def test_gather_programs_grow_with_their_shape_not_its_square():
    """Gauges on n = 3 whose one multi-block component is the all-singleton
    top, on singleton dims 6, with one-block parts twice the identity:
    the top's all-singleton term has 216 outer and 216 composite input
    indices.  Each kept gather
    program holds one offset per inner tensor and outer input index and
    one row of k + 1 indices per composite input index, never one per
    pair of them, and the memo keeps at most 4096 programs; the
    composites stay exact."""
    plan = cube_plan(3)
    top = plan.index[(full_set(3), Partition([[1], [2], [3]]))]
    dims = DimAssignment(3, {s: 6 if len(s) == 1 else 2 for s in nonempty_subsets(full_set(3))})
    rng = random.Random(7)

    def gauge():
        tensors = [MultiTensor.identity(out).scaled(2) if len(ins) == 1 else None
                   for out, ins in dims.shapes]
        tensors[top] = random_tensor(rng, *dims.shapes[top])
        return Gauge.from_tensors(dims, dims, tensors)

    g, f = gauge(), gauge()
    assert g.compose(f).tensors[top] == g.tensors[top].scaled(8).plus(f.tensors[top].scaled(2))
    assert g.compose(g.invert()).is_identity()
    memo = exactlin._program.memo
    assert ((6, 6, 6), ((0,), (1,), (2,)), (6, 6, 6)) in memo
    assert 0 < len(memo) <= 4096
    for (outer_in, groups, total_in), (sizes, offsets, rows) in memo.items():
        k = len(groups)
        assert len(sizes) == k
        assert len(offsets) == math.prod(outer_in) and {len(o) for o in offsets} <= {k}
        assert len(rows) == math.prod(total_in) and {len(r) for r in rows} <= {k + 1}
