import itertools

import pytest

from mvb.cubecat import (
    IndexSet,
    Partition,
    coarsen,
    full_set,
    is_union_of_blocks,
    merge_blocks,
    nonempty_subsets,
    partitions,
    subsets,
)
from mvb.errors import InvalidPartition


def brute_force_partitions(elements):
    """Independent enumerator: all ways to assign elements to block labels."""
    elements = sorted(elements)
    if not elements:
        return []
    seen = set()
    for labels in itertools.product(range(len(elements)), repeat=len(elements)):
        blocks = {}
        for e, l in zip(elements, labels):
            blocks.setdefault(l, []).append(e)
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks.values()))
        seen.add(canon)
    return seen


def test_index_set_sorted_dedup():
    assert tuple(IndexSet([3, 1, 2, 1])) == (1, 2, 3)
    assert IndexSet() == ()


def test_index_set_rejects_bad_elements():
    with pytest.raises(InvalidPartition):
        IndexSet([0])
    with pytest.raises(InvalidPartition):
        IndexSet([-1, 2])


def test_subsets_power_set_of_pair():
    out = subsets(IndexSet([1, 2]))
    assert out == [IndexSet(), IndexSet([1]), IndexSet([2]), IndexSet([1, 2])]


def test_subsets_empty_ground():
    assert subsets(IndexSet()) == [IndexSet()]


def test_subsets_count_eight():
    assert len(subsets(IndexSet([1, 2, 3]))) == 8


def test_subsets_order_by_cardinality_then_lex():
    out = subsets(IndexSet([1, 2, 3]))
    keys = [(len(s), tuple(s)) for s in out]
    assert keys == sorted(keys)


def test_partition_canonical_order():
    p = Partition([[4], [1, 3], [2]])
    assert [list(b) for b in p] == [[1, 3], [2], [4]]
    assert p.ground == IndexSet([1, 2, 3, 4])


def test_partition_overlap_rejected():
    with pytest.raises(InvalidPartition):
        Partition([[1, 2], [2, 3]])


def test_partitions_singleton():
    assert partitions(IndexSet([1])) == [Partition([[1]])]


def test_partitions_counts_match_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for size, expected in bell.items():
        ground = full_set(size)
        got = partitions(ground)
        assert len(got) == expected
        assert len(set(got)) == expected
        if size <= 4:
            assert {tuple(tuple(b) for b in p) for p in got} == brute_force_partitions(ground)


def test_partitions_empty_ground_rejected():
    with pytest.raises(InvalidPartition):
        partitions(IndexSet())


def test_coarsen_direct_union():
    rho = Partition([[1], [2], [3]])
    assert coarsen(rho, Partition([[1, 2], [3]])) == Partition([[1, 2], [3]])
    assert coarsen(Partition([[1], [2]]), Partition([[1, 2]])) == Partition([[1, 2]])
    assert coarsen(Partition([[1, 3], [2]]), Partition([[1, 2]])) == Partition([[1, 2, 3]])


def test_coarsen_identity_and_collapse():
    for ground in [IndexSet([1, 2, 3]), IndexSet([2, 5, 7, 9])]:
        for rho in partitions(ground):
            k = len(rho)
            discrete = Partition([[i] for i in range(1, k + 1)])
            assert coarsen(rho, discrete) == rho
            one_block = Partition([list(range(1, k + 1))])
            assert coarsen(rho, one_block) == Partition([ground])


def test_coarsen_bad_grouping():
    with pytest.raises(InvalidPartition):
        coarsen(Partition([[1], [2]]), Partition([[1, 3]]))


def test_merge_blocks_equals_coarsen():
    # coarsen is the oracle: merging the blocks at some positions is
    # coarsening by that group plus the singletons of the other positions
    for k in range(1, 6):
        for rho in partitions(full_set(k)):
            positions = full_set(len(rho))
            for merged in nonempty_subsets(positions):
                grouping = Partition([merged] + [[pos] for pos in positions.difference(merged)])
                assert merge_blocks(rho, merged) == coarsen(rho, grouping), (rho, merged)


def test_is_union_of_blocks():
    blocks = Partition([[1, 2], [3]])
    assert is_union_of_blocks(IndexSet([1, 2]), blocks)
    assert is_union_of_blocks(IndexSet([1, 2, 3]), blocks)
    assert is_union_of_blocks(IndexSet(), blocks)
    assert not is_union_of_blocks(IndexSet([1]), blocks)
    assert not is_union_of_blocks(IndexSet([1, 3]), blocks)
