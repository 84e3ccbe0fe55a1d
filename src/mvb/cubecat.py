"""Index combinatorics for cube categories.

Finite subsets of the positive integers serve as cube-category objects,
set partitions index the multilinear components of chart changes, and
a partition of a node names the core over the cube of its blocks.

The enumerations depend on the index set alone, so ``subsets`` and
``partitions`` compute each answer once and hand out copies.
``cube_plan(n)`` goes one step further for the cube over {1..n}: it
lists every (S, rho) component key once and, on first use, the terms of
the chart-change composition sum of every key (see ``gauge``).

``IndexSet`` and ``Partition`` are the public key types, built once per
plan.  Inside a plan a set is an int bitmask (bit i - 1 for i) and a
partition the tuple of its block masks ordered by lowest bit, the
canonical order; terms and ambient positions take one OR per union and
one dict lookup per key.

A partition of an ambient node into k blocks reindexes a core onto the
k-cube, axis i standing for the i-th block.  ``ambient_positions`` is
that one map, from each key of the k-cube plan to the position of the
ambient key it stands for: every translation between a core and its
ambient cube (gauge restriction, the core a decomposition component
names, comparing two cores) reads it or inverts it.  Core
dimensions read the same block unions at the one-block keys alone.
"""

from .errors import InvalidPartition


def _memoized(limit):
    """Remember the answers of a one-argument function of index data.

    At most ``limit`` answers are kept; the memo is emptied when full.
    Answers must be immutable, since every caller shares them.  The memo
    dict is exposed as the function's ``memo`` attribute.
    """
    def decorate(fn):
        memo = {}

        def memoized(arg):
            try:
                return memo[arg]
            except KeyError:
                pass
            if len(memo) >= limit:
                memo.clear()
            answer = memo[arg] = fn(arg)
            return answer
        memoized.__doc__ = fn.__doc__
        memoized.memo = memo
        return memoized
    return decorate


class IndexSet(tuple):
    """A finite subset of {1, 2, ...}, stored as a strictly increasing tuple."""

    def __new__(cls, elements=()):
        if type(elements) is cls:
            return elements
        elems = tuple(sorted(set(elements)))
        for i in elems:
            if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                raise InvalidPartition("index sets hold positive integers, got %r" % (i,))
        return super().__new__(cls, elems)

    def union(self, other):
        return IndexSet(tuple(self) + tuple(other))

    def difference(self, other):
        other = set(other)
        return IndexSet(i for i in self if i not in other)

    def issubset(self, other):
        return set(self) <= set(other)

    def isdisjoint(self, other):
        return set(self).isdisjoint(other)

    def __repr__(self):
        return "IndexSet(%s)" % (list(self),)


@_memoized(64)
def full_set(n):
    """The set {1, ..., n}."""
    return IndexSet(range(1, n + 1))


class Partition(tuple):
    """A set partition: disjoint nonempty IndexSets in canonical order.

    Canonical order sorts blocks by their minimum element; two partitions
    of the same ground set are equal iff they are equal as tuples.
    """

    def __new__(cls, blocks):
        if type(blocks) is cls:
            return blocks
        blocks = tuple(IndexSet(b) for b in blocks)
        if any(len(b) == 0 for b in blocks):
            raise InvalidPartition("empty block")
        seen = set()
        for b in blocks:
            for i in b:
                if i in seen:
                    raise InvalidPartition("blocks overlap at %d" % i)
                seen.add(i)
        return super().__new__(cls, sorted(blocks, key=lambda b: b[0]))

    @property
    def ground(self):
        return IndexSet(i for b in self for i in b)

    def __repr__(self):
        return "Partition(%s)" % ([list(b) for b in self],)


def subsets(index_set):
    """All subsets of an IndexSet, ordered by cardinality then lexicographically."""
    return list(_subsets(IndexSet(index_set)))


def nonempty_subsets(index_set):
    return list(_subsets(IndexSet(index_set))[1:])


def partitions(index_set):
    """All set partitions of a nonempty IndexSet.

    Blocks of each partition are in canonical order; the list itself is
    ordered by block count, then lexicographically on the block tuples,
    so serialized output is reproducible.
    """
    index_set = IndexSet(index_set)
    if len(index_set) == 0:
        raise InvalidPartition("partitions of the empty set are not enumerated")
    return list(_partitions(index_set))


# Enough entries for every subset of a 10-cube.
@_memoized(1024)
def _subsets(index_set):
    out = [IndexSet()]
    for i in index_set:
        out.extend(s.union([i]) for s in list(out))
    out.sort(key=lambda s: (len(s), tuple(s)))
    return tuple(out)


@_memoized(1024)
def _partitions(index_set):
    def _gen(elems):
        if not elems:
            yield []
            return
        rest, last = elems[:-1], elems[-1]
        for smaller in _gen(rest):
            for k in range(len(smaller)):
                yield smaller[:k] + [smaller[k] + [last]] + smaller[k + 1:]
            yield smaller + [[last]]

    out = [Partition(blocks) for blocks in _gen(list(index_set))]
    out.sort(key=lambda p: (len(p), tuple(tuple(b) for b in p)))
    return tuple(out)


class CubePlan:
    """The component keys of the cube over {1..n} and their composition terms.

    ``keys`` lists every (S, rho), S a nonempty subset of {1..n} and rho
    a partition of S, in the order gauges store their components;
    ``index`` maps each key to its position, and ``mask_index`` each
    key's block masks (``masks``).  ``top`` is the position of the last
    key, {1..n} cut into singletons; ``singletons`` and ``one_block``
    list the positions of every all-singleton and every (S, {S}) key.
    ``terms`` (built on first use) lists, per key, one ``(outer,
    inners, slot_groups)`` triple per grouping of rho's blocks, the
    one-group grouping first: ``outer`` is the position of (S, coarsened
    rho), ``inners`` the positions of (group union, group blocks) per
    group, and ``slot_groups`` the block positions of rho feeding each.
    """

    def __init__(self, n):
        self.n = n
        self.keys = tuple((s, rho) for s in _subsets(full_set(n))[1:]
                          for rho in _partitions(s))
        self.index = {key: i for i, key in enumerate(self.keys)}
        self.masks = tuple(tuple(_mask(b) for b in rho) for _, rho in self.keys)
        self.mask_index = {parts: i for i, parts in enumerate(self.masks)}
        self.top = len(self.keys) - 1
        self.singletons = tuple(at for at, (s, rho) in enumerate(self.keys)
                                if len(rho) == len(s))
        self.one_block = tuple(at for at, (_, rho) in enumerate(self.keys) if len(rho) == 1)
        self._terms = None

    @property
    def terms(self):
        if self._terms is None:
            self._terms = tuple(self._key_terms(parts) for parts in self.masks)
        return self._terms

    def _key_terms(self, parts):
        # groups list positions in increasing order and come by least
        # position, so blocks and unions keep the lowest-bit order
        # (disjoint masks add as they OR); each group is looked up once
        index = self.mask_index
        groups = {}
        for s in _subsets(full_set(len(parts)))[1:]:
            group = tuple(parts[i - 1] for i in s)
            groups[tuple(i - 1 for i in s)] = index[group], sum(group)
        out = []
        for slot_groups in _slot_groups(len(parts)):
            inners, merged = zip(*map(groups.__getitem__, slot_groups))
            out.append((index[merged], inners, slot_groups))
        return tuple(out)


def _mask(index_set):
    """The bitmask of an index set: bit i - 1 for each element i."""
    return sum(1 << (i - 1) for i in index_set)


@_memoized(16)
def _slot_groups(k):
    """Zero-based block positions per group, for every grouping of k blocks."""
    return tuple(tuple(tuple(pos - 1 for pos in group) for group in grouping)
                 for grouping in _partitions(full_set(k)))


@_memoized(16)
def cube_plan(n):
    """The ``CubePlan`` of {1..n}, built on first use and then shared."""
    return CubePlan(n)


@_memoized(1024)
def ambient_positions(n_and_blocks):
    """For ``(n, blocks)``: per key of the blocks' cube plan, the position
    in ``cube_plan(n)`` of the ambient key it stands for, whose sets are
    the unions of the blocks named by the key's sets."""
    n, blocks = n_and_blocks
    unions = _unions(blocks)
    # a part with a smaller least position holds the block with the
    # smaller least element, so the unions keep the canonical order
    index = cube_plan(n).mask_index
    return tuple(index[tuple(unions[part] for part in parts)]
                 for parts in cube_plan(len(blocks)).masks)


def _unions(blocks):
    """``unions[m]``: the mask of the union of the blocks at the set bits of m."""
    unions = [0]
    for bit in map(_mask, blocks):
        unions += [u | bit for u in unions]
    return unions


def coarsen(partition, grouping):
    """Merge blocks of ``partition`` according to a partition of {1..k}.

    ``grouping`` partitions the block positions 1..k (canonical order of
    ``partition``); the result has one block per group, the union of the
    grouped blocks.
    """
    partition = Partition(partition)
    grouping = Partition(grouping)
    k = len(partition)
    if grouping.ground != full_set(k):
        raise InvalidPartition(
            "grouping must partition {1..%d}, got ground %s" % (k, list(grouping.ground))
        )
    merged = []
    for group in grouping:
        union = IndexSet()
        for pos in group:
            union = union.union(partition[pos - 1])
        merged.append(union)
    return Partition(merged)


def merge_blocks(partition, positions):
    """``partition`` with its blocks at the 1-based ``positions`` merged
    into one block and the others kept: the blocks of the core of a
    ``partition``-object at those axes."""
    merged = [i for pos in positions for i in partition[pos - 1]]
    return Partition([merged] + [b for pos, b in enumerate(partition, 1)
                                 if pos not in positions])


def is_union_of_blocks(index_set, blocks):
    """True iff ``index_set`` is a union of some of the given disjoint blocks."""
    remaining = set(IndexSet(index_set))
    for block in blocks:
        if remaining >= set(block):
            remaining -= set(block)
        elif remaining & set(block):
            return False
    return not remaining
