"""The eager core and model builders, kept as differential oracles.

Before a derived presentation became a view, ``partition_core``
restricted every transition of its parent up front, and the vacant and
decomposed models of a presentation rebuilt every transition as a new
gauge, the decomposed one through the checked constructor.  These copies
of that code are the reference that ``tests/test_core_views.py``
compares the views against: the same dims, axis blocks and keys, and at
every key the same gauge or the same exception class and message.
"""

from mvb.atlas import AtlasPresentation
from mvb.cubecat import Partition, cube_plan
from mvb.gauge import Gauge, diagonal_dims, singleton_dims


def eager_partition_core(presentation, blocks):
    """The (blocks)-core with every transition restricted up front; a
    transition of other dims than the presentation's by its own."""
    a = presentation
    blocks = Partition(blocks)
    dims = diagonal_dims(a.dims, blocks)
    transitions = {key: g.diagonal_restrict(
        blocks, (dims, dims) if g.source_dims == a.dims == g.target_dims else None)
        for key, g in a.transitions.items()}
    return AtlasPresentation(len(blocks), dims, a.base, a.charts, transitions,
                             axis_blocks=tuple(blocks))


def eager_vacant(presentation):
    """The vacant model: every transition trimmed to the singleton dims."""
    a = presentation
    dims = singleton_dims(a.dims)
    return AtlasPresentation(a.n, dims, a.base, a.charts,
                             {key: g.trimmed(dims) for key, g in a.transitions.items()},
                             a.axis_blocks)


def eager_linear(presentation, key):
    """The decomposed model's transition at ``key``: the one-block
    components of the presentation's, through the checked constructor."""
    a = presentation
    keys = cube_plan(a.n).keys
    return Gauge(a.dims, a.dims, {k: t for k, t in zip(keys, a.transitions[key].tensors)
                                  if len(k[1]) == 1})


def eager_decomposed(presentation):
    """The decomposed model with every transition built up front."""
    a = presentation
    return AtlasPresentation(a.n, a.dims, a.base, a.charts,
                             {key: eager_linear(a, key) for key in a.transitions},
                             a.axis_blocks)
