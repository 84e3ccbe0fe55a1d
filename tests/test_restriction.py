"""Restriction onto a partition core by plan position, against the
checked constructors and the key-built reindexing.

``Gauge.diagonal_restrict`` takes the tensors of an already checked
gauge by position and checks none of them again, and ``partition_core``
makes the restricted dimensions once per core.  These tests hold both to
what the checked paths would build: ``Gauge.from_tensors`` and
``DimAssignment`` on the same data, and the ambient component read by
key at the unions of the blocks.
"""

import json
import random

from helpers import block_unions
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_acceptance import corpus

from mvb import cli, cores, formats, gauge
from mvb.atlas import AtlasPresentation
from mvb.cores import partition_core, partition_core_morphism
from mvb.cubecat import Partition, cube_plan, full_set, nonempty_subsets, partitions
from mvb.gauge import DimAssignment, Gauge, diagonal_dims
from mvb.rand import random_dims, random_gauge, twisted_instance
from mvb.split import DecompositionBuilder, decompose, extract_splitting

SMALL = settings(max_examples=20, derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def every_core_key(n):
    """Every partition of every nonempty subset of {1..n}."""
    return [blocks for s in nonempty_subsets(full_set(n)) for blocks in partitions(s)]


def assert_restricts_as_checked(ambient_gauge, restricted, blocks):
    """``restricted`` is what the checked constructor builds of the same
    tensors, and each of its components is the ambient one read by key."""
    checked = Gauge.from_tensors(restricted.source_dims, restricted.target_dims,
                                 restricted.tensors)
    assert checked == restricted
    unions = block_unions(blocks)
    ambient = ambient_gauge.components
    for at, (nu, sigma) in enumerate(cube_plan(len(blocks)).keys):
        key = (unions[nu], Partition([unions[part] for part in sigma]))
        assert restricted.components[(nu, sigma)] == ambient[key], (nu, sigma)
        # zero slots are still None
        assert (restricted.tensors[at] is None) == ambient[key].is_zero(), (nu, sigma)


def assert_cores_restrict_as_checked(presentation):
    a = presentation
    for blocks in every_core_key(a.n):
        core = partition_core(a, blocks)
        unions = block_unions(blocks)
        assert core.dims == DimAssignment(len(blocks), {
            nu: a.dims.dim(unions[nu]) for nu in unions})
        assert core.transitions.keys() == a.transitions.keys()
        for key, g in core.transitions.items():
            assert g.source_dims is core.dims and g.target_dims is core.dims
            assert_restricts_as_checked(a.transitions[key], g, blocks)


def test_corpus_cores_restrict_as_the_checked_path():
    for _, fixture in corpus():
        assert_cores_restrict_as_checked(fixture)


@st.composite
def small_instances(draw):
    n = draw(st.sampled_from((4, 3, 2, 1)))
    dims = random_dims(random.Random(draw(st.integers(0, 10 ** 6))), n, max_dim=2)
    return twisted_instance(draw(st.integers(0, 10 ** 6)), n=n, dims=dims,
                            n_points=draw(st.sampled_from((2, 1))),
                            n_charts=draw(st.sampled_from((2, 3, 1))))


@SMALL
@given(small_instances())
def test_small_cores_restrict_as_the_checked_path(presentation):
    assert_cores_restrict_as_checked(presentation)


@SMALL
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_restricted_morphisms_restrict_as_the_checked_path(seed, n):
    # a decomposition maps equal dims; a splitting maps the vacant dims
    # to the object's
    a = twisted_instance(seed, n=n, n_points=2, n_charts=2)
    dec = decompose(a)
    for morphism in (dec, extract_splitting(a, dec)):
        for blocks in every_core_key(n):
            restricted = partition_core_morphism(morphism, blocks)
            for location, g in restricted.data.items():
                assert g.source_dims == restricted.source.dims
                assert g.target_dims == restricted.target.dims
                assert_restricts_as_checked(morphism.data[location], g, blocks)


def count_diagonal_dims(monkeypatch):
    calls = []

    def counted(dims, blocks):
        calls.append(Partition(blocks))
        return diagonal_dims(dims, blocks)
    monkeypatch.setattr(cores, "diagonal_dims", counted)
    monkeypatch.setattr(gauge, "diagonal_dims", counted)
    return calls


def test_one_diagonal_dims_per_core_not_per_transition(monkeypatch):
    a = twisted_instance(9, n=4, max_dim=1, n_points=2, n_charts=3)
    assert len(a.transitions) > 4
    calls = count_diagonal_dims(monkeypatch)
    for blocks in every_core_key(4):
        before = len(calls)
        partition_core(a, blocks)
        assert calls[before:] == [blocks]

    # the builder makes one core object per key it reads transitions of,
    # and nothing else restricts: least-chart reads the top core alone,
    # uniform-average conjugates by every core of two or more blocks
    objects = []

    def counted_core(presentation, blocks):
        objects.append(blocks)
        return partition_core(presentation, blocks)
    monkeypatch.setattr("mvb.split.partition_core", counted_core)
    top = Partition([[i] for i in full_set(4)])
    multi_block = [blocks for blocks in every_core_key(4) if len(blocks) > 1]
    for strategy, needed in (("least-chart", [top]), ("uniform-average", multi_block)):
        del calls[:], objects[:]
        builder = DecompositionBuilder(a, strategy)
        builder.decomposition(builder.top_key())
        assert sorted(objects) == sorted(calls) == sorted(needed), strategy


def atlas_with_a_transition_of_other_dims():
    """An atlas built in code whose second transition has dims of its own,
    with that transition's key and dims."""
    a = twisted_instance(31, n=3, max_dim=1, n_points=1, n_charts=2)
    other = random_dims(random.Random(5), 3, max_dim=2, min_dim=2)
    odd_key = sorted(a.transitions)[1]
    transitions = dict(a.transitions)
    transitions[odd_key] = random_gauge(random.Random(6), other)
    return AtlasPresentation(a.n, a.dims, a.base, a.charts, transitions), odd_key, other


def test_a_transition_of_other_dims_is_restricted_by_its_own():
    """An unvalidated presentation may hold a transition whose dims are not
    the presentation's; it is restricted by its own dims, as every
    transition was before the dims were made once per core."""
    b, odd_key, other = atlas_with_a_transition_of_other_dims()
    transitions = b.transitions
    blocks = Partition([[1, 3], [2]])
    core = partition_core(b, blocks)
    odd = core.transitions[odd_key]
    assert odd.source_dims == diagonal_dims(other, blocks) != core.dims
    assert_restricts_as_checked(transitions[odd_key], odd, blocks)
    for key, g in core.transitions.items():
        if key != odd_key:
            assert g.source_dims is core.dims


def test_a_wrongly_shaped_component_exits_two_naming_it(tmp_path, capsys):
    """The input path keeps its shape check: restriction skips it only for
    gauges that were checked when they were read."""
    body = formats.atlas_to_json(twisted_instance(11, n=3, max_dim=1, n_points=1,
                                                  n_charts=2))
    component = next(c for c in body["transitions"][1]["gauge"]["components"]
                     if c["blocks"] == [[1], [2]])
    component["tensor"] = {"entries": ["1", "2"], "in_dims": [1, 1], "out_dim": 2}
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(body))
    for argv in (["decompose", str(path)], ["core", str(path), "--s", "1,2,3", "--j", "1,2"]):
        code = cli.run(argv)
        err = capsys.readouterr().err
        assert code == 2, (argv, err)
        assert "component at ([1, 2], [[1], [2]]) has shape 2x[1, 1], expected 1x[1, 1]" \
            in err, (argv, err)


def test_a_transition_of_other_dims_in_a_file_exits_two_naming_it(tmp_path, capsys):
    """Read from a file, the same atlas is an input error of every command,
    raised by the reader and naming the transition, not a validation
    failure, a length error deep in a certificate, or a silent pass."""
    b, odd_key, _ = atlas_with_a_transition_of_other_dims()
    assert odd_key == ("0", "1", "p0")
    path = tmp_path / "other-dims.json"
    path.write_text(json.dumps(formats.atlas_to_json(b)))
    for argv in (["validate"], ["core", "--s", "1,2,3", "--j", "1,2"], ["pullback"],
                 ["face", "--outer", "1,2"]):
        code = cli.run(argv[:1] + [str(path)] + argv[1:])
        err = capsys.readouterr().err
        assert code == 2, (argv, err)
        assert "transition 0<-1 at p0: gauge dims differ from the atlas dims" in err, \
            (argv, err)
