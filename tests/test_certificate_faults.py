"""Each failure branch of the ``cores`` certificates fires on its fault.

One fault is injected per test, into the construction the certificate
checks or into the exact linear algebra it reads, and the certificate
must fail with that branch's counterexample.
"""

import itertools
import random

from mvb import cores
from mvb.cubecat import IndexSet, full_set
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment
from mvb.rand import random_element, twisted_instance


def fixture():
    a = twisted_instance(64, n=3, n_points=2, n_charts=2)
    return a, {"chart": a.charts[0].id, "point": a.charts[0].domain[0]}


def ultracore_failure(a):
    _, _, cert = cores.ultracore_sequence(a, 1)
    assert not cert.passed
    return cert.counterexample


def test_core_by_stages_names_a_different_stage_two_core(monkeypatch):
    """The second stage takes the core at the first merged axis alone."""
    a, _ = fixture()
    assert cores.core_by_stages(a, [1, 2, 3], [1, 2], [1]).passed
    core = cores.core

    def faulty(presentation, ambient, inner, check=True):
        if presentation.axis_blocks is not None:  # only the stage-1 core has them
            inner = IndexSet(inner[:1])
        return core(presentation, ambient, inner, check)
    monkeypatch.setattr(cores, "core", faulty)
    cert = cores.core_by_stages(a, [1, 2, 3], [1, 2], [1])
    assert not cert.passed
    assert cert.counterexample == {"ambient": [1, 2, 3], "inner": [1, 2], "first": [1]}


def test_core_by_stages_names_a_flipped_membership(monkeypatch):
    """Direct membership in the (S, J)-core is negated: the first sample,
    drawn as the certificate draws it, is named."""
    a, _ = fixture()
    ambient, inner = full_set(3), IndexSet([1, 2])
    first = random_element(random.Random(2024), a, node=ambient)
    member = cores.is_core_member(a, first, inner)
    is_core_member = cores.is_core_member
    monkeypatch.setattr(cores, "is_core_member", lambda presentation, elem, j: (
        is_core_member(presentation, elem, j) != (IndexSet(j) == inner)))
    cert = cores.core_by_stages(a, ambient, inner, [1])
    assert not cert.passed
    assert cert.counterexample == {"point": first.point, "chart": first.chart,
                                   "direct": not member, "staged": member}


def test_pullback_names_a_rank_off_by_one(monkeypatch):
    a, at = fixture()
    rank = cores.rank
    monkeypatch.setattr(cores, "rank", lambda m: rank(m) - 1)
    cert = cores.pullback(a).certificate
    assert not cert.passed
    assert cert.counterexample == dict(at, axis=1)


def test_ultracore_names_an_inclusion_rank_off_by_one(monkeypatch):
    a, at = fixture()
    rank = cores.rank
    monkeypatch.setattr(cores, "rank", lambda m: rank(m) - 1)
    assert ultracore_failure(a) == dict(at, reason="inclusion not injective")


def test_ultracore_names_a_projection_rank_off_by_one(monkeypatch):
    """Each base element's ranks are read inclusion first: only the
    projection's is off."""
    a, at = fixture()
    rank, calls = cores.rank, itertools.count()
    monkeypatch.setattr(cores, "rank", lambda m: rank(m) - next(calls) % 2)
    assert ultracore_failure(a) == dict(at, reason="projection not surjective")


def test_ultracore_names_a_nonzero_composite(monkeypatch):
    a, at = fixture()
    monkeypatch.setattr(cores, "compose_tensors",
                        lambda *args: MultiTensor.from_integers(1, (1,), [1], 1))
    assert ultracore_failure(a) == dict(at, reason="image not inside kernel")


def test_ultracore_names_a_short_kernel_basis(monkeypatch):
    a, at = fixture()
    d_ultra = a.dims.dim(full_set(3))
    kernel_basis = cores.kernel_basis
    monkeypatch.setattr(cores, "kernel_basis", lambda m: kernel_basis(m)[:-1])
    assert ultracore_failure(a) == dict(
        at, reason="kernel dimension %d != ultracore %d" % (d_ultra - 1, d_ultra))


def test_ultracore_names_a_wrong_node_dim(monkeypatch):
    """The total node dimension of the bundle itself is one too large."""
    a, _ = fixture()
    top = full_set(3)
    total, d_ultra = a.dims.node_dim(top), a.dims.dim(top)
    node_dim = DimAssignment.node_dim
    monkeypatch.setattr(DimAssignment, "node_dim",
                        lambda dims, node: node_dim(dims, node) + (dims is a.dims))
    assert ultracore_failure(a) == {"reason": "dimension identity %d != %d + %d" % (
        total + 1, d_ultra, total - d_ultra)}


def test_ultracore_names_an_order_dependent_inclusion(monkeypatch):
    """Every ordering but the first returns the core element alone."""
    a, _ = fixture()
    include = cores.include_by_nested_sums

    def faulty(presentation, axis, core_elem, side_elem, ordering):
        if ordering == sorted(ordering):
            return include(presentation, axis, core_elem, side_elem, ordering)
        return core_elem
    monkeypatch.setattr(cores, "include_by_nested_sums", faulty)
    assert ultracore_failure(a) == {"reason": "ordering dependence in the inclusion"}


def test_the_faults_leave_the_fixture_certified():
    a, _ = fixture()
    assert cores.core_by_stages(a, full_set(3), [1, 2], [1]).passed
    assert cores.pullback(a).certificate.passed
    assert cores.ultracore_sequence(a, 1)[2].passed
