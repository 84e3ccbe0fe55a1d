"""``validate`` composes per point only the gauges that imply every claim.

Differential against ``validate_oracle``, the full scan it replaces:
seeded twisted atlases, each as is and with one fault of each kind,
give the same violations in the same order.  On a valid atlas no rank
is taken and a point held by k charts costs C(k, 2) + C(k-1, 2)
compositions; the rank scan runs once a pair fails.  The CLI reports of
faulty copies of one many-chart atlas keep their hashes.
"""

import json
import random
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import validate_oracle
from mvb import atlas, formats
from mvb.atlas import AtlasPresentation, perturb_transition, validate
from mvb.cli import run
from mvb.cubecat import cube_plan
from mvb.gauge import Gauge, identity_gauge
from mvb.rand import random_gauge, twisted_instance

SMALL = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def twist(rng, dims):
    """A non-identity statomorphism, or at n = 1, where the only one is
    the identity, a non-identity invertible gauge."""
    ident = identity_gauge(dims)
    while True:
        tau = random_gauge(rng, dims, statomorphism=dims.n > 1)
        if tau != ident:
            return tau


def replaced(a, changes):
    return AtlasPresentation(a.n, a.dims, a.base, a.charts, {**a.transitions, **changes})


def proper_keys(a):
    return [key for key in sorted(a.transitions) if key[0] != key[1]]


def zero_part(rng, a, key):
    """The transition at ``key`` with one nonzero-dim one-block part set to zero."""
    g = a.transitions[key]
    at = rng.choice([at for at, ((_, rho), (dim, _)) in
                     enumerate(zip(cube_plan(a.n).keys, a.dims.shapes))
                     if len(rho) == 1 and dim])
    tensors = list(g.tensors)
    tensors[at] = None
    return Gauge.from_tensors(a.dims, a.dims, tensors)


def failing_triple(rng, a):
    points = [p for p in a.base if len(a.charts_at(p)) >= 3]
    if not points:
        return None
    p = rng.choice(points)
    dst, src = rng.sample(sorted(a.charts_at(p)), 2)
    return perturb_transition(a, dst, src, p, twist(rng, a.dims))


def failing_pair(rng, a):
    keys = proper_keys(a)
    if not keys:
        return None
    key = rng.choice(keys)
    return replaced(a, {key: a.transitions[key].compose(twist(rng, a.dims))})


def singular_part(rng, a):
    key = rng.choice(sorted(a.transitions))
    return replaced(a, {key: zero_part(rng, a, key)})


def self_transition(rng, a):
    key = rng.choice([key for key in sorted(a.transitions) if key[0] == key[1]])
    return replaced(a, {key: twist(rng, a.dims)})


def singular_part_and_failing_pair(rng, a):
    keys = proper_keys(a)
    if len(keys) < 2:
        return None
    singular, twisted = rng.sample(keys, 2)
    return replaced(a, {singular: zero_part(rng, a, singular),
                        twisted: a.transitions[twisted].compose(twist(rng, a.dims))})


FAULTS = [failing_triple, failing_pair, singular_part, self_transition,
          singular_part_and_failing_pair]


def reports(a):
    return ([v.to_dict() for v in validate(a).violations],
            [v.to_dict() for v in validate_oracle.validate(a).violations])


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.__name__)
@SMALL
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 6), st.integers(1, 3))
def test_reports_match_the_full_scan(fault, seed, n, n_charts, n_points):
    a = twisted_instance(seed, n, max_dim=2, n_points=n_points, n_charts=n_charts)
    got, expected = reports(a)
    assert got == expected == []
    faulty = fault(random.Random(seed), a)
    assume(faulty is not None)
    got, expected = reports(faulty)
    assert got == expected
    assert got


def many_charts():
    """``mvb gen --seed 14 --n 4 --points 2 --charts 6 --max-dim 1``: p0 in
    five charts, p1 in all six."""
    return twisted_instance(14, n=4, max_dim=1, n_points=2, n_charts=6)


@pytest.fixture
def counted(monkeypatch):
    """Calls of ``rank`` from ``mvb.atlas`` and of ``Gauge.compose``."""
    calls = {"rank": 0, "compose": 0}
    rank, compose = atlas.rank, Gauge.compose

    def counted_rank(tensor):
        calls["rank"] += 1
        return rank(tensor)

    def counted_compose(self, other):
        calls["compose"] += 1
        return compose(self, other)
    monkeypatch.setattr(atlas, "rank", counted_rank)
    monkeypatch.setattr(Gauge, "compose", counted_compose)
    return calls


def test_a_valid_atlas_takes_no_rank_and_the_fewest_compositions(counted):
    a = many_charts()
    held = [len(a.charts_at(p)) for p in a.base]
    assert held == [5, 6]
    counted.update(rank=0, compose=0)
    assert validate(a).valid
    assert counted == {"rank": 0, "compose": sum(comb(k, 2) + comb(k - 1, 2) for k in held)}


def test_a_failing_pair_reaches_the_rank_scan(counted):
    a = many_charts()
    rng = random.Random(3)
    twisted = failing_pair(rng, a)
    counted.update(rank=0, compose=0)
    assert [v.kind for v in validate(twisted).violations][:1] == ["cocycle"]
    assert counted["rank"] > 0
    key = ("4", "2", "p1")
    singular = replaced(a, {key: zero_part(rng, a, key)})
    got, expected = reports(singular)
    assert got == expected
    assert {v["kind"] for v in got} == {"invertibility"}


def faulty_copies():
    """Faulty copies of ``many_charts``, one per fault kind, by fixed seeds."""
    a = many_charts()
    return {fault.__name__: fault(random.Random(seed), a)
            for seed, fault in enumerate(FAULTS)}


# report hashes of ``mvb validate`` on each copy, recorded before validate
# took the reduced checks
FAULTY_REPORT_HASHES = {
    "failing_pair": "ad52d4b13ae01dbaff20f75e267358636595436735ea82310b89b0c763abb19a",
    "failing_triple": "8ffc4fd67c2f3e4720aa1da0f230b64b13ab94139b5e59b55b7df5d07caa30d1",
    "self_transition": "ab4173c866ff43cbdb7319a554db3f5445bfd3c75f41c28c9174fdf8076216ca",
    "singular_part": "530e835e1b5e0254922387ef725a11bd039932c4ed908915966e7e8b4064b84b",
    "singular_part_and_failing_pair":
        "6e4c02cc0fc134e4df576ca4120e0f376e80b2f5536df60beff1669ae17aad40",
}


@pytest.mark.parametrize("name", sorted(FAULTY_REPORT_HASHES))
def test_faulty_copies_keep_their_report_hashes(name, tmp_path, capsys):
    path = tmp_path / (name + ".json")
    path.write_bytes(formats.dumps(faulty_copies()[name]))
    assert run(["validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["report_hash"] == FAULTY_REPORT_HASHES[name]
