"""The section calculus on the tensor kernels against its element and
unit-vector forms.

``sections`` builds frame splittings, hat slopes, free-part lifts and
the triple-bundle assembly by stacking and contracting tensors, and
``exactlin.contract_slots`` is one composition.  The oracles are
``section_oracle`` and the loop form ``tensor_oracle.contract_slot``,
applied once per fixed slot.
Instances have every fiber dimension in 0..2, so empty stacks occur.
"""

import random
from fractions import Fraction

import pytest
import section_oracle
import tensor_oracle
from hypothesis import example, given
from hypothesis import strategies as st
from test_gauge_plan import SMALL

from mvb import formats
from mvb.errors import DimensionMismatch
from mvb.exactlin import MultiTensor, contract_slots
from mvb.gauge import DimAssignment
from mvb.rand import random_dims, random_element, twisted_instance
from mvb.sections import (
    S1, S2, S3, S12, S13, S23, S123,
    BaseSection,
    HorizontalLift,
    _stack,
    decomposition_to_lift,
    hat_linear,
    lift_from_free_part,
    lift_to_decomposition,
    local_split_double,
)
from mvb.split import decompose, find_splitting


def small(rng, out_dim, in_dims):
    size = out_dim
    for d in in_dims:
        size *= d
    return MultiTensor(out_dim, in_dims,
                       [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                        for _ in range(size)])


def instance(seed, n):
    rng = random.Random(seed)
    return twisted_instance(seed, n=n, n_points=2, n_charts=3,
                            dims=random_dims(rng, n, max_dim=2))


def as_bytes(morphism):
    return formats.dumps(morphism)


@SMALL
@given(seed=st.integers(0, 2 ** 16), n_in=st.integers(0, 3),
       dims=st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_contract_slot_matches_loop_oracle(seed, n_in, dims):
    rng = random.Random(seed)
    tensor = small(rng, dims[0], tuple(dims[1:1 + n_in]))
    vectors = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
               for d in tensor.in_dims]
    for mask in range(1, 2 ** n_in):
        fixed = {slot: vectors[slot] for slot in range(n_in) if mask >> slot & 1}
        expected = tensor
        # the highest slot first, so the lower positions stay put
        for slot in sorted(fixed, reverse=True):
            expected = tensor_oracle.contract_slot(expected, slot, fixed[slot])
        assert contract_slots(tensor, fixed) == expected


def test_stack_places_the_new_slot_last():
    rng = random.Random(0)
    parts = [small(rng, 2, (3, 1)) for _ in range(4)]
    stacked = _stack(parts, 2, (3, 1))
    assert stacked.in_dims == (3, 1, 4)
    for k, part in enumerate(parts):
        unit = tuple(Fraction(int(t == k)) for t in range(4))
        assert contract_slots(stacked, {2: unit}) == part
    assert _stack([], 2, (3,)) == MultiTensor.zeros(2, (3, 0))


@SMALL
@given(seed=st.integers(0, 2 ** 16), with_frames=st.booleans())
def test_double_constructions_match_element_oracle(seed, with_frames):
    a = instance(seed, 2)
    rng = random.Random(seed)
    d1, d2, d12 = (a.dims.dim(s) for s in (S1, S2, S12))
    frames = None
    if with_frames:
        # frames keyed on every chart, the canonical one last; only the
        # canonical ones are read
        frames = {(c, p, k): small(rng, d12, (d1,)) for p in a.base
                  for c in sorted(a.charts_at(p), reverse=True) for k in range(d2)}
    built = local_split_double(a, frames)
    assert as_bytes(built) == as_bytes(section_oracle.local_split_double(a, frames))
    if frames:
        canonical = {key: t for key, t in frames.items()
                     if key[0] == a.canonical_chart(key[1])}
        assert as_bytes(local_split_double(a, canonical)) == as_bytes(built)

    splitting = find_splitting(a) if rng.random() < 0.5 else built
    b_sec = BaseSection(a, S2, {p: random_element(rng, a, node=S2, point=p)
                                for p in a.base})
    assert hat_linear(a, b_sec, splitting) == section_oracle.hat_linear(
        a, b_sec, splitting)


@SMALL
@given(seed=st.integers(0, 2 ** 16))
def test_triple_assembly_matches_unit_vector_oracle(seed):
    t = instance(seed, 3)
    rng = random.Random(seed)
    dims = t.dims
    d1, d2, d3 = (dims.dim(s) for s in (S1, S2, S3))
    d12, d123 = dims.dim(S12), dims.dim(S123)
    pieces = decomposition_to_lift(t, decompose(t))
    splits = [pieces[k] for k in ("split_d", "split_e", "split_f",
                                  "split_lde", "split_lfd")]
    free_lin = {p: small(rng, d123 * d12, (d3,)) for p in t.base}
    free_bil = {p: small(rng, d123 * d1 * d2, (d3,)) for p in t.base}
    args = (t, splits[3], splits[4], free_lin, free_bil)
    free = lift_from_free_part(*args)
    oracle_free = section_oracle.lift_from_free_part(*args)
    for p in t.base:
        c = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d3))
        slope_f = small(rng, dims.dim(S13), (d1,))
        slope_e = small(rng, dims.dim(S23), (d2,))
        assert free.output(p, c, slope_f, slope_e) == oracle_free.output(
            p, c, slope_f, slope_e)
    oracle_lift = section_oracle.decomposition_to_lift(t, decompose(t))["lift"]
    for lift, oracle_lift in ((pieces["lift"], oracle_lift), (free, oracle_free)):
        rebuilt = lift_to_decomposition(t, *splits, lift)
        assert as_bytes(rebuilt) == as_bytes(
            section_oracle.lift_to_decomposition(t, *splits, oracle_lift))


TRIPLE_SETS = (S1, S2, S3, S12, S13, S23, S123)


@SMALL
@given(seed=st.integers(0, 2 ** 16),
       dims=st.lists(st.integers(0, 2), min_size=7, max_size=7))
@example(seed=5, dims=[1, 2, 1, 2, 1, 2, 0])
@example(seed=6, dims=[2, 0, 2, 1, 2, 1, 2])
def test_lifts_match_closure_oracle(seed, dims):
    """Both library lifts, stored as core tops and free part, give the
    closure lifts' top parts on random side data and pass the probing
    check; the examples have an empty top and an empty axis-2 slot."""
    t = twisted_instance(seed, n=3, n_points=2, n_charts=3,
                         dims=DimAssignment(3, dict(zip(TRIPLE_SETS, dims))))
    rng = random.Random(seed)
    d1, d2, d3, d12, d13, d23, d123 = dims
    dec = decompose(t)
    pieces = decomposition_to_lift(t, dec)
    oracle = section_oracle.decomposition_to_lift(t, dec)
    for key in ("split_d", "split_e", "split_f", "split_lde", "split_lfd"):
        assert as_bytes(pieces[key]) == as_bytes(oracle[key])
    free_lin = {p: small(rng, d123 * d12, (d3,)) for p in t.base}
    free_bil = {p: small(rng, d123 * d1 * d2, (d3,)) for p in t.base}
    args = (t, pieces["split_lde"], pieces["split_lfd"], free_lin, free_bil)
    for lift, oracle_lift in ((pieces["lift"], oracle["lift"]),
                              (lift_from_free_part(*args),
                               section_oracle.lift_from_free_part(*args))):
        assert section_oracle.check_lift_compatibility(
            t, lift, pieces["split_lde"], pieces["split_lfd"])
        for p in t.base:
            c = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d3))
            slope_f, slope_e = small(rng, d13, (d1,)), small(rng, d23, (d2,))
            assert lift.output(p, c, slope_f, slope_e) == oracle_lift.output(
                p, c, slope_f, slope_e)


def test_free_part_of_the_wrong_shape_is_rejected():
    """Each lift part is read by its shape, so a free part with an extra
    row, or a core top of another shape, names the part and the point."""
    t = twisted_instance(113, n=3, n_points=2, n_charts=2)
    d1, d2, d3, d12, d123 = (t.dims.dim(s) for s in (S1, S2, S3, S12, S123))
    pieces = decomposition_to_lift(t, decompose(t))
    free_lin = {p: MultiTensor.zeros(d123 * d12, (d3,)) for p in t.base}
    free_bil = {p: MultiTensor.zeros(d123 * d1 * d2, (d3,)) for p in t.base}
    p = t.base.points[-1]
    for part, wrong in ((free_lin, MultiTensor.zeros(d123 * d12 + 1, (d3,))),
                        (free_bil, MultiTensor.zeros(d123 * d1 * d2, (d3 + 1,)))):
        args = (t, pieces["split_lde"], pieces["split_lfd"],
                free_lin, free_bil)
        right, part[p] = part[p], wrong
        with pytest.raises(DimensionMismatch, match=r"free_(lin|bil) at %r" % (p,)):
            lift_from_free_part(*args)
        part[p] = right
    parts = dict(pieces["lift"].parts)
    lam_de, lam_fd, f_lin, f_bil = parts[p]
    parts[p] = (lam_fd, lam_de, f_lin, f_bil)  # 2x[1, 1] and 2x[2, 2] here
    with pytest.raises(DimensionMismatch, match=r"lam_de at %r" % (p,)):
        HorizontalLift(t, parts)


def test_frame_of_the_wrong_shape_is_rejected():
    dims = DimAssignment(2, {S1: 1, S2: 1, S12: 2})
    a = twisted_instance(7, n=2, n_points=1, n_charts=1, dims=dims)
    p = a.base.points[0]
    can = a.canonical_chart(p)
    for shape in ((3, (1,)), (2, (2,)), (2, (1, 1)), (1, (2,))):
        with pytest.raises(DimensionMismatch):
            local_split_double(a, {(can, p, 0): MultiTensor.zeros(*shape)})
    # with no axis-1 slot no frame is ever applied, but its shape still counts
    dims = DimAssignment(2, {S1: 0, S2: 1, S12: 2})
    b = twisted_instance(7, n=2, n_points=1, n_charts=1, dims=dims)
    q = b.base.points[0]
    with pytest.raises(DimensionMismatch):
        local_split_double(b, {(b.canonical_chart(q), q, 0):
                               MultiTensor.zeros(3, (0,))})
