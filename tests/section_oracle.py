"""Element and unit-vector forms of the section constructions, kept as
oracles.

The library states these constructions on the tensor kernels: a frame
splitting stacks its frames, a hat slope contracts the splitting's top
in its last slot, and a horizontal lift is stored as its two core tops
and its free part, from which the triple-bundle assembly composes the
top splitting's top in one step.  This module is what that replaces.
``local_split_double`` adds and scales whole elements along axis 2 in
the canonical chart; a lift here is a per-point closure
(``CallableLift``), checked by probing it on every basis matrix
(``check_lift_compatibility``) and read once per axis-3 unit vector
(``lift_to_decomposition``); the others push unit vectors through
``MultiTensor.apply`` and read the results off entry by entry, with the
loop form of ``contract_slot``.  The oracle lift and check accept the
library's lifts too, which have the same ``output``.
"""

from fractions import Fraction

from tensor_oracle import contract_slot, entry

from mvb.atlas import associated_vacant
from mvb.bundle import add, element, morphism_from_canonical, scale
from mvb.cores import core
from mvb.cubecat import Partition
from mvb.errors import SemanticError
from mvb.exactlin import (
    MultiTensor,
    compose_tensors,
    unit_vector,
    vec_add,
    zero_vector,
)
from mvb.gauge import Gauge
from mvb.sections import (
    S1, S2, S3, S12, S13, S23, S123,
    LinearSection,
    face_splitting,
    splitting_top,
)
from mvb.split import (
    DecompositionBuilder,
    Splitting,
    extract_core_decompositions,
    extract_splitting,
    splitting_to_decomposition,
)


def hat_linear(presentation, base_section, splitting):
    """The linear section through a splitting, its slope read off the
    splitting's top on unit vectors of the axis-1 slot."""
    slope = {}
    values = {}
    for p in presentation.base:
        b = base_section.at(p).components[S2]
        top = splitting_top(splitting, p)
        d1 = presentation.dims.dim(S1)
        d12 = presentation.dims.dim(S12)
        entries = []
        for i0 in range(d12):
            for j in range(d1):
                unit = tuple(Fraction(1 if t == j else 0) for t in range(d1))
                entries.append(top.apply([unit, b])[i0])
        slope[p] = MultiTensor(d12, (d1,), entries)
        values[p] = b
    return LinearSection(presentation, values, slope)


def local_split_double(presentation, sigma_frames=None):
    """Frame-by-frame splitting of a double bundle by fiber operations:
    per pair of unit vectors, the frame elements are scaled and added
    along axis 2 in the canonical chart."""
    a = presentation
    d1, d2, d12 = (a.dims.dim(s) for s in (S1, S2, S12))
    vac = associated_vacant(a)
    family = {}
    for p in a.base:
        can = a.canonical_chart(p)
        size = d12 * d1 * d2
        entries = [Fraction(0)] * size
        for j1 in range(d1):
            unit_a = tuple(Fraction(1 if t == j1 else 0) for t in range(d1))
            for j2 in range(d2):
                acc = None
                for frame in range(d2):
                    frame_core = None
                    if sigma_frames is not None:
                        frame_core = sigma_frames.get((can, p, frame))
                    core_vec = (frame_core.apply([unit_a])
                                if frame_core is not None else zero_vector(d12))
                    unit_b = tuple(
                        Fraction(1 if t == frame else 0) for t in range(d2))
                    term = element(a, S12, can, p, {
                        S1: unit_a, S2: unit_b, S12: core_vec,
                    })
                    beta = Fraction(1 if frame == j2 else 0)
                    term = scale(a, beta, term, 2)
                    acc = term if acc is None else add(a, acc, term, 2)
                vec = acc.components[S12]
                for i0 in range(d12):
                    entries[(i0 * d1 + j1) * d2 + j2] = vec[i0]
        comps = {
            (S1, Partition([S1])): MultiTensor.identity(d1),
            (S2, Partition([S2])): MultiTensor.identity(d2),
            (S12, Partition([S1, S2])): MultiTensor(d12, (d1, d2), entries),
        }
        family[p] = Gauge(vac.dims, a.dims, comps)
    morphism = morphism_from_canonical(vac, a, family)
    return Splitting(vac, a, morphism.data)


class CallableLift:
    """A horizontal lift as one closure per point from side data
    ``(c, slope_f, slope_e)`` to top parts ``(lin, bil)``."""

    def __init__(self, presentation, maps):
        self.presentation = presentation
        self.maps = dict(maps)

    def output(self, point, c, slope_f, slope_e):
        return self.maps[point](c, slope_f, slope_e)


def _basis_matrices(out_dim, in_dim):
    size = out_dim * in_dim
    for k in range(size):
        yield MultiTensor.from_integers(out_dim, (in_dim,), [int(j == k) for j in range(size)], 1)


def check_lift_compatibility(presentation, lift, split_lde, split_lfd):
    """Probe the lift on every basis matrix of each mixed slope: on a
    pair (tilde of a {1,3}-slope, zero) the top linear part must vanish
    and the bilinear part be the {1,3}-core splitting contracted with
    the slope; symmetrically for the {2,3} side."""
    pres = presentation
    dims = pres.dims
    d1, d2, d3 = dims.dim(S1), dims.dim(S2), dims.dim(S3)
    d13, d23 = dims.dim(S13), dims.dim(S23)
    for p in pres.base:
        zero_c = zero_vector(d3)
        zero_f = MultiTensor.zeros(d13, (d1,))
        zero_e = MultiTensor.zeros(d23, (d2,))
        lam_de = splitting_top(split_lde, p)
        lam_fd = splitting_top(split_lfd, p)
        for phi in _basis_matrices(d13, d1):
            lin, bil = lift.output(p, zero_c, phi, zero_e)
            if not lin.is_zero():
                raise SemanticError(
                    "lift has a top linear part on a {1,3}-tilde input at %r" % (p,))
            expected = compose_tensors(
                lam_de, [phi, MultiTensor.identity(d2)], [[0], [1]], (d1, d2))
            if bil != expected:
                raise SemanticError(
                    "lift disagrees with the {1,3}-core splitting at %r" % (p,))
        for phi in _basis_matrices(d23, d2):
            lin, bil = lift.output(p, zero_c, zero_f, phi)
            if not lin.is_zero():
                raise SemanticError(
                    "lift has a top linear part on a {2,3}-tilde input at %r" % (p,))
            expected = compose_tensors(
                lam_fd, [MultiTensor.identity(d1), phi], [[0], [1]], (d1, d2))
            if bil != expected:
                raise SemanticError(
                    "lift disagrees with the {2,3}-core splitting at %r" % (p,))
    return True


def decomposition_to_lift(presentation, decomposition):
    """The five double splittings and the lift of a decomposition, the
    lift as closures that contract the decomposition's components with
    the side data's deviation from the side splittings."""
    pres = presentation
    dec = decomposition
    cores = extract_core_decompositions(dec)
    maps = {}
    for p in pres.base:
        g = dec.data[(pres.canonical_chart(p), p)]
        t_1_2_3 = g.components[(S123, Partition([S1, S2, S3]))]
        t_12_3 = g.components[(S123, Partition([S12, S3]))]
        t_13_2 = g.components[(S123, Partition([S13, S2]))]
        t_23_1 = g.components[(S123, Partition([S23, S1]))]
        t_d = g.components[(S12, Partition([S1, S2]))]
        t_f = g.components[(S13, Partition([S1, S3]))]
        t_e = g.components[(S23, Partition([S2, S3]))]

        def make_map(t_1_2_3=t_1_2_3, t_12_3=t_12_3, t_13_2=t_13_2,
                     t_23_1=t_23_1, t_d=t_d, t_f=t_f, t_e=t_e):
            def the_map(c, slope_f, slope_e):
                lin = contract_slot(t_12_3, 1, c)
                dev_f = slope_f.plus(contract_slot(t_f, 1, c).scaled(-1))
                dev_e = slope_e.plus(contract_slot(t_e, 1, c).scaled(-1))
                d1_, d2_ = t_d.in_dims
                bil = contract_slot(t_1_2_3, 2, c)
                bil = bil.plus(compose_tensors(
                    lin, [t_d], [[0, 1]], (d1_, d2_)).scaled(-1))
                bil = bil.plus(compose_tensors(
                    t_13_2, [dev_f, MultiTensor.identity(d2_)], [[0], [1]], (d1_, d2_)))
                bil = bil.plus(compose_tensors(
                    t_23_1, [MultiTensor.identity(d1_), dev_e], [[0], [1]], (d1_, d2_)))
                return lin, bil
            return the_map

        maps[p] = make_map()
    return {
        "split_d": face_splitting(dec, S12),
        "split_e": face_splitting(dec, S23),
        "split_f": face_splitting(dec, S13),
        "split_lde": extract_splitting(cores[S13].target, cores[S13]),
        "split_lfd": extract_splitting(cores[S23].target, cores[S23]),
        "lift": CallableLift(pres, maps),
    }


def lift_from_free_part(presentation, split_lde, split_lfd, free_lin, free_bil):
    """A compatible lift whose free part is summed coordinate by
    coordinate of the axis-3 value."""
    pres = presentation
    dims = pres.dims
    d1, d2, d3 = dims.dim(S1), dims.dim(S2), dims.dim(S3)
    d12, d123 = dims.dim(S12), dims.dim(S123)
    tops = {}
    for p in pres.base:
        lam_de = splitting_top(split_lde, p)
        lam_fd = splitting_top(split_lfd, p)
        f_lin = free_lin[p]
        f_bil = free_bil[p]

        def make_map(lam_de=lam_de, lam_fd=lam_fd, f_lin=f_lin, f_bil=f_bil):
            def the_map(c, slope_f, slope_e):
                lin_entries = [
                    sum((entry(f_lin, i0 * d12 + j, (t,)) * c[t]
                         for t in range(d3)), Fraction(0))
                    for i0 in range(d123) for j in range(d12)
                ]
                lin = MultiTensor(d123, (d12,), lin_entries)
                bil_entries = []
                for i0 in range(d123):
                    for j1 in range(d1):
                        a_vec = unit_vector(d1, j1)
                        for j2 in range(d2):
                            b_vec = unit_vector(d2, j2)
                            bil_entries.append(
                                lam_de.apply([slope_f.apply([a_vec]), b_vec])[i0]
                                + lam_fd.apply([a_vec, slope_e.apply([b_vec])])[i0]
                                + sum((entry(f_bil, (i0 * d1 + j1) * d2 + j2, (t,))
                                       * c[t] for t in range(d3)), Fraction(0)))
                return lin, MultiTensor(d123, (d1, d2), bil_entries)
            return the_map

        tops[p] = make_map()
    return CallableLift(pres, tops)


def _double_decomposition_from_splitting(pres2, splitting):
    """The unique decomposition of a double presentation with the given
    splitting (its one iterated core is an ordinary bundle)."""
    builder = DecompositionBuilder(pres2)
    key = builder.top_key()
    builder.seed(key, splitting)
    return builder.decomposition(key)


def lift_to_decomposition(presentation, split_d, split_e, split_f,
                          split_lde, split_lfd, lift):
    """The decomposition of five double splittings and a compatible
    lift, its top and {1,2}-core splittings read off unit vectors."""
    pres = presentation
    check_lift_compatibility(pres, lift, split_lde, split_lfd)
    dims = pres.dims
    d1, d2, d3 = dims.dim(S1), dims.dim(S2), dims.dim(S3)
    d12, d123 = dims.dim(S12), dims.dim(S123)
    vac = associated_vacant(pres)
    _, lef_pres = core(pres, S123, S12, check=False)
    _, lde_pres = core(pres, S123, S13, check=False)
    _, lfd_pres = core(pres, S123, S23, check=False)
    lef_vac = associated_vacant(lef_pres)

    sigma_family = {}
    lef_family = {}
    for p in pres.base:
        t_d = splitting_top(split_d, p)
        t_e = splitting_top(split_e, p)
        t_f = splitting_top(split_f, p)

        per_c = []
        for k3 in range(d3):
            c_vec = unit_vector(d3, k3)
            per_c.append(lift.output(p, c_vec, contract_slot(t_f, 1, c_vec),
                                     contract_slot(t_e, 1, c_vec)))

        top_entries = [Fraction(0)] * (d123 * d1 * d2 * d3)
        for j1 in range(d1):
            a_vec = unit_vector(d1, j1)
            for j2 in range(d2):
                b_vec = unit_vector(d2, j2)
                for k3 in range(d3):
                    lin, bil = per_c[k3]
                    val = vec_add(lin.apply([t_d.apply([a_vec, b_vec])]),
                                  bil.apply([a_vec, b_vec]))
                    for i0 in range(d123):
                        flat = ((i0 * d1 + j1) * d2 + j2) * d3 + k3
                        top_entries[flat] = val[i0]
        sigma_family[p] = Gauge(vac.dims, pres.dims, {
            (S1, Partition([S1])): MultiTensor.identity(d1),
            (S2, Partition([S2])): MultiTensor.identity(d2),
            (S3, Partition([S3])): MultiTensor.identity(d3),
            (S12, Partition([S1, S2])): t_d,
            (S13, Partition([S1, S3])): t_f,
            (S23, Partition([S2, S3])): t_e,
            (S123, Partition([S1, S2, S3])):
                MultiTensor(d123, (d1, d2, d3), top_entries),
        })

        lef_entries = [Fraction(0)] * (d123 * d12 * d3)
        for j in range(d12):
            k_vec = unit_vector(d12, j)
            for k3 in range(d3):
                lin, _ = per_c[k3]
                val = lin.apply([k_vec])
                for i0 in range(d123):
                    lef_entries[(i0 * d12 + j) * d3 + k3] = val[i0]
        lef_family[p] = Gauge(lef_vac.dims, lef_pres.dims, {
            (S1, Partition([S1])): MultiTensor.identity(d12),
            (S2, Partition([S2])): MultiTensor.identity(d3),
            (S12, Partition([S1, S2])): MultiTensor(d123, (d12, d3), lef_entries),
        })

    sigma = Splitting(
        vac, pres, morphism_from_canonical(vac, pres, sigma_family).data)
    split_lef = Splitting(
        lef_vac, lef_pres,
        morphism_from_canonical(lef_vac, lef_pres, lef_family).data)
    core_decs = {
        S12: _double_decomposition_from_splitting(lef_pres, split_lef),
        S13: _double_decomposition_from_splitting(lde_pres, split_lde),
        S23: _double_decomposition_from_splitting(lfd_pres, split_lfd),
    }
    return splitting_to_decomposition(pres, sigma, core_decs)
