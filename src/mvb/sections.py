"""Section calculus for double and triple bundles over a finite base.

Sections are total maps on base points; base functions are rational
point functions standing in for smooth functions, and "smooth" carries
no content over a discrete base.  All per-point data is stored in the
canonical chart of the point and transported on demand.

For a double bundle (axes 1, 2) a linear section of the total node over
the axis-1 node consists, per point, of a value of the axis-2 slot and
a linear map from the axis-1 slot into the top slot.  For a triple
bundle, a doubly linear section of the total node over the {1,2}-node
is determined per point by an axis-3 value, two mixed-slot linear maps,
and the two top-slot pieces (linear in the {1,2}-slot, bilinear in the
singleton slots).  These normal forms are what the exact sequences of
sections count.

A horizontal lift compatible with the two core splittings is stored
as their tops and its free part, its value on pure axis-3 data; its
compatibility is the equality of those tops.  The triple-bundle round
trip reads the face and core splittings off decomposition restrictions
(``cores.partition_core_morphism``) and the free part off the top
component less the terms it does not hold (``_side_terms``); the way
back adds them again, makes the splitting and its {1,2}-core splitting
from their tops (``split.splitting_from_tops``) and seeds one
``DecompositionBuilder`` with the three core splittings.

Constructions that only read tensor entries are stated on the tensor
kernels (``_stack``, ``contract_slots``, ``compose_tensors``); their
element, unit-vector and closure forms are test oracles.  The displayed
seven-argument formula keeps genuine fiber operations as an independent
check.
"""

from fractions import Fraction
from math import lcm

from .bundle import add, canonicalize, element, zero_element
from .certify import Certificate
from .cores import partition_core_morphism
from .cubecat import IndexSet, Partition, merge_blocks, nonempty_subsets
from .errors import DimensionMismatch, InvalidInput, SemanticError
from .exactlin import (
    MultiTensor,
    compose_tensors,
    contract_slots,
    vec_add,
    vec_scale,
    zero_vector,
)
from .split import (
    DecompositionBuilder,
    extract_core_decompositions,
    extract_splitting,
    is_splitting,
    splitting_from_tops,
    splitting_to_decomposition,
    splitting_top,
)

S1 = IndexSet([1])
S2 = IndexSet([2])
S3 = IndexSet([3])
S12 = IndexSet([1, 2])
S13 = IndexSet([1, 3])
S23 = IndexSet([2, 3])
S123 = IndexSet([1, 2, 3])


def _require_n(presentation, n):
    if presentation.n != n:
        raise InvalidInput("operation needs a %d-fold presentation" % n)


def _stack(tensors, out_dim, in_dims):
    """The tensor with one more input slot, placed last, whose k-th basis
    vector selects ``tensors[k]`` (each of shape ``out_dim x in_dims``)."""
    in_dims = tuple(in_dims)
    for t in tensors:
        if t.out_dim != out_dim or t.in_dims != in_dims:
            raise DimensionMismatch(
                "cannot stack a %dx%s tensor into %dx%s"
                % (t.out_dim, list(t.in_dims), out_dim, list(in_dims)))
    forms = [t.integer_form() for t in tensors]
    den = lcm(*(d for _, d in forms))
    columns = zip(*([x * (den // d) for x in nums] for nums, d in forms))
    return MultiTensor.from_integers(out_dim, in_dims + (len(tensors),),
                                     [x for column in columns for x in column], den)


def _regroup(tensor, out_dim, in_dims):
    """The tensor with the same numerators read as ``out_dim x in_dims``."""
    return MultiTensor.from_integers(out_dim, in_dims, *tensor.integer_form())


class BaseSection:
    """A section of one node: a chosen element per base point."""

    def __init__(self, presentation, node, values):
        self.presentation = presentation
        self.node = IndexSet(node)
        self.values = {}
        for p in presentation.base:
            if p not in values:
                raise InvalidInput("section missing point %r" % (p,))
            e = canonicalize(presentation, values[p])
            if e.node != self.node or e.point != p:
                raise InvalidInput("section value at %r has wrong node or point" % (p,))
            self.values[p] = e

    def at(self, point):
        return self.values[point]

    @classmethod
    def zero(cls, presentation, node):
        return cls(presentation, node, {
            p: zero_element(presentation, node, p) for p in presentation.base
        })


class LinearSection:
    """A section of the top node over the axis-1 node, linear over a
    section of the axis-2 node (double bundles)."""

    def __init__(self, presentation, base_values, slope):
        _require_n(presentation, 2)
        self.presentation = presentation
        d1 = presentation.dims.dim(S1)
        d2 = presentation.dims.dim(S2)
        d12 = presentation.dims.dim(S12)
        self.base_values = {}
        self.slope = {}
        for p in presentation.base:
            vec = tuple(Fraction(x) for x in base_values[p])
            if len(vec) != d2:
                raise DimensionMismatch("base value at %r has wrong length" % (p,))
            t = slope[p]
            if t.out_dim != d12 or t.in_dims != (d1,):
                raise DimensionMismatch("slope at %r has wrong shape" % (p,))
            self.base_values[p] = vec
            self.slope[p] = t

    def apply(self, a_elem):
        """Value on an element of the axis-1 node."""
        pres = self.presentation
        e = canonicalize(pres, a_elem)
        if e.node != S1:
            raise InvalidInput("linear sections consume axis-1 elements")
        p = e.point
        a = e.components[S1]
        comps = {
            S1: a,
            S2: self.base_values[p],
            S12: self.slope[p].apply([a]),
        }
        return element(pres, S12, pres.canonical_chart(p), p, comps)

    def add(self, other):
        return LinearSection(
            self.presentation,
            {p: vec_add(v, other.base_values[p]) for p, v in self.base_values.items()},
            {p: t.plus(other.slope[p]) for p, t in self.slope.items()},
        )

    def scale_by_function(self, fn):
        """Module action of a rational base function."""
        return LinearSection(
            self.presentation,
            {p: vec_scale(fn[p], v) for p, v in self.base_values.items()},
            {p: t.scaled(fn[p]) for p, t in self.slope.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, LinearSection)
            and self.base_values == other.base_values
            and self.slope == other.slope
        )


def tilde_linear(presentation, phi):
    """The linear section over the zero base section determined by a
    fiberwise map into the core slot: its values are core shifts of
    zero lifts."""
    _require_n(presentation, 2)
    d2 = presentation.dims.dim(S2)
    return LinearSection(
        presentation,
        {p: zero_vector(d2) for p in presentation.base},
        dict(phi),
    )


def hat_linear(presentation, base_section, splitting):
    """The linear section through a splitting: the base section rides in
    the second slot of the splitting's top component."""
    _require_n(presentation, 2)
    if not is_splitting(splitting):
        raise InvalidInput("second argument must be a splitting")
    slope = {}
    values = {}
    for p in presentation.base:
        b = base_section.at(p).components[S2]
        top = splitting_top(splitting, p)
        slope[p] = contract_slots(top, {1: b})
        values[p] = b
    return LinearSection(presentation, values, slope)


def linear_module_certificate(presentation):
    """Exactness of the linear-section sequence by pointwise rank counts.

    Per point the module of linear sections has one summand for the
    base value and one for the slope; the core-map inclusion hits the
    slope summand and the base projection is onto, so the middle
    dimension must be the sum of the outer two, with kernel equal to
    image.
    """
    _require_n(presentation, 2)
    d1 = presentation.dims.dim(S1)
    d2 = presentation.dims.dim(S2)
    d12 = presentation.dims.dim(S12)
    witnesses = []
    for p in presentation.base:
        middle = d2 + d1 * d12
        left = d1 * d12
        right = d2
        if middle != left + right:
            return Certificate.failing(
                "linear section sequence exact",
                {"point": p, "dims": [left, middle, right]})
        witnesses.append({"point": p, "dims": [left, middle, right]})
    return Certificate.passing("linear section sequence exact", witnesses)


def local_split_double(presentation, sigma_frames=None):
    """Frame-by-frame construction of a splitting of a double bundle.

    ``sigma_frames`` optionally gives, per (chart, point) and per frame
    vector of the axis-2 slot, the core part of a right inverse of the
    double projection on that frame vector; the splitting interpolates
    these values linearly along the frame.  The default zero frames
    yield the canonical-chart splitting.
    """
    _require_n(presentation, 2)
    a = presentation
    d1, d2, d12 = (a.dims.dim(s) for s in (S1, S2, S12))
    given = sigma_frames or {}
    zero = MultiTensor.zeros(d12, (d1,))
    tops = {}
    for p in a.base:
        can = a.canonical_chart(p)
        # adding over axis 2 is coordinatewise in the canonical chart, so
        # the top slot at (a, k-th frame vector) is the k-th frame at a
        frames = [given.get((can, p, k), zero) for k in range(d2)]
        tops[p] = [_stack(frames, d12, (d1,))]
    return splitting_from_tops(a, tops)


class DoublyLinearSection:
    """A section of the total node over the {1,2}-node of a triple
    bundle that is a double-bundle morphism into the (total; {1,3},
    {2,3}) structure.  Stored per point in the canonical chart."""

    def __init__(self, presentation, c_values, slope_f, slope_e, top_lin, top_bil):
        _require_n(presentation, 3)
        self.presentation = presentation
        dims = presentation.dims
        self.c_values = {}
        self.slope_f = {}
        self.slope_e = {}
        self.top_lin = {}
        self.top_bil = {}
        for p in presentation.base:
            c = tuple(Fraction(x) for x in c_values[p])
            if len(c) != dims.dim(S3):
                raise DimensionMismatch("axis-3 value at %r has wrong length" % (p,))
            f, e = slope_f[p], slope_e[p]
            lin, bil = top_lin[p], top_bil[p]
            if f.out_dim != dims.dim(S13) or f.in_dims != (dims.dim(S1),):
                raise DimensionMismatch("mixed {1,3}-slope at %r" % (p,))
            if e.out_dim != dims.dim(S23) or e.in_dims != (dims.dim(S2),):
                raise DimensionMismatch("mixed {2,3}-slope at %r" % (p,))
            if lin.out_dim != dims.dim(S123) or lin.in_dims != (dims.dim(S12),):
                raise DimensionMismatch("top linear part at %r" % (p,))
            if bil.out_dim != dims.dim(S123) or bil.in_dims != (
                    dims.dim(S1), dims.dim(S2)):
                raise DimensionMismatch("top bilinear part at %r" % (p,))
            self.c_values[p] = c
            self.slope_f[p] = f
            self.slope_e[p] = e
            self.top_lin[p] = lin
            self.top_bil[p] = bil

    def apply(self, d_elem):
        pres = self.presentation
        e = canonicalize(pres, d_elem)
        if e.node != S12:
            raise InvalidInput("doubly linear sections consume {1,2}-node elements")
        p = e.point
        a, b, k = e.components[S1], e.components[S2], e.components[S12]
        comps = {
            S1: a, S2: b, S12: k,
            S3: self.c_values[p],
            S13: self.slope_f[p].apply([a]),
            S23: self.slope_e[p].apply([b]),
            S123: vec_add(self.top_lin[p].apply([k]),
                          self.top_bil[p].apply([a, b])),
        }
        return element(pres, S123, pres.canonical_chart(p), p, comps)

    def side_sections(self):
        """The pair of linear sections this section lifts."""
        return (
            {"base": self.c_values, "slope": self.slope_f},
            {"base": self.c_values, "slope": self.slope_e},
        )

    def scale_by_function(self, fn):
        return DoublyLinearSection(
            self.presentation,
            {p: vec_scale(fn[p], v) for p, v in self.c_values.items()},
            {p: t.scaled(fn[p]) for p, t in self.slope_f.items()},
            {p: t.scaled(fn[p]) for p, t in self.slope_e.items()},
            {p: t.scaled(fn[p]) for p, t in self.top_lin.items()},
            {p: t.scaled(fn[p]) for p, t in self.top_bil.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, DoublyLinearSection)
            and self.c_values == other.c_values
            and self.slope_f == other.slope_f
            and self.slope_e == other.slope_e
            and self.top_lin == other.top_lin
            and self.top_bil == other.top_bil
        )


def tilde_doubly(presentation, top_lin, top_bil):
    """The doubly linear section over the zero side sections determined
    by a double-bundle morphism into the triple core."""
    _require_n(presentation, 3)
    dims = presentation.dims
    zero_c = {p: zero_vector(dims.dim(S3)) for p in presentation.base}
    zero_f = {p: MultiTensor.zeros(dims.dim(S13), (dims.dim(S1),))
              for p in presentation.base}
    zero_e = {p: MultiTensor.zeros(dims.dim(S23), (dims.dim(S2),))
              for p in presentation.base}
    return DoublyLinearSection(presentation, zero_c, zero_f, zero_e,
                               dict(top_lin), dict(top_bil))


def hat_doubly(presentation, pair_f, pair_e):
    """A lift of a compatible pair of side sections with zero top parts.

    This realizes the surjectivity of the side projection; in canonical
    chart coordinates, choosing zero core components of a splitting of
    the ({1,3}, {2,3})-sides square and repairing the forced {1,2}-slot
    gives exactly the lift with vanishing top pieces.
    """
    _require_n(presentation, 3)
    dims = presentation.dims
    if pair_f["base"] != pair_e["base"]:
        raise InvalidInput("side sections must share their axis-3 section")
    zero_lin = {p: MultiTensor.zeros(dims.dim(S123), (dims.dim(S12),))
                for p in presentation.base}
    zero_bil = {p: MultiTensor.zeros(dims.dim(S123), (dims.dim(S1), dims.dim(S2)))
                for p in presentation.base}
    return DoublyLinearSection(presentation, dict(pair_f["base"]),
                               dict(pair_f["slope"]), dict(pair_e["slope"]),
                               zero_lin, zero_bil)


def doubly_linear_sequence(presentation):
    """Exactness data for the doubly-linear-section sequence.

    Per point, the middle module splits into the five stored summands;
    the inclusion hits the two top summands and the projection keeps
    the other three, so the dimension identity and kernel-image
    equality are exact rank facts.
    """
    _require_n(presentation, 3)
    dims = presentation.dims
    d1, d2, d3 = dims.dim(S1), dims.dim(S2), dims.dim(S3)
    d12, d13, d23, d123 = (dims.dim(s) for s in (S12, S13, S23, S123))
    witnesses = []
    for p in presentation.base:
        left = d12 * d123 + d1 * d2 * d123
        right = d3 + d1 * d13 + d2 * d23
        middle = left + right
        stored = d3 + d1 * d13 + d2 * d23 + d12 * d123 + d1 * d2 * d123
        if middle != stored:
            return Certificate.failing(
                "doubly linear section sequence exact",
                {"point": p, "middle": stored, "expected": middle})
        witnesses.append({"point": p, "dims": [left, middle, right]})
    return Certificate.passing("doubly linear section sequence exact", witnesses)


class HorizontalLift:
    """A module splitting of the doubly-linear-section sequence that is
    compatible with two core splittings.

    A compatible lift is fixed by the tops of the {1,3}- and {2,3}-core
    splittings it reproduces and by its free part, its top parts on pure
    axis-3 data as linear functions of the axis-3 value.  ``parts[p]``
    is ``(lam_de, lam_fd, free_lin, free_bil)``: the two core tops, of
    shapes d123 x (d13, d2) and d123 x (d1, d23), and the free part,
    flattened into tensors (d123*d12) x (d3,) and (d123*d1*d2) x (d3,)
    with the axis-3 slot last.
    """

    def __init__(self, presentation, parts):
        _require_n(presentation, 3)
        self.presentation = presentation
        d1, d2, d3, d12, d13, d23, d123 = (
            presentation.dims.dim(s) for s in (S1, S2, S3, S12, S13, S23, S123))
        shapes = {"lam_de": (d123, (d13, d2)), "lam_fd": (d123, (d1, d23)),
                  "free_lin": (d123 * d12, (d3,)), "free_bil": (d123 * d1 * d2, (d3,))}
        self.parts = {}
        for p in presentation.base:
            if p not in parts:
                raise InvalidInput("lift missing point %r" % (p,))
            self.parts[p] = tuple(parts[p])
            for (name, (out_dim, in_dims)), t in zip(shapes.items(), self.parts[p]):
                if t.out_dim != out_dim or t.in_dims != in_dims:
                    raise DimensionMismatch(
                        "lift part %s at %r is %dx%s, expected %dx%s"
                        % (name, p, t.out_dim, list(t.in_dims), out_dim, list(in_dims)))

    def output(self, point, c, slope_f, slope_e):
        """Top parts (linear, bilinear) for given side data at a point."""
        lam_de, lam_fd, free_lin, free_bil = self.parts[point]
        d1, d2, d12, d123 = (self.presentation.dims.dim(s) for s in (S1, S2, S12, S123))
        bil = compose_tensors(lam_de, [slope_f, MultiTensor.identity(d2)], [[0], [1]], (d1, d2))
        bil = bil.plus(compose_tensors(
            lam_fd, [MultiTensor.identity(d1), slope_e], [[0], [1]], (d1, d2)))
        bil = bil.plus(_regroup(contract_slots(free_bil, {0: c}), d123, (d1, d2)))
        return _regroup(contract_slots(free_lin, {0: c}), d123, (d12,)), bil

    def apply(self, pair_f, pair_e):
        if pair_f["base"] != pair_e["base"]:
            raise InvalidInput("side sections must share their axis-3 section")
        pres = self.presentation
        tops = {p: self.output(p, pair_f["base"][p], pair_f["slope"][p], pair_e["slope"][p])
                for p in pres.base}
        return DoublyLinearSection(pres, dict(pair_f["base"]),
                                   dict(pair_f["slope"]), dict(pair_e["slope"]),
                                   {p: lin for p, (lin, _) in tops.items()},
                                   {p: bil for p, (_, bil) in tops.items()})


def _side_terms(lin, lam_de, lam_fd, t_d, t_e, t_f):
    """The terms of a decomposition's top component that its lift's free
    part does not hold, with inputs (axis 1, axis 2, axis 3):
    ``lin o (t_d x id) + lam_de o (t_f x id) + lam_fd o (id x t_e)``,
    ``lin`` being the {1,2}-core splitting's top d123 x (d12, d3)."""
    (d1, d2), d3 = t_d.in_dims, t_f.in_dims[1]
    dims = (d1, d2, d3)
    side = compose_tensors(lin, [t_d, MultiTensor.identity(d3)], [[0, 1], [2]], dims)
    side = side.plus(compose_tensors(
        lam_de, [t_f, MultiTensor.identity(d2)], [[0, 2], [1]], dims))
    return side.plus(compose_tensors(
        lam_fd, [MultiTensor.identity(d1), t_e], [[0], [1, 2]], dims))


def check_lift_compatibility(presentation, lift, split_lde, split_lfd):
    """The lift must reproduce the two core splittings on tilde inputs.

    On a pair (tilde of a {1,3}-slope, zero) its top parts are zero and
    its {1,3}-core top contracted with the slope, so it must hold the
    splitting's top; symmetrically for the {2,3} side.
    """
    for p in presentation.base:
        lam_de, lam_fd = lift.parts[p][:2]
        if lam_de != splitting_top(split_lde, p):
            raise SemanticError(
                "lift disagrees with the {1,3}-core splitting at %r" % (p,))
        if lam_fd != splitting_top(split_lfd, p):
            raise SemanticError(
                "lift disagrees with the {2,3}-core splitting at %r" % (p,))
    return True


def lift_from_free_part(presentation, split_lde, split_lfd, free_lin, free_bil):
    """The compatible lift with the given free part.

    ``free_lin[p]`` and ``free_bil[p]`` give the top parts as linear
    functions of the axis-3 value: shapes (d123 x d12) x d3 and
    (d123 x d1 x d2) x d3, flattened into one tensor with the axis-3
    slot last.
    """
    parts = {}
    for p in presentation.base:
        parts[p] = (splitting_top(split_lde, p), splitting_top(split_lfd, p),
                    free_lin[p], free_bil[p])
    return HorizontalLift(presentation, parts)


def zero_free_part(presentation):
    d1, d2, d3, d12, d123 = (presentation.dims.dim(s) for s in (S1, S2, S3, S12, S123))
    return ({p: MultiTensor.zeros(d123 * d12, (d3,)) for p in presentation.base},
            {p: MultiTensor.zeros(d123 * d1 * d2, (d3,)) for p in presentation.base})


def face_splitting(decomposition, axes):
    """Splitting of a coordinate face induced by a decomposition."""
    axes = IndexSet(axes)
    face_dec = partition_core_morphism(decomposition, [[i] for i in axes])
    return extract_splitting(face_dec.target, face_dec)


def lift_to_decomposition(presentation, split_d, split_e, split_f,
                          split_lde, split_lfd, lift):
    """Assemble the decomposition determined by five double splittings
    and a compatible horizontal lift.

    The top splitting's top is the lift's free bilinear part plus the
    terms it does not hold (``_side_terms``); the {1,2}-core splitting's
    top is the free linear part, regrouped.  One builder holds the three cores
    and, seeded with their splittings, decomposes them;
    ``splitting_to_decomposition`` then assembles the unique
    decomposition with these restrictions.
    """
    pres = presentation
    _require_n(pres, 3)
    check_lift_compatibility(pres, lift, split_lde, split_lfd)
    d1, d2, d3, d12, d123 = (pres.dims.dim(s) for s in (S1, S2, S3, S12, S123))

    builder = DecompositionBuilder(pres)
    core_keys = {mu: merge_blocks(builder.top_key(), mu) for mu in (S12, S13, S23)}
    sigma_tops = {}
    lef_tops = {}
    for p in pres.base:
        t_d, t_e, t_f = (splitting_top(s, p) for s in (split_d, split_e, split_f))
        lam_de, lam_fd, free_lin, free_bil = lift.parts[p]
        lin = _regroup(free_lin, d123, (d12, d3))
        m_top = _regroup(free_bil, d123, (d1, d2, d3)).plus(
            _side_terms(lin, lam_de, lam_fd, t_d, t_e, t_f))
        # the all-singleton keys of two or more blocks, in plan order
        sigma_tops[p] = (t_d, t_f, t_e, m_top)
        lef_tops[p] = (lin,)
    sigma = splitting_from_tops(pres, sigma_tops)
    split_lef = splitting_from_tops(builder.object(core_keys[S12]), lef_tops)

    splittings = {S12: split_lef, S13: split_lde, S23: split_lfd}
    for mu, key in core_keys.items():
        builder.seed(key, splittings[mu])
    core_decs = {mu: builder.decomposition(key) for mu, key in core_keys.items()}
    return splitting_to_decomposition(pres, sigma, core_decs)


def decomposition_to_lift(presentation, decomposition):
    """Extract the five double splittings and the horizontal lift that
    reproduce a decomposition of a triple bundle."""
    pres = presentation
    _require_n(pres, 3)
    dec = decomposition

    split_d = face_splitting(dec, S12)
    split_e = face_splitting(dec, S23)
    split_f = face_splitting(dec, S13)

    cores = extract_core_decompositions(dec)
    split_lde = extract_splitting(cores[S13].target, cores[S13])
    split_lfd = extract_splitting(cores[S23].target, cores[S23])

    d1, d2, d3, d12, d123 = (pres.dims.dim(s) for s in (S1, S2, S3, S12, S123))
    parts = {}
    for p in pres.base:
        g = dec.data[(pres.canonical_chart(p), p)]

        def comp(target, blocks):
            return g.components[(target, Partition(blocks))]

        # component partitions are in canonical block order: ({1,3},{2})
        # consumes ({1,3}-slot, {2}-slot), ({1},{2,3}) ({1}-slot, {2,3}-slot)
        lam_de, lam_fd = comp(S123, [S13, S2]), comp(S123, [S1, S23])
        lin = comp(S123, [S12, S3])
        side = _side_terms(lin, lam_de, lam_fd, comp(S12, [S1, S2]),
                           comp(S23, [S2, S3]), comp(S13, [S1, S3]))
        free_bil = comp(S123, [S1, S2, S3]).plus(side.scaled(-1))
        parts[p] = (lam_de, lam_fd, _regroup(lin, d123 * d12, (d3,)),
                    _regroup(free_bil, d123 * d1 * d2, (d3,)))
    lift = HorizontalLift(pres, parts)
    return {
        "split_d": split_d,
        "split_e": split_e,
        "split_f": split_f,
        "split_lde": split_lde,
        "split_lfd": split_lfd,
        "lift": lift,
    }


def explicit_triple_formula(presentation, decomposition, point,
                            a, b, c, k_ab, k_bc, k_ca, s):
    """Evaluate the displayed seven-argument assembly of a decomposition
    from its splitting data, elementwise with genuine fiber operations."""
    pres = presentation
    _require_n(pres, 3)
    dec = decomposition
    p = point
    can = pres.canonical_chart(p)
    g = dec.data[(can, p)]
    dims = pres.dims

    def comp(target, blocks):
        return g.components[(IndexSet(target), Partition(blocks))]

    t_d = comp(S12, [S1, S2])
    t_e = comp(S23, [S2, S3])
    t_f = comp(S13, [S1, S3])
    m_top = comp(S123, [S1, S2, S3])
    lam_de = comp(S123, [S13, S2])   # consumes ({1,3}-slot, {2}-slot)
    lam_ef = comp(S123, [S12, S3])   # consumes ({1,2}-slot, {3}-slot)
    lam_fd = comp(S123, [S1, S23])   # consumes ({1}-slot, {2,3}-slot)

    zeros = {sub: zero_vector(dims.dim(sub)) for sub in nonempty_subsets(S123)}

    def t_elem(assign):
        comps = dict(zeros)
        comps.update(assign)
        return element(pres, S123, can, p, comps)

    sigma_abc = t_elem({
        S1: a, S2: b, S3: c,
        S12: t_d.apply([a, b]), S13: t_f.apply([a, c]), S23: t_e.apply([b, c]),
        S123: m_top.apply([a, b, c]),
    })
    lift_sigma_d = t_elem({S1: a, S2: b, S12: t_d.apply([a, b])})
    split_lfd_val = t_elem({S1: a, S23: k_bc, S123: lam_fd.apply([a, k_bc])})
    inner1 = add(pres, lift_sigma_d, split_lfd_val, 2)
    term1 = add(pres, sigma_abc, inner1, 3)

    lift_sigma_f = t_elem({S1: a, S3: c, S13: t_f.apply([a, c])})
    split_lef_val = t_elem({S3: c, S12: k_ab, S123: lam_ef.apply([k_ab, c])})
    inner2 = add(pres, lift_sigma_f, split_lef_val, 1)
    term2 = add(pres, term1, inner2, 2)

    dec_e_val = t_elem({
        S2: b, S3: c, S23: vec_add(k_bc, t_e.apply([b, c])),
    })
    split_lde_val = t_elem({S2: b, S13: k_ca, S123: lam_de.apply([k_ca, b])})
    s_bar = t_elem({S123: s})
    zero_over_b = t_elem({S2: b})
    last_piece = add(pres, zero_over_b, s_bar, 2)
    inner3 = add(pres, add(pres, dec_e_val, split_lde_val, 3), last_piece, 3)
    return add(pres, term2, inner3, 1)

