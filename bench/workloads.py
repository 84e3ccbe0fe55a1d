"""Seeded inputs and operation lists for the benchmark's workloads.

Every workload is a list of operations; each operation is one argv for
``mvb.cli.run`` with the exit code it must return.  Inputs are written
to a work directory before the pass starts and operations name them by
relative path, so the argv (and the golden record keyed by it) does not
depend on where the checkout lives.

Seed 0 reproduces the acceptance corpus of ``tests/test_acceptance.py``
and ``twisted_instance(9, n=5, max_dim=1, n_points=1, n_charts=2)`` byte
for byte.  Another seed changes the sign of fiber coordinates, chart by
chart and point by point, in every generated atlas and gauge: the inputs
are isomorphic copies whose entries have the same magnitudes.  New
random frames would be a wider sample, but they change the size of the
rationals and with it the work of a pass, so a seed would move the
timings by more than a change to the program is meant to show.
"""

import json
import os
import random
from fractions import Fraction

from mvb import formats
from mvb.atlas import AtlasPresentation, FiniteBase, decomposed
from mvb.cubecat import full_set, nonempty_subsets
from mvb.exactlin import MultiTensor
from mvb.gauge import DimAssignment, Gauge
from mvb.rand import random_dims, random_gauge, twisted_instance
from mvb.tower import InfinityPresentation, StabilizingGenerator

DEFAULT_SEED = 0

# (name, twisted_instance seed, n, n_points, n_charts), max_dim 2: the
# acceptance corpus of tests/test_acceptance.py.
CORPUS_TWISTED = (
    ("tw-n1", 501, 1, 2, 2),
    ("tw-n2a", 502, 2, 2, 2),
    ("tw-n2b", 503, 2, 4, 3),
    ("tw-n3a", 504, 3, 2, 2),
    ("tw-n3b", 505, 3, 3, 3),
    ("tw-n4", 506, 4, 2, 2),
)
CORPUS_DECOMPOSED = (("dec-n2", 2, ("p", "q")), ("dec-n3", 3, ("p",)),
                     ("dec-n4", 4, ("p",)))
STRATEGIES = ("least-chart", "uniform-average")

# `mvb gen` arguments (seed, n, points, charts, max_dim): 42-127 KB
# atlases, each with a point in exactly three charts.  The benchmark
# seed leaves them alone, since another gen seed is another amount of
# work.
INGEST_GEN = ((601, 3, 6, 4, 2), (602, 4, 4, 3, 1), (603, 3, 6, 4, 2),
              (604, 4, 3, 3, 1))
# (n, max_dim) of the random gauges handed to `mvb stato`.
STATO_SHAPES = ((3, 2), (4, 2), (5, 1))


class Op:
    """One CLI invocation: a label, its argv and the exit code it must give.

    ``prepare`` runs before the operation, outside its timing, in the
    work directory (used to derive an input from an earlier op's output).
    ``known_defect`` describes how the program mishandles the op's input
    today; such an op still counts as failed while the defect stands.
    """

    def __init__(self, label, argv, expect=0, prepare=None, known_defect=None,
                 counterexamples=0):
        self.label = label
        self.argv = list(argv)
        self.expect = expect
        self.prepare = prepare
        self.known_defect = known_defect
        self.counterexamples = counterexamples

    @property
    def subcommand(self):
        return self.argv[0]


def signs(rng, dims, flip):
    """A sign for every fiber coordinate of every subset; all +1 unless ``flip``."""
    return {subset: [rng.choice((-1, 1)) if flip else 1 for _ in range(dims.dim(subset))]
            for subset in nonempty_subsets(full_set(dims.n))}


def conjugate(gauge, left, right):
    """``E_left . gauge . E_right^-1`` for the sign changes of fiber
    coordinates ``left`` and ``right``: every entry keeps its magnitude,
    so the arithmetic on the result costs what it cost on ``gauge``."""
    components = {}
    for (subset, rho), tensor in gauge.components.items():
        weights = [1]
        for factor in [left[subset]] + [right[block] for block in rho]:
            weights = [w * f for w in weights for f in factor]
        components[(subset, rho)] = MultiTensor(
            tensor.out_dim, tensor.in_dims,
            [e * w for e, w in zip(tensor.entries, weights)])
    return Gauge(gauge.source_dims, gauge.target_dims, components)


def twisted(seed, shift, n, max_dim=2, n_points=2, n_charts=2):
    """``twisted_instance(seed, ...)`` with the fiber coordinates of each
    chart at each point changed in sign, drawn from ``shift``; shift 0
    changes nothing.  The result is an isomorphic atlas with different
    entries of the same magnitudes."""
    atlas = twisted_instance(seed, n=n, max_dim=max_dim, n_points=n_points,
                             n_charts=n_charts)
    rng = random.Random("signs:%d:%d" % (seed, shift))
    frame_signs = {(c.id, p): signs(rng, atlas.dims, shift != 0)
                   for c in atlas.charts for p in c.domain}
    transitions = {
        (dst, src, p): conjugate(g, frame_signs[(dst, p)], frame_signs[(src, p)])
        for (dst, src, p), g in sorted(atlas.transitions.items())}
    return AtlasPresentation(atlas.n, atlas.dims, atlas.base, atlas.charts, transitions)


def unit_dims(n):
    return DimAssignment(n, {s: 1 for s in nonempty_subsets(full_set(n))})


def write(workdir, name, data):
    with open(os.path.join(workdir, name), "wb") as handle:
        handle.write(data)
    return name


def corpus(workdir, shift):
    fixtures = {}
    for name, n, points in CORPUS_DECOMPOSED:
        fixtures[name] = decomposed(unit_dims(n), FiniteBase(list(points)))
    for name, seed, n, n_points, n_charts in CORPUS_TWISTED:
        fixtures[name] = twisted(seed, shift, n, 2, n_points, n_charts)
    files = {name: write(workdir, name + ".json", formats.dumps(fixture))
             for name, fixture in fixtures.items()}
    generator = InfinityPresentation(StabilizingGenerator(fixtures["tw-n3a"]))
    write(workdir, "gen-tw-n3a.json", formats.dumps(generator))

    ops = []
    for name in [d[0] for d in CORPUS_DECOMPOSED] + [t[0] for t in CORPUS_TWISTED]:
        for strategy in STRATEGIES:
            ops.append(Op("decompose:%s:%s" % (name, strategy),
                          ["decompose", files[name], "--strategy", strategy]))
    ops.append(Op("torsor:tw-n3b", ["torsor", files["tw-n3b"]]))
    ops.append(Op("normalize:tw-n3b", ["normalize", files["tw-n3b"]]))
    ops.append(Op("lift3:tw-n3a", ["lift3", files["tw-n3a"]]))
    ops.append(Op("lift3:tw-n3b", ["lift3", files["tw-n3b"]]))
    ops.append(Op("inf:tw-n3a", ["inf", "decompose", "gen-tw-n3a.json", "--n", "3"]))
    return ops


def n5_unit(workdir, shift):
    instance = twisted(9, shift, 5, max_dim=1, n_points=1, n_charts=2)
    path = write(workdir, "tw-n5-unit.json", formats.dumps(instance))
    return [Op("decompose:tw-n5-unit", ["decompose", path])]


def _perturb(source, target, seed, shift):
    """Write ``target``: ``source`` with one transition pair twisted by a
    statomorphism at a point in exactly three charts, so that exactly
    one triple cocycle fails."""
    from mvb.atlas import perturb_transition

    def prepare():
        with open(source, "rb") as handle:
            atlas = formats.parse(handle.read())
        point = next(p for p in atlas.base if len(atlas.charts_at(p)) == 3)
        src, dst = sorted(atlas.charts_at(point))[:2]
        rng = random.Random(seed)
        tau = random_gauge(rng, atlas.dims, statomorphism=True)
        while tau.is_identity():
            tau = random_gauge(rng, atlas.dims, statomorphism=True)
        flips = signs(random.Random("tau:%d:%d" % (seed, shift)), atlas.dims, shift != 0)
        tau = conjugate(tau, flips, flips)
        perturbed = perturb_transition(atlas, dst, src, point, tau)
        write(".", target, formats.dumps(perturbed))
    return prepare


def _malformed(workdir, shift):
    """Malformed atlases, each an edited copy of a valid one, that must be
    rejected as input errors (exit 2)."""
    atlas = formats.atlas_to_json(twisted(510, shift, 2, 2, 2, 2))
    dims = {tuple(d["set"]): d["dim"] for d in atlas["dims"]}

    outside = json.loads(json.dumps(atlas))
    outside["transitions"][0]["gauge"]["components"].append({
        "target": [3], "blocks": [[3]],
        "tensor": formats.tensor_to_json(MultiTensor.identity(1))})

    bad_n = json.loads(json.dumps(atlas))
    bad_n["n"] = "x"

    dropped = json.loads(json.dumps(atlas))
    out_dim, in_dim = dims[(1, 2)], dims[(1,)]
    dropped["transitions"][0]["gauge"]["components"].append({
        "target": [1, 2], "blocks": [[1]],
        "tensor": formats.tensor_to_json(MultiTensor(
            out_dim, (in_dim,), [Fraction(1)] * (out_dim * in_dim)))})

    cases = (
        ("target-outside-cube", outside, "a component target outside the cube"
         " raises KeyError out of cli.run"),
        ("n-not-integer", bad_n, '"n": "x" raises ValueError out of cli.run'),
        ("blocks-not-partition", dropped, "a component whose blocks do not"
         " partition its target is dropped and the atlas validates"),
    )
    ops = []
    for name, body, defect in cases:
        path = write(workdir, "malformed-%s.json" % name, formats.canonical_bytes(body))
        ops.append(Op("validate:malformed-%s" % name, ["validate", path],
                      expect=2, known_defect=defect))
    return ops


def ingest(workdir, shift):
    ops = []
    for seed, n, points, charts, max_dim in INGEST_GEN:
        name, perturbed = "gen-%d.json" % seed, "perturbed-%d.json" % seed
        ops.append(Op("gen:%d" % seed,
                      ["gen", "--seed", str(seed), "--n", str(n), "--points",
                       str(points), "--charts", str(charts), "--max-dim",
                       str(max_dim), "-o", name]))
        ops.append(Op("validate:gen-%d" % seed, ["validate", name]))
        ops.append(Op("validate:perturbed-%d" % seed, ["validate", perturbed],
                      expect=1, counterexamples=1,
                      prepare=_perturb(name, perturbed, seed, shift)))
    for n, max_dim in STATO_SHAPES:
        rng = random.Random(700 + n)
        dims = random_dims(rng, n, max_dim=max_dim, min_dim=1)
        flips = signs(random.Random("stato:%d:%d" % (n, shift)), dims, shift != 0)
        gauges = {
            "a": random_gauge(rng, dims),
            "b": random_gauge(rng, dims),
            "s": random_gauge(rng, dims, statomorphism=True),
        }
        files = {key: write(workdir, "gauge-n%d-%s.json" % (n, key),
                            formats.dumps(conjugate(g, flips, flips)))
                 for key, g in gauges.items()}
        ops.append(Op("stato:compose:n%d" % n,
                      ["stato", "compose", files["a"], files["b"],
                       "-o", "composed-n%d.json" % n]))
        ops.append(Op("stato:invert:n%d" % n,
                      ["stato", "invert", files["a"], "-o", "inverted-n%d.json" % n]))
        ops.append(Op("stato:check:n%d" % n, ["stato", "check", files["s"]]))
    ops.extend(_malformed(workdir, shift))
    return ops


BUILDERS = {"corpus": corpus, "n5-unit": n5_unit, "ingest": ingest}


def setup(name, workdir, seed):
    """Write the inputs of workload ``name`` for ``seed``; return its ops."""
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[name](workdir, seed - DEFAULT_SEED)
