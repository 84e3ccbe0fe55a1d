"""Command-line surface: parse instances, run operations, emit reports.

Every run prints one machine-readable report: the command, a content
fingerprint of the primary input, a status, certificates, and any
counterexamples.  Reports are deterministic for fixed input, flags, and
seed; the timing field is excluded from the report hash.  A result is
encoded to canonical JSON text once; the report hash, stdout and the
``-o`` file reuse that text, streamed piece by piece.  Exit codes:
0 success, 1 semantic failure (references a counterexample), 2 usage or
input errors.  ``COMMANDS`` is the table of subcommands, each with its
``fn`` and arguments; a run builds the parser of its own subcommand only.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time

from . import formats
from .atlas import AtlasPresentation, validate
from .bundle import hom_bundle, tangent_prolongation
from .certify import Certificate
from .cores import (
    core,
    core_by_stages,
    core_closure_certificate,
    face,
    pullback,
    ultracore_sequence,
)
from .cubecat import IndexSet
from .errors import MvbError, ParseError, SchemaError, SemanticError
from .gauge import Gauge
from .rand import twisted_instance
from .split import (
    STRATEGIES,
    act_by_statomorphism,
    decompose,
    decompositions,
    find_splitting,
    is_decomposition,
    is_splitting,
    normalize_atlas,
    torsor_statomorphism,
)
from .tower import InfinityPresentation, decompose_infinity

FIXTURE_ENV = "MVB_FIXTURES"


def _resolve(path):
    if os.path.exists(path):
        return path
    root = os.environ.get(FIXTURE_ENV)
    if root:
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
    raise FileNotFoundError(path)


def _load(path):
    with open(_resolve(path), "rb") as handle:
        return handle.read()


def _load_as(path, kind, noun):
    """The object a file holds, which must be a ``kind`` (``noun`` in errors)."""
    obj = formats.parse(_load(path))
    if not isinstance(obj, kind):
        raise SchemaError("%s does not hold %s" % (path, noun))
    return obj


def _subset(text):
    try:
        return IndexSet(int(x) for x in str(text).split(",") if x != "")
    except Exception:
        raise SchemaError("bad index set %r (expected e.g. 1,2)" % (text,))


def _at_least(low):
    """An argparse type: an integer of at least ``low``; argparse names
    the flag in the error and exits 2."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % (text,))
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    return parse


class Report:
    def __init__(self, command, fingerprint):
        self.command = command
        self.fingerprint = fingerprint
        self.status = "ok"
        self.certificates = []
        self.counterexamples = []
        self.result = self.outfile = None
        self.started = time.monotonic()

    def add_certificate(self, cert):
        self.certificates.append(cert.to_dict())
        if not cert.passed:
            self.status = "fail"

    def claim(self, text, ok, witnesses=None):
        """Certify a claim checked here: pass when ``ok``."""
        self.add_certificate(Certificate(text, "pass" if ok else "fail", witnesses))

    def add_counterexample(self, item):
        self.counterexamples.append(item)
        self.status = "fail"

    def set_result(self, text, outfile):
        """Keep the result's canonical JSON text, written once by the
        caller: the report hash, stdout and the ``-o`` file all read it."""
        self.result = text
        self.outfile = outfile

    def fields(self):
        """``(key, canonical JSON text)`` of every hashed field, in key
        order: the report hash is taken over exactly these."""
        fields = [(key, formats.canonical_text(value)) for key, value in (
            ("certificates", self.certificates), ("command", self.command),
            ("counterexamples", self.counterexamples),
            ("fingerprint", self.fingerprint))]
        if self.result is not None:
            fields.append(("result", self.result))
        fields.append(("status", formats.canonical_text(self.status)))
        return fields


def _write_object(write, fields):
    """Write a JSON object from canonical ``(key, text)`` pieces, piece by
    piece, never joining them."""
    for i, (key, text) in enumerate(fields):
        write('%s"%s":' % ("," if i else "{", key))
        write(text)
    write("}")


def _emit(report, args):
    fields = report.fields()
    digest = hashlib.sha256()
    _write_object(lambda text: digest.update(text.encode()), fields)
    report_hash = digest.hexdigest()
    timing_ms = int((time.monotonic() - report.started) * 1000)
    if args.output == "json":
        fields += [("report_hash", '"%s"' % report_hash), ("timing_ms", str(timing_ms))]
        _write_object(sys.stdout.write, sorted(fields))
        sys.stdout.write("\n")
    else:
        lines = [
            "command: %s" % report.command,
            "fingerprint: %s" % report.fingerprint,
            "status: %s" % report.status,
        ]
        for cert in report.certificates:
            lines.append("certificate: %s: %s" % (cert.get("claim"), cert.get("status")))
        for ce in report.counterexamples:
            lines.append("counterexample: %s" % json.dumps(ce, sort_keys=True))
        if report.result is not None:
            lines.append("result: %s" % report.result)
        lines.append("report_hash: %s" % report_hash)
        lines.append("timing_ms: %d" % timing_ms)
        sys.stdout.write("\n".join(lines) + "\n")
    if report.outfile and report.result is not None:
        with open(report.outfile, "wb") as handle:
            handle.write(report.result.encode())
            handle.write(b"\n")
    return 0 if report.status == "ok" else 1


def _validation_into(report, presentation):
    outcome = validate(presentation)
    if outcome.valid:
        report.claim("atlas validates", True)
    else:
        for violation in outcome.violations:
            report.add_counterexample(violation.to_dict())


def cmd_validate(report, presentation, args):
    _validation_into(report, presentation)


def cmd_face(report, presentation, args):
    result = face(presentation, _subset(args.outer), _subset(args.inner or ""))
    report.set_result(formats.to_text(result), args.out)
    _validation_into(report, result)


def cmd_core(report, presentation, args):
    blocks, pres = core(presentation, _subset(args.s), _subset(args.j), check=False)
    report.add_certificate(core_closure_certificate(presentation, blocks))
    report.set_result(formats.to_text(pres), args.out)


def cmd_core_stages(report, presentation, args):
    report.add_certificate(core_by_stages(
        presentation, _subset(args.s), _subset(args.j), _subset(args.k)))


def cmd_pullback(report, presentation, args):
    pb = pullback(presentation)
    report.add_certificate(pb.certificate)
    report.set_result(formats.to_text(pb.presentation), args.out)


def cmd_ultracore(report, presentation, args):
    iota, pi, cert = ultracore_sequence(presentation, args.k)
    report.add_certificate(cert)
    report.set_result('{"inclusion":%s,"projection":%s}'
                      % (formats.to_text(iota), formats.to_text(pi)), args.out)


def cmd_split(report, presentation, args):
    sigma = find_splitting(presentation, args.strategy)
    report.claim("output is a splitting", is_splitting(sigma))
    report.set_result(formats.to_text(sigma), args.out)


def cmd_decompose(report, presentation, args):
    dec = decompose(presentation, args.strategy)
    report.claim("output is a decomposition", is_decomposition(dec))
    report.set_result(formats.to_text(dec), args.out)


def cmd_normalize(report, presentation, args):
    normalized = normalize_atlas(presentation, decompose(presentation, args.strategy))
    diagonal = all(g.is_block_diagonal() for g in normalized.transitions.values())
    report.claim("normalized transitions are one-block", diagonal)
    _validation_into(report, normalized)
    report.set_result(formats.to_text(normalized), args.out)


def cmd_torsor(report, presentation, args):
    d1, d2 = decompositions(presentation, [args.strategy_a, args.strategy_b])
    tau = torsor_statomorphism(d1, d2)
    stato = all(g.is_statomorphism() for g in tau.data.values())
    report.claim("decompositions differ by a statomorphism", stato)
    round_trip = act_by_statomorphism(d1, tau).data == d2.data
    report.claim("acting then extracting round-trips", round_trip)
    report.set_result(formats.to_text(tau), args.out)


def cmd_stato(args):
    if args.action != "compose" and args.second is not None:
        raise SchemaError("stato %s reads one gauge file, got the extra argument %r"
                          % (args.action, args.second))
    report = Report("stato-%s" % args.action, "-")
    if args.action == "check":
        g = _load_as(args.gauge, Gauge, "a gauge")
        report.claim("gauge is a statomorphism", g.is_statomorphism())
    elif args.action == "invert":
        g = _load_as(args.gauge, Gauge, "a gauge")
        report.set_result(formats.to_text(g.invert()), args.out)
    else:
        if not args.second:
            raise SchemaError("stato compose needs two gauge files")
        g1 = _load_as(args.gauge, Gauge, "a gauge")
        g2 = _load_as(args.second, Gauge, "a gauge")
        report.set_result(formats.to_text(g1.compose(g2)), args.out)
    return _emit(report, args)


def cmd_hom(args):
    e_pres = _load_as(args.source, AtlasPresentation, "an atlas")
    f_pres = _load_as(args.target, AtlasPresentation, "an atlas")
    report = Report("hom", formats.fingerprint(e_pres))
    result = hom_bundle(e_pres, f_pres)
    _validation_into(report, result)
    report.set_result(formats.to_text(result), args.out)
    return _emit(report, args)


def cmd_tangent(report, presentation, args):
    result = tangent_prolongation(presentation)
    _validation_into(report, result)
    report.set_result(formats.to_text(result), args.out)


def cmd_lift2(report, presentation, args):
    # sections is imported here, not at the top: only lift2 and lift3
    # read it, and every other run would pay for compiling it
    from .sections import linear_module_certificate, local_split_double
    report.add_certificate(linear_module_certificate(presentation))
    built = local_split_double(presentation)
    report.claim("frame construction yields a splitting", is_splitting(built))
    report.set_result(formats.to_text(built), args.out)


def cmd_lift3(report, presentation, args):
    from .sections import decomposition_to_lift, doubly_linear_sequence, lift_to_decomposition
    report.add_certificate(doubly_linear_sequence(presentation))
    dec = decompose(presentation)
    pieces = decomposition_to_lift(presentation, dec)
    rebuilt = lift_to_decomposition(
        presentation, pieces["split_d"], pieces["split_e"], pieces["split_f"],
        pieces["split_lde"], pieces["split_lfd"], pieces["lift"])
    report.claim("horizontal lift round trip reproduces the decomposition",
                 rebuilt.data == dec.data)


def cmd_inf(args):
    infinity = _load_as(args.generator, InfinityPresentation, "a tower generator")
    report = Report("inf-%s" % args.action, formats.fingerprint(infinity))
    if args.action == "truncate":
        result = infinity.truncate(args.n)
        if args.n >= 1:
            _validation_into(report, result)
        report.set_result(formats.to_text(result), args.out)
    else:
        tower = decompose_infinity(infinity)
        dec = tower.level(args.n)
        ok = is_decomposition(dec)
        report.claim("level decomposition verifies", ok, [{"level": args.n}])
        agree = tower.node_map_agrees(
            IndexSet(range(1, args.n + 1)), args.n, args.n + 1)
        report.claim("next level restricts to this one", agree,
                     [{"levels": [args.n, args.n + 1]}])
        report.set_result(formats.to_text(dec), args.out)
    return _emit(report, args)


def cmd_gen(args):
    instance = twisted_instance(
        args.seed, n=args.n, max_dim=args.max_dim,
        n_points=args.points, n_charts=args.charts)
    report = Report("gen", None)
    report.set_result(formats.to_text(instance), args.out)
    # gen reads no input file: it fingerprints the atlas it generates
    report.fingerprint = hashlib.sha256(report.result.encode()).hexdigest()
    _validation_into(report, instance)
    return _emit(report, args)


_OUT = ("-o", "--out", {"default": None})
_REQUIRED = {"required": True}
_STRATEGY = {"default": "least-chart", "choices": STRATEGIES}


def _atlas_command(body, *flags):
    """The table entry of a subcommand on one atlas file: its ``fn`` loads
    and fingerprints the atlas, opens a report named after the subcommand,
    runs ``body(report, presentation, args)`` on it and emits it, so a
    check on every atlas input is made in one place."""
    def fn(args):
        presentation = _load_as(args.instance, AtlasPresentation, "an atlas")
        report = Report(args.command, formats.fingerprint(presentation))
        body(report, presentation, args)
        return _emit(report, args)
    return fn, (("instance", {}), _OUT) + flags


# Every subcommand, in the order usage lists them: its ``fn`` and its
# arguments, each a name or flags followed by ``add_argument``'s keywords.
COMMANDS = {
    "validate": _atlas_command(cmd_validate),
    "face": _atlas_command(cmd_face, ("--outer", _REQUIRED), ("--inner", {"default": None})),
    "core": _atlas_command(cmd_core, ("--s", _REQUIRED), ("--j", _REQUIRED)),
    "core-stages": _atlas_command(
        cmd_core_stages, ("--s", _REQUIRED), ("--j", _REQUIRED), ("--k", _REQUIRED)),
    "pullback": _atlas_command(cmd_pullback),
    "ultracore": _atlas_command(cmd_ultracore, ("--k", {"type": int, "required": True})),
    "split": _atlas_command(cmd_split, ("--strategy", _STRATEGY)),
    "decompose": _atlas_command(cmd_decompose, ("--strategy", _STRATEGY)),
    "normalize": _atlas_command(cmd_normalize, ("--strategy", _STRATEGY)),
    "torsor": _atlas_command(
        cmd_torsor, ("--strategy-a", _STRATEGY),
        ("--strategy-b", dict(_STRATEGY, default="uniform-average"))),
    "stato": (cmd_stato, (("action", {"choices": ("compose", "invert", "check")}),
                          ("gauge", {}), ("second", {"nargs": "?"}), _OUT)),
    "hom": (cmd_hom, (("source", {}), ("target", {}), _OUT)),
    "tangent": _atlas_command(cmd_tangent),
    "lift2": _atlas_command(cmd_lift2),
    "lift3": _atlas_command(cmd_lift3),
    "inf": (cmd_inf, (("action", {"choices": ("truncate", "decompose")}), ("generator", {}),
                      ("--n", {"type": int, "required": True}), _OUT)),
    "gen": (cmd_gen, (("--seed", {"type": int, "required": True}),
                      ("--n", {"type": _at_least(0), "default": 2}),
                      ("--points", {"type": _at_least(1), "default": 2}),
                      ("--charts", {"type": _at_least(1), "default": 2}),
                      ("--max-dim", {"type": _at_least(1), "default": 2}), _OUT)),
}


def build_parser(names=COMMANDS):
    """The ``mvb`` parser with the subparsers of ``names`` only, all of
    them by default."""
    parser = argparse.ArgumentParser(
        prog="mvb",
        description="Exact-arithmetic toolkit for multiple vector bundles "
                    "presented over finite bases.")
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        fn, arguments = COMMANDS[name]
        p = sub.add_parser(name)
        # the same flag is accepted after the subcommand; SUPPRESS keeps the
        # subparser from clobbering a value parsed at the top level
        p.add_argument("--output", choices=("json", "text"), default=argparse.SUPPRESS)
        for *flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(fn=fn)
    return parser


# Parsers by the subcommand they hold (None: all of them), each built on
# first use; filled in place, so the module's attributes keep their identity.
_PARSERS = {}


def _parser(name):
    if name not in _PARSERS:
        _PARSERS[name] = build_parser(COMMANDS if name is None else (name,))
    return _PARSERS[name]


def _parse(argv):
    """``argv`` parsed as by ``build_parser()``: first, silenced, by the parser
    of the first token naming a subcommand; on a help request or an error,
    again by the parser of all subcommands, which writes its own text."""
    name = next((token for token in argv if token in COMMANDS), None)
    if name is not None:
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return _parser(name).parse_args(argv)
        except SystemExit:
            pass
    return _parser(None).parse_args(argv)


def run(argv):
    try:
        args = _parse(argv)
    except SystemExit as err:
        return 2 if err.code else 0
    try:
        return args.fn(args)
    except (OSError, ParseError, SchemaError) as err:
        sys.stderr.write("input error: %s\n" % err)
        return 2
    except SemanticError as err:
        sys.stderr.write("semantic failure: %s\n" % err)
        return 1
    except MvbError as err:
        sys.stderr.write("error: %s\n" % err)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
