"""One fresh process: set up a workload, run one pass of it, check it.

Run by ``run.py``; not meant to be called by hand except to record
golden values.  The clock starts before ``mvb`` is imported, so the
set-up time holds the import and the input generation.  Results go to
the JSON file named by ``--result``.

    python3 bench/child.py --workload corpus --seed 0 --workdir W --result R
        [--setup-only] [--trace] [--record-golden]
"""

import time

STARTED = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import resource
import sys

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")


def import_mvb():
    """Import mvb from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mvb", "__init__.py")):
        raise SystemExit("bench: no mvb sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import mvb
    import mvb.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(mvb.__file__))) != SRC:
        raise SystemExit("bench: imported mvb from %s, not %s" % (mvb.__file__, SRC))
    return mvb.cli


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(op.argv)
        error = None
    except Exception as exc:  # an uncaught exception is an op failure, not a crash
        code, error = None, "%s: %s" % (type(exc).__name__, exc)
    ended = time.perf_counter()
    return {"label": op.label, "subcommand": op.subcommand, "argv": op.argv,
            "expect": op.expect, "known_defect": op.known_defect,
            "counterexamples": op.counterexamples, "started": started,
            "wall_s": ended - started, "exit": code, "error": error,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-500:]}


def report_of(outcome):
    lines = outcome["stdout"].strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check(outcome, golden):
    """Judge one op; returns (report_hash or None, list of problems).

    With a golden entry the exit code and report hash must match it.
    Without one (a seed other than the default) the exit code must be
    the expected one and the report must carry what that code promises:
    every certificate passing for exit 0, the stated number of
    counterexamples for exit 1.
    """
    problems = []
    report = report_of(outcome)
    digest = report.get("report_hash") if report else None
    if outcome["error"]:
        problems.append("uncaught %s" % outcome["error"])
    elif outcome["exit"] != outcome["expect"]:
        problems.append("exit %s, expected %s" % (outcome["exit"], outcome["expect"]))
    if golden is not None:
        if golden["argv"] != outcome["argv"]:
            problems.append("argv differs from the golden record")
        if golden["exit"] != outcome["expect"]:
            problems.append("golden exit %s, op expects %s"
                            % (golden["exit"], outcome["expect"]))
        if outcome["exit"] == golden["exit"] and digest != golden["report_hash"]:
            problems.append("report_hash %s, golden %s" % (digest, golden["report_hash"]))
    elif outcome["exit"] == outcome["expect"] and outcome["expect"] in (0, 1):
        if report is None:
            problems.append("no report")
        elif outcome["expect"] == 0:
            if report["status"] != "ok" or any(
                    c.get("status") != "pass" for c in report["certificates"]):
                problems.append("a certificate does not pass")
        elif len(report["counterexamples"]) != outcome["counterexamples"]:
            problems.append("%d counterexamples, expected %d"
                            % (len(report["counterexamples"]), outcome["counterexamples"]))
    return digest, problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    cli = import_mvb()
    import workloads
    ops = workloads.setup(args.workload, args.workdir, args.seed)
    setup_s = time.perf_counter() - STARTED
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if not args.setup_only:
        goldens = None
        if args.seed == workloads.DEFAULT_SEED and not args.record_golden:
            with open(GOLDEN) as handle:
                goldens = json.load(handle)[args.workload]
        result.update(one_pass(cli, ops, goldens, args))
    with open(args.result, "w") as handle:
        json.dump(result, handle)


def one_pass(cli, ops, goldens, args):
    recorder = None
    if args.trace:
        import tracer
        recorder = tracer.Recorder()
        tracer.install(recorder)
    os.chdir(args.workdir)
    outcomes = []
    try:
        with SpeedProbe() as probe:
            started = time.perf_counter()
            for op in ops:
                if op.prepare is not None:
                    with recorder.paused() if recorder else contextlib.nullcontext():
                        op.prepare()
                outcomes.append(run_op(cli, op))
            ended = time.perf_counter()
    finally:
        if recorder is not None:
            tracer.uninstall(recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = ended - started
    for outcome in outcomes:
        start = outcome["started"]
        work = outcome["wall_s"] - probe.probe_seconds(start, start + outcome["wall_s"])
        outcome["kref"] = probe.kref(work)

    rows = []
    for outcome in outcomes:
        golden = goldens.get(outcome["label"]) if goldens is not None else None
        if goldens is not None and golden is None:
            digest, problems = None, ["no golden record"]
        else:
            digest, problems = check(outcome, golden)
        rows.append({key: outcome[key] for key in
                     ("label", "subcommand", "wall_s", "kref", "exit", "expect",
                      "known_defect")}
                    | {"report_hash": digest, "problems": problems,
                       "stderr": outcome["stderr"] if problems else ""})
    if args.record_golden:
        record_golden(args.workload, outcomes, rows)
    out = {"pass_s": pass_s,
           "pass_kref": probe.kref(pass_s - probe.probe_seconds(started, ended)),
           "probe_speed": probe.speed(),
           "probes": len(probe.probes), "peak_rss_mb": peak_rss_mb, "ops": rows}
    if recorder is not None:
        out["trace"] = recorder.summary()
        recorder.write_spans(os.path.join(os.path.dirname(args.result), "spans.bin"))
    return out


def record_golden(workload, outcomes, rows):
    """Store this pass's exit codes and report hashes as the golden values.

    An op whose exit differs from the code it is expected to give is
    stored with its expected code and no hash: the defect stays visible
    as a failure instead of becoming the reference.
    """
    table = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as handle:
            table = json.load(handle)
    entries = {}
    for outcome, row in zip(outcomes, rows):
        ok = outcome["exit"] == outcome["expect"] and not outcome["error"]
        entries[outcome["label"]] = {
            "argv": outcome["argv"],
            "exit": outcome["expect"],
            "report_hash": row["report_hash"] if ok else None,
        }
    table[workload] = entries
    with open(GOLDEN, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
