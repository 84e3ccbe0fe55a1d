"""Benchmark of the mvb command line, one workload per run.

    python3 bench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Each pass is a fresh process (``child.py``) that imports mvb from this
checkout's ``src/``, writes the workload's inputs, and calls
``mvb.cli.run(argv)`` once per operation, one at a time, with no
threads.  A run makes passes one after another until the next one would
end after ``--seconds``, and always at least one; it then times the
set-up in further fresh processes until it has three samples.

``--trace 0`` reports the end-to-end metrics: medians over the passes
(over the set-up samples for ``setup_s``).  A pass's time is reported
as ``pass_kref``, its work in thousands of reference loops timed inside
the pass (see ``speed.py``), because on a shared machine its wall time
drifts with the neighbours; the wall times are printed beside it.
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics of the traced one, the per-subcommand times of the
untraced one, and the ratio of the two pass times.  Every operation's
exit code and report
hash are checked (see ``child.check``); the last line of the output is
one JSON object with the result.  Each run replaces the work directory
``bench/out/<workload>/``, which keeps every pass's result and the
spans of a traced pass.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("corpus", "n5-unit", "ingest")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("pass_kref", "kref"), ("peak_rss_mb", "MB"))
SUBCOMMANDS = ("decompose", "torsor", "normalize", "lift3", "inf", "gen",
               "validate", "stato")
# Per-layer spans reported as <name>.calls and <name>.self_s.
SPANS = (
    "cubecat.partitions", "cubecat.subsets", "cubecat.nonempty_subsets",
    "cubecat.coarsen",
    "exactlin.MultiTensor.apply", "exactlin.compose_tensors", "exactlin.rank",
    "exactlin.solve_linear", "exactlin.invert_matrix", "exactlin.kernel_basis",
    "gauge.Gauge.init", "gauge.Gauge.compose", "gauge.Gauge.invert",
    "gauge.Gauge.evaluate", "gauge.Gauge.diagonal_restrict",
    "gauge.Gauge.is_statomorphism",
    "atlas.validate", "atlas.associated_decomposed", "atlas.associated_vacant",
    "bundle.element", "bundle.add", "bundle.transport",
    "bundle.morphism_from_canonical", "bundle.BundleMorphism.apply",
    "bundle.BundleMorphism.compose", "bundle.BundleMorphism.is_natural",
    "cores.partition_core",
    "split.DecompositionBuilder.splitting", "split.DecompositionBuilder.decomposition",
    "split.is_decomposition", "split.torsor_statomorphism",
    "split.act_by_statomorphism", "split.normalize_atlas",
    "sections.decomposition_to_lift", "sections.lift_to_decomposition",
    "sections.doubly_linear_sequence",
    "tower.decompose_infinity", "tower.TowerDecomposition.level",
    "tower.TowerDecomposition.node_map_agrees",
    "formats.parse", "formats.dumps", "formats.canonical_bytes", "formats.fingerprint",
)
COUNTERS = (
    ("cubecat.IndexSet.new.calls", "count"), ("cubecat.Partition.new.calls", "count"),
    ("split.DecompositionBuilder.splitting.distinct_keys", "count"),
    ("split.DecompositionBuilder.decomposition.distinct_keys", "count"),
    ("formats.parse.bytes_in", "B"), ("formats.dumps.bytes_out", "B"),
    ("formats.canonical_bytes.bytes_out", "B"),
)
MODULES = ("cubecat", "exactlin", "gauge", "atlas", "bundle", "cores", "split",
           "sections", "tower", "formats", "cli", "rand")


def per_layer_spec():
    """(name, unit) of every per-layer metric, in report order."""
    spec = []
    for name in SPANS:
        spec += [(name + ".calls", "count"), (name + ".self_s", "s")]
    spec += list(COUNTERS)
    spec += [(module + ".self_s", "s") for module in MODULES]
    spec += [("split.cache_hit_ratio", "ratio"), ("cli.run.calls", "count"),
             ("trace.overhead_ratio", "ratio"), ("trace.pass_kref", "kref"),
             ("trace.untraced_pass_kref", "kref")]
    spec += [(sub + "_kref", "kref") for sub in SUBCOMMANDS]
    return spec


class BenchError(Exception):
    pass


def machine_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = " ".join("%.2f" % x for x in os.getloadavg())
    except OSError:
        load = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model, "loadavg_at_start": load}


def run_child(args, rundir, index, deadline, extra=()):
    workdir = os.path.join(rundir, "p%d" % index)
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    command = [sys.executable, CHILD, "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", os.path.join(workdir, "inputs"),
               "--result", result] + list(extra)
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdin=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not end within the run's %ds limit" % RUN_LIMIT_S)
    if proc.returncode != 0:
        raise BenchError("pass process exited with code %d" % proc.returncode)
    with open(result) as handle:
        out = json.load(handle)
    shutil.rmtree(os.path.join(workdir, "inputs"), ignore_errors=True)
    out["wall_s"] = time.monotonic() - started
    return out


def judge(passes):
    """(attempted, failed, correct) over passes of the same op list.

    ``failed`` counts the distinct ops that failed in any pass.  The run
    is correct when every failed op is marked as a known defect of the
    program (an input it is known to mishandle); any other failure means
    the program's output is wrong.
    """
    labels = [row["label"] for row in passes[0]["ops"]]
    failed, unexpected = set(), set()
    for p in passes:
        if [row["label"] for row in p["ops"]] != labels:
            raise BenchError("passes ran different operations")
        for row in p["ops"]:
            if row["problems"]:
                failed.add(row["label"])
                if not row["known_defect"]:
                    unexpected.add(row["label"])
    return len(labels), len(failed), not unexpected


def subcommand_sums(p, key):
    sums = {}
    for row in p["ops"]:
        sums[row["subcommand"]] = sums.get(row["subcommand"], 0.0) + row[key]
    return sums


def print_ops(passes, title):
    print("# %s: %d pass(es); per op: median wall s, median kref, exit/expected,"
          " report hash" % (title, len(passes)))
    for i, row in enumerate(passes[0]["ops"]):
        wall = statistics.median(p["ops"][i]["wall_s"] for p in passes)
        kref = statistics.median(p["ops"][i]["kref"] for p in passes)
        digest = (row["report_hash"] or "-")[:16]
        print("op  %-42s %9.4f s %9.4f kref  %s/%s  %s%s" % (
            row["label"], wall, kref, row["exit"], row["expect"], digest,
            "  FAILED: %s" % "; ".join(row["problems"]) if row["problems"] else ""))
        if row["problems"] and row["known_defect"]:
            print("    known defect: %s" % row["known_defect"])
    walls = [subcommand_sums(p, "wall_s") for p in passes]
    krefs = [subcommand_sums(p, "kref") for p in passes]
    for sub in SUBCOMMANDS:
        if sub in walls[0]:
            print("sub %-42s %9.4f s %9.4f kref" % (
                sub, statistics.median(s[sub] for s in walls),
                statistics.median(s[sub] for s in krefs)))
    for p in passes:
        print("# pass: %.4f s wall, %.4f kref, %d probes, %.1f reference loops/s"
              % (p["pass_s"], p["pass_kref"], p["probes"], p["probe_speed"]))


def end_to_end(args, rundir, deadline):
    started = time.monotonic()
    passes = []
    while True:
        passes.append(run_child(args, rundir, len(passes), deadline))
        elapsed = time.monotonic() - started
        if elapsed + passes[-1]["wall_s"] > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(args, rundir, len(passes) + len(setups), deadline,
                                ["--setup-only"])["setup_s"])
    print_ops(passes, "untraced")
    print("# setup_s samples: %s" % " ".join("%.4f" % s for s in setups))
    values = {
        "setup_s": statistics.median(setups),
        "pass_kref": statistics.median(p["pass_kref"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return passes, metrics, True


def per_layer(args, rundir, deadline):
    untraced = run_child(args, rundir, 0, deadline)
    traced = run_child(args, rundir, 1, deadline, ["--trace"])
    print_ops([untraced], "untraced")
    print_ops([traced], "traced")
    same = [a["report_hash"] == b["report_hash"]
            for a, b in zip(untraced["ops"], traced["ops"])]
    if not all(same):
        print("# traced report hashes differ from untraced ones")

    trace = traced["trace"]
    spans, counters = trace["spans"], trace["counters"]
    values = {}
    for name in SPANS:
        values[name + ".calls"] = spans.get(name, {}).get("calls", 0)
        values[name + ".self_s"] = spans.get(name, {}).get("self_s", 0.0)
    for name, _ in COUNTERS:
        values[name] = counters.get(name, 0)
    for module in MODULES:
        values[module + ".self_s"] = sum(
            s["self_s"] for name, s in spans.items() if name.startswith(module + "."))
    keyed = ("split.DecompositionBuilder.splitting", "split.DecompositionBuilder.decomposition")
    calls = sum(values[k + ".calls"] for k in keyed)
    distinct = sum(values[k + ".distinct_keys"] for k in keyed)
    values["split.cache_hit_ratio"] = 1.0 - distinct / calls if calls else 0.0
    values["cli.run.calls"] = spans.get("cli.run", {}).get("calls", 0)
    values["trace.pass_kref"] = traced["pass_kref"]
    values["trace.untraced_pass_kref"] = untraced["pass_kref"]
    values["trace.overhead_ratio"] = traced["pass_kref"] / untraced["pass_kref"]
    sums = subcommand_sums(untraced, "kref")
    for sub in SUBCOMMANDS:
        values[sub + "_kref"] = sums.get(sub, 0.0)

    print("# spans: %d recorded, written to %s" % (
        trace["span_count"], os.path.relpath(
            os.path.join(rundir, "p1", "spans.bin"), ROOT)))
    print("# top self time (all wrapped callables), traced pass:")
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:25]:
        print("top %-58s %10d calls %9.4f s" % (name, s["calls"], s["self_s"]))
    for name, count in sorted(counters.items()):
        print("count %-56s %12d" % (name, count))
    print("# split.cache_hit_ratio base: %d builder calls, %d distinct (builder, key)"
          % (calls, distinct))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_spec()}
    return [untraced, traced], metrics, all(same)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "mvb", "__init__.py")):
        sys.stderr.write("bench: no mvb sources under %s\n" % os.path.join(ROOT, "src"))
        return 2

    info = machine_info()
    print("# mvb bench: workload %s, seed %d, seconds %d, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for key, value in info.items():
        print("# machine %s: %s" % (key, value))
    rundir = os.path.join(OUT, args.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        if args.trace:
            passes, metrics, consistent = per_layer(args, rundir, deadline)
        else:
            passes, metrics, consistent = end_to_end(args, rundir, deadline)
        attempted, failed, correct = judge(passes)
    except BenchError as err:
        sys.stderr.write("bench: %s\n" % err)
        return 1
    print("# ops per pass: %d attempted, %d failed" % (attempted, failed))
    for name, metric in metrics.items():
        print("metric %-58s %14.6f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": correct and consistent, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
