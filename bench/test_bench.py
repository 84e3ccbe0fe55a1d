"""Tests of the benchmark itself:  python3 -m pytest -q bench"""

import contextlib
import io
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402

cli = child.import_mvb()

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mvb import formats  # noqa: E402
from mvb.rand import twisted_instance  # noqa: E402


def snapshot():
    """Every attribute of every loaded mvb module and of the classes they define."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "mvb" or name.startswith("mvb."):
            for attr, value in vars(module).items():
                state[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for member, obj in vars(value).items():
                        state[(name, attr, member)] = obj
    return state


def installed_wrappers():
    """Names of mvb callables that are currently tracer wrappers."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "mvb" and not module_name.startswith("mvb."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "__wrapped__"):
                found.append("%s.%s" % (module_name, attr))
            if isinstance(value, type):
                for method, member in vars(value).items():
                    if hasattr(getattr(member, "__func__", member), "__wrapped__"):
                        found.append("%s.%s.%s" % (module_name, attr, method))
    return found


def report_hash(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return json.loads(out.getvalue())["report_hash"]


def test_traced_run_removes_its_wrappers(tmp_path):
    path = str(tmp_path / "a.json")
    with open(path, "wb") as handle:
        handle.write(formats.dumps(twisted_instance(5, n=2)))
    argv = ["decompose", path]
    before = snapshot()
    untraced = report_hash(argv)

    recorder = tracer.Recorder()
    tracer.install(recorder)
    try:
        assert installed_wrappers()
        traced = report_hash(argv)
    finally:
        tracer.uninstall(recorder)

    assert installed_wrappers() == []
    after = snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    assert traced == untraced
    summary = recorder.summary()
    assert summary["spans"]["cli.run"]["calls"] == 1
    assert summary["spans"]["split.DecompositionBuilder.decomposition"]["calls"] >= 1
    assert summary["counters"]["cubecat.IndexSet.new.calls"] > 0
    assert summary["counters"]["split.DecompositionBuilder.splitting.distinct_keys"] >= 1
    # the wrapper of cli.run sees everything else nested inside it
    self_total = sum(s["self_s"] for s in summary["spans"].values())
    n = summary["span_count"]
    roots = [i for i in range(n) if recorder.span_parent[i] == -1]
    assert len(roots) == 1
    root_s = recorder.span_end[roots[0]] - recorder.span_start[roots[0]]
    assert abs(self_total - root_s) < 1e-6 * max(1.0, root_s) + 1e-9


def test_golden_check_flags_a_wrong_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    op = workloads.Op("gen:small", ["gen", "--seed", "3", "--n", "2"])
    outcome = child.run_op(cli, op)
    digest, problems = child.check(outcome, None)
    assert problems == [] and digest

    golden = {"argv": op.argv, "exit": 0, "report_hash": digest}
    assert child.check(outcome, golden) == (digest, [])
    wrong = dict(golden, report_hash=digest[::-1])
    _, problems = child.check(outcome, wrong)
    assert problems and "report_hash" in problems[0]

    failing = workloads.Op("validate:missing", ["validate", "no-such-file.json"])
    _, problems = child.check(child.run_op(cli, failing), None)
    assert problems == ["exit 2, expected 0"]


def test_seeded_inputs_are_byte_identical(tmp_path):
    contents = []
    for attempt in ("a", "b"):
        workdir = str(tmp_path / attempt)
        ops = workloads.setup("ingest", workdir, 3)
        contents.append({name: open(os.path.join(workdir, name), "rb").read()
                         for name in sorted(os.listdir(workdir))})
        assert [op.argv for op in ops]
    assert contents[0] == contents[1]
    assert len(contents[0]) >= 12


def test_default_seed_is_the_acceptance_corpus_and_other_seeds_keep_shape():
    for name, seed, n, n_points, n_charts in workloads.CORPUS_TWISTED[:5]:
        expected = twisted_instance(seed, n=n, n_points=n_points, n_charts=n_charts)
        assert formats.dumps(workloads.twisted(seed, 0, n, 2, n_points, n_charts)) \
            == formats.dumps(expected), name
        other = workloads.twisted(seed, 7, n, 2, n_points, n_charts)
        assert other.dims == expected.dims and other.charts == expected.charts
        if any(dst != src for dst, src, _ in expected.transitions):
            assert formats.dumps(other) != formats.dumps(expected), name
        for key, g in expected.transitions.items():
            h = other.transitions[key]
            for comp, tensor in g.components.items():
                assert [abs(x) for x in h.components[comp].entries] == \
                    [abs(x) for x in tensor.entries]


def test_known_defects_fail_without_making_the_run_incorrect():
    def one_pass(*rows):
        return {"ops": [{"label": label, "problems": problems, "known_defect": defect}
                        for label, problems, defect in rows]}
    ok = ("a", [], None)
    known = ("b", ["exit 0, expected 2"], "drops a component")
    wrong = ("c", ["report_hash x, golden y"], None)
    assert run.judge([one_pass(ok, known), one_pass(ok, known)]) == (2, 1, True)
    assert run.judge([one_pass(ok, wrong)]) == (2, 1, False)


def test_speed_probe_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.probes) == 1 and probe.kref(1.0) > 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(workloads.BUILDERS) == sorted(run.WORKLOADS)
