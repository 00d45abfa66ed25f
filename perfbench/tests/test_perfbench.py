"""Self-tests of the perfbench harness at ``--smoke`` size (<= 20 s)."""

import copy
import json
import subprocess
import sys

import pytest

import child
import compare
import results
import spans
from conftest import PERFBENCH

BENCHMARK = results.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
UNITS = {name: spec["unit"]
         for name, spec in results.metric_specs(BENCHMARK).items()}


def _run_cli(*args):
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--smoke", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def smoke_doc(tmp_path_factory):
    """One full smoke run: four workloads, untraced and traced."""
    out = tmp_path_factory.mktemp("perfbench") / "result.json"
    _run_cli("--seed", "0", "--out", str(out))
    with open(out) as handle:
        return json.load(handle)


def _traced(name, seed):
    return child.run_workload(name, seed, seconds=1.0, smoke=True, trace=True)


def _counts(run):
    return {name: value for name, value in run["metrics"].items()
            if UNITS[name] == "count"}


def test_result_document_validates(smoke_doc):
    assert results.validate(smoke_doc, BENCHMARK) == []
    assert [(r["workload"], r["trace"]) for r in smoke_doc["runs"]] == [
        (name, trace) for name in WORKLOADS for trace in (0, 1)
    ]
    for run in smoke_doc["runs"]:
        assert run["correct"] and run["failed"] == 0, run["checks"]
        assert run["attempted"] >= 1
    # A metric that does not apply to a workload is absent, not 0 or null.
    traced = {r["workload"]: r["metrics"] for r in smoke_doc["runs"] if r["trace"]}
    assert "serve.cache.hits" not in traced["conv_ssgd"]
    assert "comm.allgather_ms" not in traced["mlp_lowrank"]
    assert traced["mlp_sparse"]["comm.allgather_ms"]["value"] > 0
    assert "nn.forward.busy_ms" not in traced["plan_mixed"]


def test_validate_rejects_null_and_unknown_metrics(smoke_doc):
    doc = copy.deepcopy(smoke_doc)
    doc["runs"][0]["metrics"]["ops_per_s"]["value"] = None
    doc["runs"][0]["metrics"]["made.up"] = {"value": 1, "unit": "ms"}
    problems = results.validate(doc, BENCHMARK)
    assert any("ops_per_s" in p for p in problems)
    assert any("made.up" in p for p in problems)


def test_trace_file_is_chrome_trace(smoke_doc):
    run = next(r for r in smoke_doc["runs"] if r["trace"])
    with open(run["trace_file"]) as handle:
        trace = json.load(handle)
    event = trace["traceEvents"][0]
    assert event["ph"] == "X" and event["cat"] == spans.layer_of(event["name"])
    assert trace["counts"][event["name"]]["calls"] >= 1


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_line_carries_every_declared_metric(trace, declared):
    stdout = _run_cli("--workload", "plan_mixed", "--seed", "1",
                      "--trace", str(trace))
    line = json.loads(stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK[declared]]
    for name, metric in line["metrics"].items():
        assert metric["unit"] == UNITS[name]


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fixes_inputs_and_counts(name):
    first, again, other = _traced(name, 3), _traced(name, 3), _traced(name, 4)
    assert first["correct"] and again["correct"] and other["correct"]
    assert first["digests"] == again["digests"]
    assert _counts(first) == _counts(again) and _counts(first)
    for key, digest in first["digests"].items():
        assert other["digests"][key] != digest


def test_traced_run_restores_wrapped_callables():
    import repro.optim.aggregators as aggregators
    import repro.planner
    from repro.perf.arena import GradientArena
    from repro.serve import PlanQuery
    from repro.sim.engine import Engine

    def snapshot():
        return (vars(GradientArena)["bind"], aggregators.sparse_aggregate,
                repro.planner.plan, repro.planner.simulate_iteration,
                vars(PlanQuery)["cache_key"], vars(Engine)["run"])

    before = snapshot()
    for name in ("mlp_sparse", "plan_mixed"):
        run = _traced(name, 0)
        assert run["checks"]["wrappers_restored"]
        assert run["checks"]["span_tree_well_formed"]
        assert 0.95 <= run["coverage"] <= 1.0
    assert all(a is b for a, b in zip(before, snapshot()))


def test_recorder_wraps_and_restores_instance_class_and_module():
    class Thing:
        def work(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n

    thing, rec = Thing(), spans.Recorder()
    rec.wrap(thing, "work", "a.work")
    rec.wrap(Thing, "inner", "b.inner", count=lambda self, n: n)
    rec.op = 7
    assert thing.work(5) == 6
    rec.restore()
    assert "work" not in vars(thing) and not rec.patched()
    assert thing.work(5) == 6 and len(rec.spans) == 2
    outer, inner = rec.spans
    assert (outer.name, outer.parent, outer.op) == ("a.work", -1, 7)
    assert (inner.name, inner.parent, inner.count) == ("b.inner", 0, 5)
    assert spans.tree_problems(rec.spans) == []
    selfs = spans.self_times(rec.spans)
    assert min(selfs) >= 0 and sum(selfs) == outer.end - outer.start


def test_tree_problems_flags_a_child_outside_its_parent():
    good = [spans.Span("a.x", 0, 10, -1, 0, 0), spans.Span("a.y", 2, 5, 0, 0, 0)]
    assert spans.tree_problems(good) == []
    leaking = [good[0], spans.Span("a.y", 2, 12, 0, 0, 0)]
    assert spans.tree_problems(leaking)
    overfull = [good[0], spans.Span("a.y", 2, 8, 0, 0, 0),
                spans.Span("a.z", 3, 9, 0, 0, 0)]  # children overlap
    assert any("self time" in p for p in spans.tree_problems(overfull))


def test_compare_within_for_itself_and_worse_for_slower(smoke_doc, capsys):
    assert compare.compare([smoke_doc], [smoke_doc], BENCHMARK) == 0
    out = capsys.readouterr().out
    assert "within" in out and "worse\n" not in out and "0 changed" in out
    bound = results.metric_specs(BENCHMARK)["ops_per_s"]["bound"]
    slower = copy.deepcopy(smoke_doc)
    for run in slower["runs"]:
        if "ops_per_s" in run["metrics"]:
            run["metrics"]["ops_per_s"]["value"] *= 1.0 - 1.2 * bound
    assert compare.compare([smoke_doc], [slower], BENCHMARK) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if " ops_per_s " in line]
    assert len(rows) == len(WORKLOADS)
    assert all(row.endswith("worse") for row in rows)
    failing = copy.deepcopy(smoke_doc)
    failing["runs"][0]["failed"] = 1
    assert compare.compare([smoke_doc], [failing], BENCHMARK) == 1
