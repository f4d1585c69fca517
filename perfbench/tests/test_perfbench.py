"""Tests of the benchmark itself: span arithmetic, patching, workload gates.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Patches, Span, SpanRecorder, self_times  # noqa: E402

WORKLOADS = sorted(workloads.SPECS)


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        Span("a", "root", None, 0.0, 10.0),
        Span("a", "child", 0, 1.0, 4.0),
        Span("b", "grandchild", 1, 2.0, 3.0),
        Span("a", "overlapping", 0, 3.0, 6.0),  # overlaps ``child`` on [3, 4]
        Span("b", "overhanging", 0, 8.0, 12.0),  # runs past the root's end
    ]
    assert self_times(tree) == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 1.0, 3.0, 4.0])


def test_leaf_span_self_time_is_its_duration():
    assert self_times([Span("a", "x", None, 1.5, 2.25)]) == [0.75]


def _bindings():
    owners = [m for m in sys.modules.values() if getattr(m, "__name__", "").startswith("dynamite")]
    chains = sys.modules["dynamite.chains"]
    owners += [chains.TransitionKernel, chains.ScalarFunction]
    return {owner: dict(vars(owner)) for owner in owners}


def _assert_same(before, after):
    assert before.keys() == after.keys()
    for owner, names in before.items():
        now = after[owner]
        assert names.keys() == now.keys(), owner
        changed = [k for k in names if names[k] is not now[k]]
        assert not changed, (owner, changed)


def test_patches_wrap_at_the_callers_names_and_restore_everything():
    wl = workloads.build("cycle16-dynamite", 0, tiny=True)  # imports the package
    before = _bindings()
    adaptive = sys.modules["dynamite.adaptive"]
    coloring = sys.modules["dynamite.coloring"]
    recorder = SpanRecorder()
    with Patches(recorder, layers.targets()):
        assert adaptive.two_chain_variance is not before[adaptive]["two_chain_variance"]
        assert coloring.warm_start is not before[coloring]["warm_start"]
        wl.ops[0]()
    _assert_same(before, _bindings())

    names = {(s.layer, s.name) for s in recorder.spans}
    assert {("adaptive", "dynamite"), ("adaptive", "mcmc_pro"), ("estimators", "two_chain_variance"),
            ("chains", "TransitionKernel.path"), ("chains", "ScalarFunction.values"), ("rng", "stream")} <= names
    variance = next(s for s in recorder.spans if s.name == "two_chain_variance")
    assert recorder.spans[variance.parent].name == "mcmc_pro"
    assert variance.attrs["pairs"] > 0


def test_patches_restore_after_an_exception():
    workloads.package_modules()
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Patches(SpanRecorder(), layers.targets()):
            1 / 0
    _assert_same(before, _bindings())


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_passes_correctness_and_determinism(name):
    wl = workloads.build(name, 7, tiny=True)
    rounds = workloads.measure(wl, seconds=0)
    assert len(rounds) == 2
    assert all(o.ok for r in rounds for o in r.outcomes)
    assert [o.key for o in rounds[0].outcomes] == [o.key for o in rounds[1].outcomes]
    again = workloads.measure(workloads.build(name, 7, tiny=True), seconds=0)
    assert [o.key for o in again[0].outcomes] == [o.key for o in rounds[0].outcomes]


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(name):
    wl = workloads.build(name, 7, tiny=True)
    recorder = SpanRecorder()
    rounds = workloads.measure(wl, seconds=0, traced_round=lambda: Patches(recorder, layers.targets()))
    assert [r.traced for r in rounds] == [False, True]
    m = layers.layer_metrics(recorder.spans, [], rounds)
    assert set(m) == set(layers.LAYER_UNITS)
    assert m["chains.path.steps"] == sum(o.steps for o in rounds[1].outcomes)
    kind = "cycle" if name.startswith("cycle") else "glauber"
    assert m[f"chains.path.ns_per_step.{kind}"] > 0
    if name == "planted-count-static":
        assert 0 < m["chains.path.tail_only_frac"] < 1 and m["adaptive.runs"] == 0
    else:
        assert m["adaptive.runs"] > 0 and m["estimators.rescan_ratio"] >= 1


def test_gate_rejects_a_repeat_that_moves_steps():
    first = workloads.Round(False, 1.0, [1.0], [workloads.Outcome(key=(10, 0.5), steps=10, ok=True)])
    moved = workloads.Round(False, 1.0, [1.0], [workloads.Outcome(key=(12, 0.5), steps=12, ok=True)])
    workloads.check_repeat(first, first, "w")
    with pytest.raises(workloads.NondeterminismError):
        workloads.check_repeat(first, moved, "w")


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.SPECS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == child.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_UNITS


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
