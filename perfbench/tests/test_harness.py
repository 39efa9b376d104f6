"""Tests of the benchmark harness's own logic (no solver runs).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, installed  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_traced_children():
    # outer 0..10 calls inner 2..5 and inner 6..7; the engine layer wraps the
    # vqa calls, so only the inner spans count as vqa time
    tr = Tracer(clock=FakeClock([0.0, 2.0, 5.0, 6.0, 7.0, 10.0]))
    tr.enter("engine.outer")
    tr.enter("vqa.inner")
    tr.exit("vqa.inner")
    tr.enter("vqa.inner")
    tr.exit("vqa.inner")
    tr.exit("engine.outer")
    assert tr.busy["engine.outer"] == 10.0
    assert tr.self_time["engine.outer"] == 6.0
    assert tr.busy["vqa.inner"] == 4.0
    assert tr.self_time["vqa.inner"] == 4.0
    assert tr.calls["vqa.inner"] == 2
    assert tr.layer_busy == {"engine": 10.0, "vqa": 4.0}
    assert tr.layer_self("engine") == 6.0


def test_nested_same_name_counts_busy_once():
    tr = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0]))
    tr.enter("bound.f")
    tr.enter("bound.f")
    tr.exit("bound.f")
    tr.exit("bound.f")
    assert tr.busy["bound.f"] == 4.0
    assert tr.self_time["bound.f"] == 4.0
    assert tr.layer_busy["bound"] == 4.0


def test_installed_wraps_names_imported_elsewhere_and_restores(monkeypatch):
    def f(x):
        return x + 1

    def g(x):
        return pkg_a.f(x) * 2  # looked up as a module global at call time

    pkg = types.ModuleType("fakepkg")
    pkg_a = types.ModuleType("fakepkg.a")
    pkg_a.f = f
    pkg_b = types.ModuleType("fakepkg.b")
    pkg_b.f = f  # as after `from .a import f`
    pkg_b.g = g
    for m in (pkg, pkg_a, pkg_b):
        monkeypatch.setitem(sys.modules, m.__name__, m)

    tr = Tracer()
    targets = [("a.f", pkg_a, "f", lambda args, kwargs: {"a.args": args[0]}), ("b.g", pkg_b, "g", None)]
    with installed(tr, targets, "fakepkg"):
        assert pkg_b.f is not f
        assert pkg_b.g(3) == 8
        assert pkg_b.f(1) == 2
    assert pkg_a.f is f and pkg_b.f is f and pkg_b.g is g
    assert tr.calls == {"a.f": 2, "b.g": 1}
    assert tr.counters["a.args"] == 4


def tree_answer(value, status="optimal"):
    return {"status": status, "value": value, "assignment": [1, 0], "nodes": 3, "queries": 50}


def test_wrong_tree_answer_counts_as_failure():
    answers = [tree_answer(7.0), tree_answer(9.0), tree_answer(7.0, status="node_limit")]
    oracles = [{"value": 7.0}] * 3
    failed, reasons = run.count_failures(answers, oracles)
    assert failed == 2
    assert "oracle optimum 7.0" in reasons[0]


def test_tree_answer_must_match_oracle_infeasibility():
    assert run.check_answer(tree_answer(None, status="infeasible"), {"value": None}) is None
    assert run.check_answer(tree_answer(5.0), {"value": None}) is not None


def baseline_answer(value, queries=50):
    return {"status": "completed", "value": value, "assignment": [1], "nodes": 1,
            "queries": queries, "budget": 50}


def test_baseline_checks():
    oracle = {"value": 10.0, "penalized": 12.0}
    assert run.check_answer(baseline_answer(12.0), oracle) is None
    assert "penalized cost" in run.check_answer(baseline_answer(11.0), oracle)
    assert "below the optimum" in run.check_answer(baseline_answer(9.0), {"value": 10.0, "penalized": 9.0})
    assert "budget" in run.check_answer(baseline_answer(12.0, queries=49), oracle)


@pytest.mark.parametrize("name", ["", "wall s", "vqa/query", "_hidden", ".x", "a" * 65, "ratio%"])
def test_bad_metric_name_rejected(name):
    with pytest.raises(ValueError):
        run.check_name(name)


def test_good_metric_names_pass():
    for name in ("wall_s", "vqa._apply_mixer.s", "layer.vqa.busy_s", "a-b.c"):
        assert run.check_name(name) == name


def test_benchmark_json_matches_harness_units():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_worker_reports_every_per_layer_metric():
    import worker

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = set(worker.layer_metrics(Tracer(), [], 0)) | {"trace.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
