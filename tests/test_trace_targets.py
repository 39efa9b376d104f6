"""Every function the benchmark traces exists in qcbb, and a solve calls it.

``perfbench/worker.py`` wraps each ``TRACE_TARGETS`` entry by module
attribute and skips one it cannot find, so a renamed function would read 0
calls there instead of failing. The tuple is read with ``ast``, so the
worker's own imports and path set-up do not run here.
"""

import ast
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

from conftest import subset_sum_instance
from qcbb import SolverConfig, engine, vqa

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def trace_targets() -> list[tuple[str, str, str]]:
    """(metric name, qcbb module, attribute) of each TRACE_TARGETS entry."""
    for node in ast.parse(WORKER.read_text(encoding="utf-8")).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["TRACE_TARGETS"]:
            return [(e.elts[0].value, e.elts[1].id, e.elts[2].value) for e in node.value.elts]
    raise AssertionError(f"{WORKER} defines no TRACE_TARGETS")


def test_every_trace_target_is_a_module_function():
    targets = trace_targets()
    assert len(targets) > 1
    for name, module, attr in targets:
        fn = getattr(importlib.import_module(f"qcbb.{module}"), attr, None)
        assert inspect.isfunction(fn), f"{name}: qcbb.{module}.{attr} is not a function"
        assert fn.__module__ == f"qcbb.{module}", name


def test_state_work_reads_the_leading_arguments_of_qaoa_state():
    # the worker's state_work reads qaoa_state's diag and params by position
    assert list(inspect.signature(vqa.qaoa_state).parameters)[:2] == ["diag", "params"]


def counting(calls: Counter, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_a_branched_solve_calls_every_trace_target(monkeypatch):
    # Mirrors the benchmark's trace smoke gate, which fails when a traced
    # metric reads 0. Each function is swapped by identity in every qcbb
    # module, as perfbench/tracer.py does, so ``from x import f`` names count.
    calls = Counter()
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "qcbb"]
    for name, module, attr in trace_targets():
        original = getattr(importlib.import_module(f"qcbb.{module}"), attr)
        wrapper = counting(calls, name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, wrapper)
    config = SolverConfig(p=1, node_queries=4, shots=64, seed=1)
    res = engine.solve(subset_sum_instance(10, 3), config)
    assert any(r.outcome == "branched" for r in res.node_records.values())
    # solve and run_plain_qaoa share the metric engine.search
    idle = sorted({name for name, _, _ in trace_targets()} - set(calls))
    assert not idle, f"never called: {idle}"
