"""Every function the benchmark traces exists in qcbb.

``perfbench/worker.py`` wraps each ``TRACE_TARGETS`` entry by module
attribute and skips one it cannot find, so a renamed function would read 0
calls there instead of failing. The tuple is read with ``ast``, so the
worker's own imports and path set-up do not run here.
"""

import ast
import importlib
import inspect
from pathlib import Path

from qcbb import vqa

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
