"""Solve traces and solver-quality metrics.

Events form an append-only log feeding the bound-convergence series, the
primal-dual integral, and the many-body-term series. Exports are bit-stable:
a CSV or JSON round trip reproduces the series exactly.

By default event timestamps come from a deterministic virtual clock (one
microsecond per event) so identical runs export identical bytes; pass
``wall_clock=True`` to record real elapsed seconds instead, at the cost of
byte-level reproducibility.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, fields as dataclass_fields

EVENT_KINDS = (
    "node_start",
    "bound_update",
    "incumbent_update",
    "optimizer_query",
    "prune",
    "fathom",
    "branch",
    "done",
)

CSV_COLUMNS = (
    "wall_time_s",
    "node_index",
    "kind",
    "lb",
    "ub",
    "expectation",
    "query_index",
    "many_body_fraction",
    "status",
)


@dataclass(frozen=True)
class TraceEvent:
    wall_time_s: float
    node_index: int
    kind: str
    lb: float | None = None
    ub: float | None = None
    expectation: float | None = None
    query_index: int | None = None
    many_body_fraction: float | None = None
    status: str | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


class TraceRecorder:
    """Append-only event sink with a monotone clock."""

    def __init__(self, wall_clock: bool = False):
        self.events: list[TraceEvent] = []
        self._wall_clock = wall_clock
        self._t0 = time.perf_counter()

    def _now(self) -> float:
        if self._wall_clock:
            return time.perf_counter() - self._t0
        return (len(self.events) + 1) * 1e-6

    def record(self, kind: str, node_index: int, **payload) -> TraceEvent:
        event = TraceEvent(
            wall_time_s=self._now(), node_index=node_index, kind=kind, **payload
        )
        self.events.append(event)
        return event


def _event_dict(event: TraceEvent) -> dict:
    return {f.name: getattr(event, f.name) for f in dataclass_fields(TraceEvent)}


@dataclass(frozen=True)
class BoundSeries:
    """Step functions of the incumbent (upper) and lower bound over a horizon.

    Each step list holds (t, value) pairs with strictly increasing t; a value
    holds from its t until the next step (or ``t_end``).
    """

    ub_steps: tuple[tuple[float, float], ...]
    lb_steps: tuple[tuple[float, float], ...]
    t_end: float


def bound_series(events, axis: str = "nodes") -> BoundSeries:
    """Extract the bound-convergence series from a trace.

    ``axis`` selects the horizontal coordinate: "nodes" uses the node index
    of each event, "seconds" its timestamp.
    """
    if axis not in ("nodes", "seconds"):
        raise ValueError("axis must be 'nodes' or 'seconds'")
    if not events:
        raise ValueError("empty trace")

    def coord(e: TraceEvent) -> float:
        return float(e.node_index) if axis == "nodes" else e.wall_time_s

    ub: list[tuple[float, float]] = []
    lb: list[tuple[float, float]] = []
    for e in events:
        if e.kind == "incumbent_update" and e.ub is not None:
            if ub and ub[-1][0] == coord(e):
                ub[-1] = (coord(e), e.ub)
            else:
                ub.append((coord(e), e.ub))
        if e.kind in ("bound_update", "done") and e.lb is not None:
            if lb and lb[-1][0] == coord(e):
                lb[-1] = (coord(e), e.lb)
            else:
                lb.append((coord(e), e.lb))
    return BoundSeries(ub_steps=tuple(ub), lb_steps=tuple(lb), t_end=coord(events[-1]))


def _step_value(steps, t: float) -> float:
    value = None
    for s_t, s_v in steps:
        if s_t <= t:
            value = s_v
        else:
            break
    assert value is not None
    return value


def primal_dual_integral(series: BoundSeries) -> float:
    """Exact integral of UB(t) - LB(t) over the horizon where both exist."""
    if not series.ub_steps or not series.lb_steps:
        raise ValueError("need at least one UB and one LB step")
    t0 = max(series.ub_steps[0][0], series.lb_steps[0][0])
    breakpoints = sorted(
        {t for t, _ in series.ub_steps if t >= t0}
        | {t for t, _ in series.lb_steps if t >= t0}
        | {t0, series.t_end}
    )
    total = 0.0
    for a, b in zip(breakpoints, breakpoints[1:]):
        if a >= series.t_end:
            break
        gap = _step_value(series.ub_steps, a) - _step_value(series.lb_steps, a)
        if gap < -1e-9:
            raise ValueError(f"bounds crossed at t={a}: gap={gap}")
        total += max(gap, 0.0) * (min(b, series.t_end) - a)
    return total


def many_body_fraction(node_count: int, master_count: int) -> float:
    """Fraction of the master's pairwise couplings surviving in a node.

    Both arguments are ``ising.many_body_count`` values; a coupling-free
    master counts every node as whole (1.0).
    """
    return 1.0 if master_count == 0 else node_count / master_count


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _is_json(path) -> bool:
    return str(path).endswith(".json")


def export_trace(events, path) -> None:
    """Write a trace as JSON when ``path`` ends in .json, else as CSV."""
    if _is_json(path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([_event_dict(e) for e in events], fh, indent=1)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for e in events:
            writer.writerow([_cell(getattr(e, col)) for col in CSV_COLUMNS])


def _column_type(column: str) -> type:
    if column in ("node_index", "query_index"):
        return int
    if column in ("kind", "status"):
        return str
    return float


def _parse_cell(column: str, text: str):
    return None if text == "" else _column_type(column)(text)


def _csv_row(row: list[str]) -> dict:
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"{len(row)} cells, the header has {len(CSV_COLUMNS)}")
    return {col: _parse_cell(col, cell) for col, cell in zip(CSV_COLUMNS, row)}


def _json_row(row) -> dict:
    """A JSON event whose cells have their CSV columns' types (a float
    column takes any number, a bool is none) and null only where optional."""
    if not isinstance(row, dict):
        raise ValueError("an event must be a JSON object")
    for column in CSV_COLUMNS:
        value, kind = row.get(column), _column_type(column)
        if value is None:
            ok = column not in ("wall_time_s", "node_index", "kind")
        else:
            ok = isinstance(value, (int, float) if kind is float else kind)
        if not ok or isinstance(value, bool):
            raise ValueError(f"{column} cannot be {json.dumps(value)}")
    return row


def _check_range(row: dict) -> dict:
    """``row`` once its numbers are finite and its indices non-negative."""
    for column in CSV_COLUMNS:
        value, kind = row.get(column), _column_type(column)
        if value is None or kind is str:
            continue
        if not math.isfinite(value) or (kind is int and value < 0):
            raise ValueError(f"{column} cannot be {value!r}")
    return row


def load_trace(path) -> list[TraceEvent]:
    """Read a trace written by ``export_trace`` (JSON when ``path`` ends in
    .json, else CSV). A malformed event, a non-finite number or a negative
    index raises ValueError naming its row, counted from 1 after the CSV
    header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if _is_json(path):
            rows = json.load(fh)
            if not isinstance(rows, list):
                raise ValueError("trace JSON must hold a list of events")
            parse = _json_row
        else:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != CSV_COLUMNS:
                raise ValueError("trace CSV header does not match the schema")
            rows = list(reader)
            parse = _csv_row
    events: list[TraceEvent] = []
    for i, row in enumerate(rows, start=1):
        try:
            events.append(TraceEvent(**_check_range(parse(row))))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"trace {path} row {i}: {exc}") from exc
    return events
