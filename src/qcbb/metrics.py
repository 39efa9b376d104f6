"""Solve traces and solver-quality metrics.

Events form an append-only log feeding the bound-convergence series, the
primal-dual integral, and the many-body-term series. Exports are bit-stable:
a CSV or JSON round trip reproduces the series exactly.

``TraceEvent``'s annotations are the trace schema: its field names, in
order, are the CSV header, a CSV cell is converted by its field's type, and
``load_trace`` checks every value with ``blp.check_value`` (plus
non-negative indices, and a node index and time that never decrease), so a
malformed row fails as a ValueError naming it.

By default event timestamps come from a deterministic virtual clock (one
microsecond per event) so identical runs export identical bytes; pass
``wall_clock=True`` to record real elapsed seconds instead, at the cost of
byte-level reproducibility.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, fields

from .blp import check_value, read_json, value_kind

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


# A CSV trace's header: the event fields, in order.
CSV_COLUMNS = tuple(f.name for f in fields(TraceEvent))


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


@dataclass(frozen=True)
class BoundSeries:
    """Step functions of the incumbent (upper) and lower bound over a horizon.

    Each step list holds (t, value) pairs with strictly increasing t; a value
    holds from its t until the next step (or ``t_end``).
    """

    ub_steps: tuple[tuple[float, float], ...]
    lb_steps: tuple[tuple[float, float], ...]
    t_end: float


# The bound an event of each kind reports.
_BOUND_OF_KIND = {"incumbent_update": "ub", "bound_update": "lb", "done": "lb"}


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

    steps: dict[str, list[tuple[float, float]]] = {"ub": [], "lb": []}
    for e in events:
        side = _BOUND_OF_KIND.get(e.kind)
        if side is None or getattr(e, side) is None:
            continue
        if steps[side] and steps[side][-1][0] == coord(e):
            steps[side].pop()  # a later event at the same coordinate wins
        steps[side].append((coord(e), getattr(e, side)))
    return BoundSeries(tuple(steps["ub"]), tuple(steps["lb"]), t_end=coord(events[-1]))


def primal_dual_integral(series: BoundSeries) -> float:
    """Exact integral of UB(t) - LB(t) over the horizon where both exist,
    in one walk over the steps of both sides in time order."""
    if not series.ub_steps or not series.lb_steps:
        raise ValueError("need at least one UB and one LB step")
    steps = sorted(
        [(t, 0, v) for t, v in series.ub_steps] + [(t, 1, v) for t, v in series.lb_steps],
        key=lambda step: step[0],
    )
    ends = [t for t, _, _ in steps[1:]] + [series.t_end]
    bounds = [None, None]  # the (ub, lb) pair in force
    total = 0.0
    for (a, side, value), b in zip(steps, ends):
        bounds[side] = value
        b = min(b, series.t_end)
        if b > a and None not in bounds:
            gap = bounds[0] - bounds[1]
            if gap < -1e-9:
                raise ValueError(f"bounds crossed at t={a}: gap={gap}")
            total += max(gap, 0.0) * (b - a)
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
            json.dump([asdict(e) for e in events], fh, indent=1)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for e in events:
            writer.writerow([_cell(getattr(e, col)) for col in CSV_COLUMNS])


def _csv_row(row: list[str]) -> dict:
    """A CSV row's cells, each converted to its field's type; empty is None."""
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"{len(row)} cells, the header has {len(CSV_COLUMNS)}")
    return {
        f.name: None if cell == "" else value_kind(f.type)[0](cell)
        for f, cell in zip(fields(TraceEvent), row)
    }


def _json_row(row) -> dict:
    if not isinstance(row, dict):
        raise ValueError("an event must be a JSON object")
    return row


def _check_row(row: dict) -> dict:
    """``row`` once each field's value passes ``blp.check_value`` against
    the field's annotation and, for an index, is non-negative."""
    for f in fields(TraceEvent):
        value = row.get(f.name)
        check_value(f.name, value, f.type)
        if value is not None and value_kind(f.type)[0] is int and value < 0:
            raise ValueError(f"{f.name} must be non-negative, not {value!r}")
    return row


def load_trace(path) -> list[TraceEvent]:
    """Read a trace written by ``export_trace`` (JSON when ``path`` ends in
    .json, else CSV). Each event is decoded to a dict and checked by
    ``_check_row``, and its ``node_index`` and ``wall_time_s`` must not be
    below the previous event's; a malformed event raises ValueError naming
    its row, counted from 1 after the CSV header, and a file that does not
    decode to rows one naming the file."""
    try:
        if _is_json(path):
            rows, parse = read_json(path, list), _json_row
        else:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None or tuple(header) != CSV_COLUMNS:
                    raise ValueError("CSV header does not match the schema")
                rows, parse = list(reader), _csv_row
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"trace {path}: {exc}") from exc
    events: list[TraceEvent] = []
    for i, row in enumerate(rows, start=1):
        try:
            event = TraceEvent(**_check_row(parse(row)))
            for name in ("node_index", "wall_time_s"):
                if events and getattr(event, name) < getattr(events[-1], name):
                    raise ValueError(
                        f"{name} {getattr(event, name)!r} is below the previous row's"
                        f" {getattr(events[-1], name)!r}"
                    )
            events.append(event)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"trace {path} row {i}: {exc}") from exc
    return events
