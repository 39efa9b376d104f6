import re
import warnings

import pytest

from qcbb.blp import BlpInstance
from qcbb.engine import SolverConfig, solve
from qcbb.metrics import (
    CSV_COLUMNS,
    BoundSeries,
    TraceEvent,
    TraceRecorder,
    bound_series,
    export_trace,
    load_trace,
    many_body_fraction,
    primal_dual_integral,
)


class TestPrimalDualIntegral:
    def test_constant_gap_rectangle(self):
        series = BoundSeries(ub_steps=((0.0, 5.0),), lb_steps=((0.0, 3.0),), t_end=2.0)
        assert primal_dual_integral(series) == 4.0

    def test_closed_gap(self):
        series = BoundSeries(ub_steps=((0.0, 3.0),), lb_steps=((0.0, 3.0),), t_end=5.0)
        assert primal_dual_integral(series) == 0.0

    def test_two_rectangles(self):
        series = BoundSeries(
            ub_steps=((0.0, 5.0), (1.0, 3.0)), lb_steps=((0.0, 3.0),), t_end=2.0
        )
        assert primal_dual_integral(series) == 2.0

    def test_crossed_bounds_rejected(self):
        series = BoundSeries(ub_steps=((0.0, 1.0),), lb_steps=((0.0, 3.0),), t_end=2.0)
        with pytest.raises(ValueError):
            primal_dual_integral(series)

    def test_additive_over_time_partitions(self):
        ub = ((0.0, 9.0), (2.0, 6.0), (5.0, 4.0))
        lb = ((0.0, 1.0), (3.0, 3.0))
        whole = primal_dual_integral(BoundSeries(ub, lb, t_end=6.0))
        # split at t=3: second piece restates the step values active at 3
        left = primal_dual_integral(BoundSeries(ub[:2], lb[:1], t_end=3.0))
        right = primal_dual_integral(
            BoundSeries(((3.0, 6.0), (5.0, 4.0)), ((3.0, 3.0),), t_end=6.0)
        )
        assert whole == pytest.approx(left + right)

    def test_horizon_starts_at_the_later_first_step(self):
        series = BoundSeries(ub_steps=((0.0, 5.0),), lb_steps=((2.0, 3.0),), t_end=4.0)
        assert primal_dual_integral(series) == 4.0

    def test_ub_and_lb_steps_at_one_coordinate(self):
        series = BoundSeries(
            ub_steps=((0.0, 5.0), (3.0, 4.0)), lb_steps=((0.0, 1.0), (3.0, 4.0)), t_end=6.0
        )
        assert primal_dual_integral(series) == 12.0

    def test_a_step_at_t_end_adds_nothing(self):
        series = BoundSeries(ub_steps=((0.0, 5.0),), lb_steps=((0.0, 3.0), (2.0, 4.0)), t_end=2.0)
        assert primal_dual_integral(series) == 4.0


class TestBoundSeries:
    def test_later_incumbent_at_one_node_wins(self):
        rec = TraceRecorder()
        rec.record("node_start", 0)
        rec.record("incumbent_update", 0, ub=7.0)
        rec.record("incumbent_update", 0, ub=5.0)
        rec.record("done", 0, lb=5.0, ub=5.0, status="optimal")
        series = bound_series(rec.events, axis="nodes")
        assert series.ub_steps == ((0.0, 5.0),)
        assert series.lb_steps == ((0.0, 5.0),)


class TestManyBodyFraction:
    def test_ratio(self):
        assert many_body_fraction(4, 10) == 0.4

    def test_self_is_one(self):
        assert many_body_fraction(5, 5) == 1.0

    def test_leaf_is_zero(self):
        assert many_body_fraction(0, 10) == 0.0

    def test_zero_master_is_one(self):
        assert many_body_fraction(0, 0) == 1.0


class TestRecorder:
    def test_virtual_clock_monotone(self):
        rec = TraceRecorder()
        for i in range(5):
            rec.record("node_start", i)
        times = [e.wall_time_s for e in rec.events]
        assert times == sorted(times)
        assert len(set(times)) == 5

    def test_wall_clock_monotone(self):
        rec = TraceRecorder(wall_clock=True)
        rec.record("node_start", 0)
        rec.record("branch", 0)
        assert rec.events[0].wall_time_s <= rec.events[1].wall_time_s

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(wall_time_s=0.0, node_index=0, kind="mystery")


class TestExportImport:
    def make_events(self):
        rec = TraceRecorder()
        rec.record("node_start", 0)
        rec.record("optimizer_query", 0, query_index=1, expectation=3.25)
        rec.record("incumbent_update", 0, ub=12.0)
        rec.record("bound_update", 0, lb=-1.5)
        rec.record("done", 0, lb=12.0, ub=12.0, status="optimal")
        return rec.events

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_round_trip(self, tmp_path, suffix):
        events = self.make_events()
        path = tmp_path / f"trace.{suffix}"
        export_trace(events, path)
        assert load_trace(path) == events

    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_trace([], path)
        text = path.read_text()
        assert text.strip() == ",".join(CSV_COLUMNS)
        assert load_trace(path) == []

    def test_round_trip_preserves_series(self, tmp_path, three_var_instance):
        res = solve(three_var_instance, SolverConfig(seed=1))
        path = tmp_path / "trace.csv"
        export_trace(res.trace, path)
        reloaded = load_trace(path)
        for axis in ("nodes", "seconds"):
            original = bound_series(res.trace, axis=axis)
            again = bound_series(reloaded, axis=axis)
            assert original == again
            assert primal_dual_integral(original) == primal_dual_integral(again)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match=f"^trace {re.escape(str(path))}: "):
            load_trace(path)

    def test_json_other_than_a_list_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match=f"^trace {re.escape(str(path))}: "):
            load_trace(path)

    @pytest.mark.parametrize(
        "name, text",
        [
            ("bad.json", '[{"foo": 1}]'),
            ("bad.csv", ",".join(CSV_COLUMNS) + "\n1e-06,0,node_start,,,,,,\n1e-06,0\n"),
            ("bad.json", '[{"wall_time_s": "a", "node_index": 0, "kind": "done", "lb": 1.0}]'),
            ("bad.json", '[{"wall_time_s": 1e-06, "node_index": true, "kind": "done"}]'),
            ("bad.json", '[{"wall_time_s": 1e-06, "node_index": 0, "kind": "done", "status": 1}]'),
            ("bad.json", '[{"wall_time_s": null, "node_index": 0, "kind": "done"}]'),
            ("bad.csv", ",".join(CSV_COLUMNS) + "\n1e-06,0,node_start,,,,,,\n2e-06,0,done,nan,,,,,\n"),
            (
                "bad.csv",
                ",".join(CSV_COLUMNS) + "\n1e-06,0,node_start,,,,,,\n2e-06,0,optimizer_query,,,inf,1,,\n",
            ),
            ("bad.csv", ",".join(CSV_COLUMNS) + "\n1e-06,0,node_start,,,,,,\n2e-06,-1,node_start,,,,,,\n"),
            ("bad.json", '[{"wall_time_s": 1e-06, "node_index": 0, "kind": "done", "ub": NaN}]'),
            ("bad.json", '[{"wall_time_s": -Infinity, "node_index": 0, "kind": "done"}]'),
            (
                "bad.json",
                '[{"wall_time_s": 1e-06, "node_index": 0, "kind": "optimizer_query",'
                ' "query_index": -3, "expectation": 1.0}]',
            ),
            ("bad.csv", ",".join(CSV_COLUMNS) + "\n1e-06,0,node_start,,,,,,\n,0,done,1.0,2.0,,,,optimal\n"),
            ("bad.csv", ",".join(CSV_COLUMNS) + "\n1e-06,0,node_start,,,,,,\n2e-06,,done,1.0,2.0,,,,optimal\n"),
            # integers beyond float range once raised OverflowError
            ("bad.json", '[{"wall_time_s": 1e-06, "node_index": %d, "kind": "done"}]' % 10**400),
            ("bad.csv", ",".join(CSV_COLUMNS) + "\n1e-06,0,node_start,,,,,,\n2e-06,%d,done,,,,,,\n" % 10**400),
            ("bad.json", '[{"wall_time_s": 1e-06, "node_index": 0, "kind": "done", "lb": %d}]' % 10**400),
            ("bad.csv", ",".join(CSV_COLUMNS) + "\n1e-06,1,node_start,,,,,,\n2e-06,0,done,,,,,,optimal\n"),
            ("bad.csv", ",".join(CSV_COLUMNS) + "\n2e-06,0,node_start,,,,,,\n1e-06,0,done,,,,,,optimal\n"),
        ],
        ids=[
            "json_unknown_key",
            "csv_short_row",
            "json_string_time",
            "json_bool_index",
            "json_int_status",
            "json_null_time",
            "csv_nan_lb",
            "csv_inf_expectation",
            "csv_negative_node_index",
            "json_nan_ub",
            "json_minus_infinity_time",
            "json_negative_query_index",
            "csv_null_time",
            "csv_null_index",
            "json_huge_node_index",
            "csv_huge_node_index",
            "json_huge_lb",
            "csv_decreasing_node_index",
            "csv_decreasing_time",
        ],
    )
    def test_malformed_row_rejected(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        row = 1 if name.endswith(".json") else 2
        with pytest.raises(ValueError, match=f"row {row}"):
            load_trace(path)

    def test_integer_past_the_digit_limit_names_the_file(self, tmp_path):
        # json.load raises a plain ValueError for an integer of more than
        # 4,300 digits, before any row is read
        path = tmp_path / "huge.json"
        path.write_text('[{"wall_time_s": 1e-06, "node_index": 1%s, "kind": "done"}]' % ("0" * 5000))
        with pytest.raises(ValueError, match=f"^trace {re.escape(str(path))}"):
            load_trace(path)

    def test_csv_field_past_the_size_limit_names_the_file(self, tmp_path):
        # the csv module raises csv.Error, not a ValueError, for a field
        # longer than its limit: once a traceback, not an error line
        path = tmp_path / "long.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "1" * 200_000 + ",0,done,,,,,,\n")
        with pytest.raises(ValueError, match=f"^trace {re.escape(str(path))}: "):
            load_trace(path)


class TestSolveTraces:
    def test_done_row_carries_status(self, three_var_instance):
        res = solve(three_var_instance, SolverConfig(seed=1))
        last = res.trace[-1]
        assert last.kind == "done"
        assert last.status == "optimal"
        assert last.lb == pytest.approx(last.ub)

    def test_series_monotonicity(self):
        from qcbb.blp import generate_spp

        res = solve(generate_spp(10, 4, seed=29), SolverConfig(seed=4))
        series = bound_series(res.trace, axis="nodes")
        ubs = [v for _, v in series.ub_steps]
        lbs = [v for _, v in series.lb_steps]
        assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert primal_dual_integral(series) >= 0.0

    def test_timestamps_nondecreasing(self, three_var_instance):
        res = solve(three_var_instance, SolverConfig(seed=1))
        times = [e.wall_time_s for e in res.trace]
        assert times == sorted(times)

    def test_coupling_free_master_reports_one(self):
        # one variable per row: A^T A is diagonal, so the master has no couplings
        inst = BlpInstance(c=[1.0, -1.0, 2.0], A=[[1, 0, 0], [0, 0, 1]], b=[1, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(inst, SolverConfig(p=1, node_queries=4, shots=16, seed=1))
        fractions = [e.many_body_fraction for e in res.trace if e.many_body_fraction is not None]
        assert fractions and all(f == 1.0 for f in fractions)
