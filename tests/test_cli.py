import json
import sys

import pytest

from conftest import run_python
from qcbb import blp, cli
from qcbb.blp import BlpInstance, brute_force_optimum, load_instance, save_instance
from qcbb.metrics import CSV_COLUMNS, load_trace


@pytest.fixture
def fixture_instance(tmp_path):
    inst = BlpInstance(c=[1.0, 1.0, 1.0], A=[[1, 1, 0], [0, 1, 1]], b=[1, 1])
    path = tmp_path / "three.json"
    save_instance(inst, path)
    return path


@pytest.fixture
def infeasible_instance(tmp_path):
    path = tmp_path / "bad.json"
    save_instance(BlpInstance(c=[1.0, 1.0], A=[[1, 1]], b=[3]), path)
    return path


class TestGen:
    def test_writes_count_files_deterministically(self, tmp_path, capsys):
        out = tmp_path / "d"
        args = ["gen", "--n", "15", "--m", "6", "--seed", "7", "--count", "3", "--out", str(out)]
        assert cli.main(args) == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 3
        first = [p.read_bytes() for p in files]
        assert cli.main(args) == 0
        assert [p.read_bytes() for p in sorted(out.glob("*.json"))] == first

    def test_rejects_n_not_above_m(self, tmp_path, capsys):
        assert cli.main(["gen", "--n", "4", "--m", "6", "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape",
        [["--n", "0", "--m", "0"], ["--n", "8", "--m", "3", "--cost-low", "5", "--cost-high", "1"]],
    )
    def test_rejected_call_creates_no_directory(self, tmp_path, capsys, shape):
        out = tmp_path / "d" / "nested"
        assert cli.main(["gen", *shape, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "d").exists()

    def test_with_optimum_matches_brute_force(self, tmp_path):
        out = tmp_path / "d"
        assert (
            cli.main(
                ["gen", "--n", "10", "--m", "4", "--seed", "3", "--out", str(out), "--with-optimum"]
            )
            == 0
        )
        for path in out.glob("*.json"):
            inst = load_instance(path)
            assert inst.optimum == brute_force_optimum(inst).value

    def test_with_optimum_up_to_the_oracle_cap(self, tmp_path, capsys):
        # n = 18 once wrote a file with no optimum, and exited 0
        out = tmp_path / "d"
        assert cli.main(["gen", "--n", "18", "--m", "6", "--out", str(out), "--with-optimum"]) == 0
        (path,) = out.glob("*.json")
        inst = load_instance(path)
        assert inst.optimum is not None and inst.optimum == brute_force_optimum(inst).value
        capsys.readouterr()
        # above blp.BRUTE_FORCE_MAX_N = 20 the oracle refuses: exit 1, no file
        over = tmp_path / "over"
        assert cli.main(["gen", "--n", "21", "--m", "6", "--out", str(over), "--with-optimum"]) == 1
        assert "error" in capsys.readouterr().err
        assert not over.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, count):
        # a count below 1 once exited 0 having written nothing
        out = tmp_path / "d"
        assert cli.main(["gen", "--n", "10", "--m", "4", "--count", count, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


def test_start_up_imports_no_scipy():
    # the CLI's start-up cost is its imports; SciPy is a test dependency only
    code = (
        "import sys, qcbb, qcbb.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestSolve:
    def test_optimal_fixture(self, fixture_instance, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code = cli.main(["solve", str(fixture_instance), "--seed", "3", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal 1" in out
        assert "assignment 010" in out
        events = load_trace(trace)
        assert events[-1].kind == "done" and events[-1].status == "optimal"

    def test_infeasible_exit_code(self, infeasible_instance, capsys):
        assert cli.main(["solve", str(infeasible_instance), "--seed", "0"]) == 2
        assert "nodes 0" in capsys.readouterr().out.splitlines()

    def test_node_limit_exit_code(self, tmp_path, capsys):
        from qcbb.blp import generate_spp

        path = tmp_path / "inst.json"
        save_instance(generate_spp(10, 4, seed=1), path)
        assert cli.main(["solve", str(path), "--seed", "0", "--node-limit", "1"]) == 3
        assert "node_limit" in capsys.readouterr().out

    def test_missing_instance_is_config_error(self, tmp_path):
        assert cli.main(["solve", str(tmp_path / "nope.json")]) == 1

    def test_data_off_the_kappa_grid_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "offgrid.json"
        path.write_text(json.dumps({"n": 2, "m": 1, "c": [1, 2], "A": [[1, 0.5]], "b": [1]}))
        assert cli.main(["solve", str(path)]) == 1
        assert "kappa" in capsys.readouterr().err

    def test_kappa_too_small_for_the_penalty_is_config_error(self, tmp_path, capsys):
        # kappa^2 underflows to 0: compute_big_m once ended in a
        # ZeroDivisionError traceback here
        path = tmp_path / "tiny_kappa.json"
        data = {"n": 2, "m": 1, "c": [1, 2], "A": [[1, 1]], "b": [1], "kappa": 1e-200}
        path.write_text(json.dumps(data))
        assert cli.main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "kappa" in err and "Traceback" not in err

    def test_integer_too_large_for_a_float_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        for key, value in (("optimum", 10**400), ("c", [10**400, 2])):
            data = {"n": 2, "m": 1, "c": [1, 2], "A": [[1, 1]], "b": [1], key: value}
            path.write_text(json.dumps(data))
            assert cli.main(["solve", str(path)]) == 1
            assert f"field '{key}'" in capsys.readouterr().err

    def test_reproducible_trace_bytes(self, fixture_instance, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["solve", str(fixture_instance), "--seed", "11", "--trace", str(t1)])
        cli.main(["solve", str(fixture_instance), "--seed", "11", "--trace", str(t2)])
        assert t1.read_bytes() == t2.read_bytes()

    def test_config_file_and_flag_override(self, fixture_instance, tmp_path, capsys):
        from qcbb.blp import generate_spp

        path = tmp_path / "inst.json"
        save_instance(generate_spp(10, 4, seed=1), path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"node_limit": 1, "seed": 0}))
        assert cli.main(["solve", str(path), "--config", str(config)]) == 3
        # flag overrides the file's node limit
        assert cli.main(["solve", str(path), "--config", str(config), "--node-limit", "500"]) == 0

    @pytest.mark.parametrize("flags", [["--bogus"], ["--workers", "2"]])
    def test_unknown_flag_is_usage_error(self, fixture_instance, flags, capsys):
        # exit 2 means "proven infeasible", so usage errors must not use it
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", str(fixture_instance), *flags])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, fixture_instance, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"node_querys": 1, "workerz": 9}))
        assert cli.main(["solve", str(fixture_instance), "--config", str(config)]) == 1
        assert "node_querys, workerz" in capsys.readouterr().err
        config.write_text(json.dumps({"warm_start": True}))
        assert cli.main(["solve", str(fixture_instance), "--config", str(config)]) == 1
        assert "warm_start" in capsys.readouterr().err
        # no setting switches the prune rule off
        config.write_text(json.dumps({"prune": False}))
        assert cli.main(["solve", str(fixture_instance), "--config", str(config)]) == 1
        assert f"error: config {config}: unknown config key(s): prune" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, flags, key",
        [
            ({"wall_clock": "false"}, [], "wall_clock"),
            ({"p": 1.9, "node_queries": 4.7}, [], "p"),
            ({"node_queries": 4.7}, [], "node_queries"),
            ({"seed": True}, [], "seed"),
            ({"p": None}, [], "p"),
            ({"queries": "8"}, [], "queries"),
            ({"p": 1.5}, ["--p", "2"], "p"),
        ],
        ids=[
            "bool_as_string",
            "float_p",
            "float_node_queries",
            "bool_seed",
            "null_p",
            "string_queries",
            "overridden_by_flag",
        ],
    )
    def test_bad_config_value_rejected(self, fixture_instance, tmp_path, capsys, values, flags, key):
        # checked as the file is read, before any flag is merged in
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        assert cli.main(["solve", str(fixture_instance), "--config", str(config), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error: config {config}: {key} must be ")

    @pytest.mark.parametrize(
        "flags, config, key",
        [
            (["--time-limit", "nan"], None, "time_limit"),
            (["--gap", "nan"], None, "gap"),
            ([], {"time_limit": float("nan")}, "time_limit"),
            (["--time-limit", "inf"], None, "time_limit"),
            ([], {"gap": float("inf")}, "gap"),
        ],
        ids=[
            "time_limit_flag",
            "gap_flag",
            "time_limit_config",
            "inf_time_limit_flag",
            "inf_gap_config",
        ],
    )
    def test_nan_limit_rejected(self, fixture_instance, tmp_path, capsys, flags, config, key):
        # a limit is a finite number: NaN and inf fail the JSON type check
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))  # writes the NaN token json.load reads
            flags = ["--config", str(path)]
        assert cli.main(["solve", str(fixture_instance), *flags]) == 1
        assert f"{key} must be float | None, not " in capsys.readouterr().err


class TestBaseline:
    def test_single_query_budget(self, fixture_instance, tmp_path):
        trace = tmp_path / "b.csv"
        assert (
            cli.main(
                ["baseline", str(fixture_instance), "--seed", "2", "--queries", "1", "--trace", str(trace)]
            )
            == 0
        )
        events = load_trace(trace)
        assert sum(1 for e in events if e.kind == "optimizer_query") == 1

    def test_loads_solve_config_file(self, fixture_instance, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"node_queries": 5, "node_limit": 1, "seed": 2, "queries": 3}))
        assert cli.main(["baseline", str(fixture_instance), "--config", str(config)]) == 0
        assert "queries 3" in capsys.readouterr().out

    def test_deterministic_summaries(self, fixture_instance, capsys):
        cli.main(["baseline", str(fixture_instance), "--seed", "4", "--queries", "30"])
        first = capsys.readouterr().out
        cli.main(["baseline", str(fixture_instance), "--seed", "4", "--queries", "30"])
        assert capsys.readouterr().out == first

    def test_help_shows_the_shared_defaults(self, capsys):
        # baseline takes solve's definitions of the flags they share
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["baseline", "--help"])
        assert exit_info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert f"--p P QAOA depth (default {cli.DEFAULTS.p})" in out
        assert f"(default {cli.DEFAULTS.shots})" in out

    def test_cost_floored_by_optimum(self, fixture_instance, capsys):
        cli.main(["baseline", str(fixture_instance), "--seed", "1", "--queries", "60"])
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split()[1])
        assert value >= 1.0 - 1e-9


class TestReport:
    def run_solve_and_baseline(self, instance, tmp_path):
        t = tmp_path / "t.csv"
        b = tmp_path / "b.csv"
        cli.main(["solve", str(instance), "--seed", "3", "--trace", str(t)])
        cli.main(["baseline", str(instance), "--seed", "3", "--queries", "40", "--trace", str(b)])
        return t, b

    def test_solved_fixture_bounds_meet(self, fixture_instance, tmp_path):
        t, _ = self.run_solve_and_baseline(fixture_instance, tmp_path)
        out = tmp_path / "rep.json"
        assert cli.main(["report", "--trace", str(t), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        run = report["runs"][0]
        assert run["status"] == "optimal"
        assert run["bounds_vs_nodes"]["ub"][-1][1] == pytest.approx(
            run["bounds_vs_nodes"]["lb"][-1][1]
        )

    def test_merged_comparison(self, fixture_instance, tmp_path):
        t, b = self.run_solve_and_baseline(fixture_instance, tmp_path)
        out = tmp_path / "rep.json"
        code = cli.main(
            [
                "report",
                "--trace", str(t),
                "--baseline", str(b),
                "--instance", str(fixture_instance),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert [r["label"] for r in report["runs"]] == ["qcbb", "baseline"]
        assert report["optimum"] == 1.0
        assert report["F"] == 1.0  # worst feasible costs 2, optimum 1

    def test_instance_above_the_oracle_cap_errors(self, fixture_instance, tmp_path, capsys):
        t, _ = self.run_solve_and_baseline(fixture_instance, tmp_path)
        big = tmp_path / "big.json"
        save_instance(BlpInstance(c=[1.0] * 21, A=[[1.0] * 21], b=[1.0]), big)
        capsys.readouterr()
        assert cli.main(["report", "--trace", str(t), "--instance", str(big)]) == 1
        assert "error" in capsys.readouterr().err

    # the second row misses its time, then its node index
    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param(row, message, id=row)
            for row, message in (
                (",0,done,1.0,2.0,,,,optimal", "wall_time_s must be float, not None"),
                ("2e-06,,done,1.0,2.0,,,,optimal", "node_index must be int, not None"),
            )
        ],
    )
    def test_csv_row_missing_a_required_cell_errors(self, tmp_path, capsys, row, message):
        from qcbb.metrics import CSV_COLUMNS

        path = tmp_path / "t.csv"
        path.write_text(f"{','.join(CSV_COLUMNS)}\n1e-06,0,node_start,,,,,,\n{row}\n")
        assert cli.main(["report", "--trace", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "row 2" in err and message in err
        assert "Traceback" not in err and "null" not in out

    def test_integer_beyond_float_range_errors(self, tmp_path):
        # math.isfinite once raised OverflowError on such a cell: a
        # traceback, not an error line
        path = tmp_path / "t.json"
        path.write_text('[{"wall_time_s": 1e-06, "node_index": %d, "kind": "done"}]' % 10**400)
        done = run_python("-m", "qcbb.cli", "report", "--trace", str(path))
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and "row 1: node_index must be int" in done.stderr
        assert "Traceback" not in done.stderr and done.stdout == ""

    def test_decreasing_node_index_errors(self, tmp_path, capsys):
        # once loaded, this trace's report had lb steps [[5, 2], [1, 8], [2, 9]]
        # and a t_end of 2
        rows = [
            {"wall_time_s": 1e-06, "node_index": 0, "kind": "node_start"},
            {"wall_time_s": 2e-06, "node_index": 5, "kind": "incumbent_update", "ub": 10.0},
            {"wall_time_s": 3e-06, "node_index": 5, "kind": "bound_update", "lb": 2.0},
            {"wall_time_s": 4e-06, "node_index": 1, "kind": "bound_update", "lb": 8.0},
            {"wall_time_s": 5e-06, "node_index": 2, "kind": "done", "lb": 9.0, "status": "optimal"},
        ]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(rows))
        assert cli.main(["report", "--trace", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: trace {path} row 4: node_index ")
        assert "Traceback" not in err and out == ""

    def test_instance_is_enumerated_once(self, fixture_instance, tmp_path, monkeypatch):
        # the optimum and the worst feasible cost come from one enumeration
        t, _ = self.run_solve_and_baseline(fixture_instance, tmp_path)
        calls = []
        real = blp.enumerate_assignments

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(blp, "enumerate_assignments", counted)
        out = tmp_path / "rep.json"
        args = ["report", "--trace", str(t), "--instance", str(fixture_instance), "--out", str(out)]
        assert cli.main(args) == 0
        assert calls == [3]
        assert json.loads(out.read_text())["worst_feasible"] == 2.0

    def test_instance_enumeration_peak_memory(self, tmp_path):
        # the 2^20 x 20 float table is 168 MB; no integer copy of it, and no
        # residual table of all its rows, may sit beside it
        path = tmp_path / "i20.json"
        save_instance(blp.generate_spp(20, 7, seed=0), path)
        trace = tmp_path / "t.csv"
        trace.write_text(",".join(CSV_COLUMNS) + "\n1e-06,0,done,1.0,1.0,,,,optimal\n")
        code = (
            "import resource, subprocess, sys; "
            "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        argv = [sys.executable, "-m", "qcbb.cli", "report", "--trace", str(trace), "--instance", str(path)]
        done = run_python("-c", code, *argv)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) / 1024 < 250  # ru_maxrss is in KB on Linux

    def test_empty_trace_errors(self, tmp_path):
        from qcbb.metrics import export_trace

        path = tmp_path / "empty.csv"
        export_trace([], path)
        assert cli.main(["report", "--trace", str(path)]) == 1


# Each file role: its command line, {bad} standing for the bad file, and the
# top-level JSON type the file must hold.
FILE_ROLES = {
    "solve_instance": (["solve", "{bad}"], "object"),
    "config": (["solve", "{instance}", "--config", "{bad}"], "object"),
    "trace": (["report", "--trace", "{bad}"], "array"),
    "baseline_trace": (["report", "--trace", "{trace}", "--baseline", "{bad}"], "array"),
    "report_instance": (["report", "--trace", "{trace}", "--instance", "{bad}"], "object"),
}
# A bad value inside the type a role wants, and a value of the other type.
WRAPPED = {"object": '{{"n": {}}}', "array": "[{}]"}
OTHER_TYPE = {"object": "[1]", "array": '{"n": 1}'}


@pytest.mark.parametrize("contents", ["not_json", "wrong_type", "past_digit_limit"])
@pytest.mark.parametrize("role", list(FILE_ROLES))
def test_bad_file_gives_one_error_line_naming_it(fixture_instance, tmp_path, role, contents):
    argv, kind = FILE_ROLES[role]
    bad = tmp_path / "bad.json"
    bad.write_text(
        {
            "not_json": "{not json",
            "wrong_type": OTHER_TYPE[kind],
            "past_digit_limit": WRAPPED[kind].format("1" + "0" * 5000),
        }[contents]
    )
    trace = tmp_path / "t.csv"
    trace.write_text(",".join(CSV_COLUMNS) + "\n1e-06,0,done,1.0,1.0,,,,optimal\n")
    names = {"bad": bad, "instance": fixture_instance, "trace": trace}
    done = run_python("-m", "qcbb.cli", *(arg.format(**names) for arg in argv))
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(bad) in lines[0]
    assert "Traceback" not in done.stderr and done.stdout == ""
