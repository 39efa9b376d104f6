import json

import pytest

from qcbb import cli
from qcbb.blp import BlpInstance, brute_force_optimum, load_instance, save_instance
from qcbb.metrics import load_trace


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

    def test_infeasible_exit_code(self, infeasible_instance):
        assert cli.main(["solve", str(infeasible_instance), "--seed", "0"]) == 2

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

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"wall_clock": "false"}, "wall_clock"),
            ({"p": 1.9, "node_queries": 4.7}, "p"),
            ({"node_queries": 4.7}, "node_queries"),
            ({"seed": True}, "seed"),
            ({"p": None}, "p"),
        ],
        ids=["bool_as_string", "float_p", "float_node_queries", "bool_seed", "null_p"],
    )
    def test_bad_config_value_rejected(self, fixture_instance, tmp_path, capsys, values, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        assert cli.main(["solve", str(fixture_instance), "--config", str(config)]) == 1
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--time-limit", "nan"], None),
            (["--gap", "nan"], None),
            ([], {"time_limit": float("nan")}),
        ],
        ids=["time_limit_flag", "gap_flag", "time_limit_config"],
    )
    def test_nan_limit_rejected(self, fixture_instance, tmp_path, capsys, flags, config):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))  # writes the NaN token json.load reads
            flags = ["--config", str(path)]
        assert cli.main(["solve", str(fixture_instance), *flags]) == 1
        assert "limits must be positive" in capsys.readouterr().err


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

    def test_empty_trace_errors(self, tmp_path):
        from qcbb.metrics import export_trace

        path = tmp_path / "empty.csv"
        export_trace([], path)
        assert cli.main(["report", "--trace", str(path)]) == 1
