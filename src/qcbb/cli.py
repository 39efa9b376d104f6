"""Command line interface: instance generation, solving, baseline, reports.

Exit codes for ``solve``: 0 when optimal or the gap target was reached, 2 on
a proven infeasible instance, 3 when a node or time limit stopped the run,
1 on usage, configuration or I/O errors. A JSON config file may set any
``engine.SolverConfig`` field but the library-only ``prune``, and the
baseline's ``queries``, under the flag's name; explicit flags override the
file. ``SolverConfig`` owns each setting's default and rejects a value of
another JSON type or out of range.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import blp, engine, metrics

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3

BRUTE_FORCE_REPORT_MAX_N = 16

DEFAULTS = engine.SolverConfig()
CONFIG_KEYS = {f.name for f in dataclasses.fields(engine.SolverConfig)} - {"prune"} | {"queries"}


def _settings(args: argparse.Namespace) -> tuple[engine.SolverConfig, int]:
    """The solver config and the baseline's query budget: the config file's
    values, overridden by the flags given; a key set by neither takes the
    library default."""
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(values) - CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    queries = values.pop("queries", engine.BASELINE_QUERIES)
    engine.check_setting("queries", queries, "int")
    return engine.SolverConfig(**values), queries


def _assignment_string(x) -> str:
    return "".join(str(int(round(v))) for v in x)


def cmd_gen(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        instance_seed = args.seed + i
        instance = blp.generate_spp(
            args.n, args.m, instance_seed, cost_low=args.cost_low, cost_high=args.cost_high
        )
        if args.with_optimum and args.n <= BRUTE_FORCE_REPORT_MAX_N:
            result = blp.brute_force_optimum(instance)
            instance = dataclasses.replace(instance, optimum=result.value)
            print(f"{instance.name}: optimum {result.value:g}")
        path = out_dir / f"{instance.name}.json"
        blp.save_instance(instance, path)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    config, _ = _settings(args)
    instance = blp.load_instance(args.instance)
    result = engine.solve(instance, config)

    if args.trace:
        metrics.export_trace(result.trace, args.trace)
    print(f"{result.status} {_fmt(result.best_value)}")
    if result.best_assignment is not None:
        print(f"assignment {_assignment_string(result.best_assignment)}")
    print(f"penalized_incumbent {_fmt(result.best_penalized_value)}")
    print(f"lower_bound {_fmt(result.global_lb)}")
    print(f"nodes {result.nodes_evaluated}")
    try:
        series = metrics.bound_series(result.trace, axis="nodes")
        print(f"pd_integral {metrics.primal_dual_integral(series):g}")
    except ValueError:
        print("pd_integral n/a")

    if result.status in ("optimal", "gap_reached"):
        return EXIT_OK
    if result.status == "infeasible":
        return EXIT_INFEASIBLE
    return EXIT_LIMIT


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and not np.isfinite(value):
        return "n/a"
    return f"{value:g}"


def cmd_baseline(args: argparse.Namespace) -> int:
    config, queries = _settings(args)
    instance = blp.load_instance(args.instance)
    result = engine.run_plain_qaoa(instance, config, queries=queries)
    if args.trace:
        metrics.export_trace(result.trace, args.trace)
    print(f"completed {result.best_penalized_value:g}")
    if result.best_feasible_value is not None:
        print(f"feasible {result.best_feasible_value:g}")
        print(f"assignment {_assignment_string(result.best_feasible_assignment)}")
    print(f"queries {result.queries}")
    return EXIT_OK


def _series_of(events) -> dict:
    out: dict = {}
    for axis in ("nodes", "seconds"):
        series = metrics.bound_series(events, axis=axis)
        key = "bounds_vs_nodes" if axis == "nodes" else "bounds_vs_time"
        out[key] = {
            "ub": [[t, v] for t, v in series.ub_steps],
            "lb": [[t, v] for t, v in series.lb_steps],
            "t_end": series.t_end,
        }
        try:
            out[f"pd_integral_{axis}"] = metrics.primal_dual_integral(series)
        except ValueError:
            out[f"pd_integral_{axis}"] = None
    fraction = [
        [e.node_index, e.many_body_fraction]
        for e in events
        if e.many_body_fraction is not None
    ]
    out["many_body_fraction"] = fraction
    out["expected_cost_vs_queries"] = [
        [e.query_index, e.expectation] for e in events if e.kind == "optimizer_query"
    ]
    done = [e for e in events if e.kind == "done"]
    out["status"] = done[-1].status if done else None
    return out


def cmd_report(args: argparse.Namespace) -> int:
    events = metrics.load_trace(args.trace)
    if not events:
        raise ValueError(f"trace {args.trace} is empty")
    report = {"runs": [{"label": "qcbb", **_series_of(events)}]}
    if args.baseline:
        baseline_events = metrics.load_trace(args.baseline)
        if not baseline_events:
            raise ValueError(f"trace {args.baseline} is empty")
        report["runs"].append({"label": "baseline", **_series_of(baseline_events)})
    if args.instance:
        instance = blp.load_instance(args.instance)
        if instance.n <= BRUTE_FORCE_REPORT_MAX_N:
            best = blp.brute_force_optimum(instance)
            worst = blp.worst_feasible_cost(instance)
            if best.feasible:
                report["optimum"] = best.value
                report["worst_feasible"] = worst
                report["F"] = worst - best.value
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR; argparse's own 2 means infeasible here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcbb",
        description="Quantum-classical branch and bound for binary linear programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate set-partitioning instances")
    gen.add_argument("--n", type=int, required=True, help="number of variables (subsets)")
    gen.add_argument("--m", type=int, required=True, help="number of ground elements")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--cost-low", dest="cost_low", type=int, default=1)
    gen.add_argument("--cost-high", dest="cost_high", type=int, default=20)
    gen.add_argument("--out", default=".", help="output directory")
    gen.add_argument(
        "--with-optimum",
        dest="with_optimum",
        action="store_true",
        help="embed the brute-force optimum (n <= 16)",
    )
    gen.set_defaults(func=cmd_gen)

    common = argparse.ArgumentParser(add_help=False)  # solve's and baseline's flags
    common.add_argument("--config", default=None, help="JSON config file; flags override")
    common.add_argument("--p", type=int, default=None, help=f"QAOA depth (default {DEFAULTS.p})")
    common.add_argument(
        "--shots", type=int, default=None, help=f"shots per node (default {DEFAULTS.shots})"
    )
    common.add_argument("--seed", type=int, default=None, help=f"seed (default {DEFAULTS.seed})")
    common.add_argument("--trace", default=None, help="write the event trace (csv or json)")
    common.add_argument(
        "--wall-clock",
        dest="wall_clock",
        action="store_const",
        const=True,
        default=None,
        help="timestamp events with real elapsed seconds (breaks byte-level trace reproducibility)",
    )

    solve = sub.add_parser("solve", parents=[common], help="solve an instance to proven optimality")
    solve.add_argument("instance", help="instance JSON file")
    solve.add_argument(
        "--node-queries",
        dest="node_queries",
        type=int,
        default=None,
        help=(
            f"optimizer query cap per node (default {DEFAULTS.node_queries}); a node "
            "stops after 2(2p+1) queries with no new best"
        ),
    )
    solve.add_argument("--node-limit", dest="node_limit", type=int, default=None)
    solve.add_argument("--time-limit", dest="time_limit", type=float, default=None)
    solve.add_argument("--gap", type=float, default=None, help="relative gap target")
    solve.set_defaults(func=cmd_solve)

    baseline = sub.add_parser("baseline", parents=[common], help="plain QAOA on the master problem")
    baseline.add_argument("instance", help="instance JSON file")
    baseline.add_argument(
        "--queries",
        type=int,
        default=None,
        help=f"query budget (default {engine.BASELINE_QUERIES})",
    )
    baseline.set_defaults(func=cmd_baseline)

    report = sub.add_parser("report", help="plot-ready series from trace files")
    report.add_argument("--trace", required=True, help="solver trace file")
    report.add_argument("--baseline", default=None, help="baseline trace to merge")
    report.add_argument(
        "--instance", default=None, help="instance file, enables the optimum/F block"
    )
    report.add_argument("--out", default=None, help="output JSON path (default stdout)")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
