"""The measured process: set up, run a workload's jobs, report raw results.

Run by ``run.py``, one process per measurement, with the BLAS thread count
fixed through the environment. Prints one JSON object on its last stdout
line. ``--probe`` stops right before the first solve and reports only the
set-up time. ``--trace 1`` runs every job untraced and then traced, and adds
the per-layer totals of the traced runs.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import time

from workloads import ROOT, jobs  # imports qcbb: part of set-up

import numpy as np
import scipy

import qcbb
from qcbb import bound, engine, ising, vqa
from tracer import Tracer, installed

TRACE_TARGETS = (
    ("engine.search", engine, "solve"),
    ("engine.search", engine, "run_plain_qaoa"),
    ("engine.evaluate_node", engine, "evaluate_node"),
    ("engine.propagate", engine, "propagate"),
    ("engine.conflict_values", engine, "conflict_values"),
    ("ising.encode", ising, "encode"),
    ("ising.reduce", ising, "reduce"),
    ("ising.many_body_count", ising, "many_body_count"),
    ("bound.lower_bound", bound, "lower_bound"),
    ("bound.solve_sdp", bound, "solve_sdp"),
    ("bound.sdp_upper_bound", bound, "sdp_upper_bound"),
    ("bound.gw_round", bound, "gw_round"),
    ("vqa.build_diagonal", vqa, "build_diagonal"),
    ("vqa.optimize_angles", vqa, "optimize_angles"),
    ("vqa.qaoa_state", vqa, "qaoa_state"),
    ("vqa._apply_mixer", vqa, "_apply_mixer"),
    ("vqa.expectation", vqa, "expectation"),
    ("vqa.sample", vqa, "sample"),
)
LAYERS = ("engine", "ising", "bound", "vqa")
STATE_BYTES = 16  # complex128 amplitude


def state_work(args, kwargs) -> dict[str, float]:
    """Computed work of one ``qaoa_state(diag, params)`` call.

    amps = p * 2^n amplitudes produced; bytes assume one read and one write of
    the state per phase layer and per mixer qubit, so they ignore caches.
    """
    diag = kwargs["diag"] if "diag" in kwargs else args[0]
    params = kwargs["params"] if "params" in kwargs else args[1]
    amps = params.p * diag.size
    n_spins = int(diag.size).bit_length() - 1
    return {"vqa.amps": amps, "vqa.bytes_computed": amps * 2 * STATE_BYTES * (1 + n_spins)}


def run_job(job):
    if job.queries is None:
        return engine.solve(job.instance, job.config)
    return engine.run_plain_qaoa(job.instance, job.config, queries=job.queries)


def answer(job, result) -> dict:
    """What the check needs from one result, as plain JSON."""
    if job.queries is None:
        x = result.best_assignment
        return {
            "status": result.status,
            "value": result.best_value,
            "assignment": None if x is None else [int(v) for v in x],
            "nodes": result.nodes_evaluated,
            "queries": sum(e.kind == "optimizer_query" for e in result.trace),
        }
    return {
        "status": "completed",
        "value": result.best_penalized_value,
        "assignment": [int(v) for v in result.best_penalized_assignment],
        "nodes": 1,  # the master problem is the one node the baseline evaluates
        "queries": result.queries,
        "budget": job.queries,
    }


def timed(job):
    t = time.perf_counter()
    result = run_job(job)
    return time.perf_counter() - t, result


def qaoa_node_hits(results) -> tuple[int, int]:
    """(nodes whose samples improved the incumbent, nodes that ran QAOA)."""
    hits = qaoa_nodes = 0
    for result in results:
        queried, improved = set(), set()
        for e in result.trace:
            if e.kind == "optimizer_query":
                queried.add(e.node_index)
            elif e.kind == "incumbent_update":
                improved.add(e.node_index)
        qaoa_nodes += len(queried)
        hits += len(queried & improved)
    return hits, qaoa_nodes


def bound_prunes(results) -> int:
    prunes = 0
    for result in results:
        for rec in getattr(result, "node_records", {}).values():
            if rec.outcome == "pruned_bound" or (
                rec.outcome == "pruned_infeasible" and rec.reason == "bound"
            ):
                prunes += 1
    return prunes


def layer_metrics(tr: Tracer, results, queries: int) -> dict[str, float]:
    """Per-layer totals of one traced round, keyed by metric name."""
    mixer = tr.busy["vqa._apply_mixer"]
    hits, qaoa_nodes = qaoa_node_hits(results)
    lb_calls = tr.calls["bound.lower_bound"]
    out = {
        "vqa.qaoa_state.calls": tr.calls["vqa.qaoa_state"],
        "vqa.qaoa_state.s": tr.busy["vqa.qaoa_state"],
        "vqa._apply_mixer.s": mixer,
        "vqa.phase_s": tr.busy["vqa.qaoa_state"] - mixer,
        "vqa.expectation.s": tr.busy["vqa.expectation"],
        "vqa.query_ms": 1000.0 * tr.busy["vqa.optimize_angles"] / max(queries, 1),
        "vqa.build_diagonal.calls": tr.calls["vqa.build_diagonal"],
        "vqa.build_diagonal.s": tr.busy["vqa.build_diagonal"],
        "vqa.optimize_angles.calls": tr.calls["vqa.optimize_angles"],
        "vqa.optimize_angles.s": tr.busy["vqa.optimize_angles"],
        "vqa.optimize_angles.self_s": tr.self_time["vqa.optimize_angles"],
        "vqa.incumbent_hit_ratio": hits / qaoa_nodes if qaoa_nodes else 0.0,
        "vqa.sample.s": tr.busy["vqa.sample"],
        "vqa.amps": tr.counters["vqa.amps"],
        "vqa.bytes_computed": tr.counters["vqa.bytes_computed"],
        "bound.lower_bound.calls": lb_calls,
        "bound.lower_bound.s": tr.busy["bound.lower_bound"],
        "bound.solve_sdp.s": tr.busy["bound.solve_sdp"],
        "bound.sdp_upper_bound.s": tr.busy["bound.sdp_upper_bound"],
        "bound.gw_round.s": tr.busy["bound.gw_round"],
        "bound.prune_ratio": bound_prunes(results) / lb_calls if lb_calls else 0.0,
        "engine.evaluate_node.calls": tr.calls["engine.evaluate_node"],
        "engine.evaluate_node.s": tr.busy["engine.evaluate_node"],
        "engine.propagate.calls": tr.calls["engine.propagate"],
        "engine.propagate.s": tr.busy["engine.propagate"],
        "engine.conflict_values.s": tr.busy["engine.conflict_values"],
        "ising.reduce.calls": tr.calls["ising.reduce"],
        "ising.reduce.s": tr.busy["ising.reduce"],
        "ising.encode.s": tr.busy["ising.encode"],
        "engine.search.s": tr.self_time["engine.search"],
    }
    for layer in LAYERS:
        out[f"layer.{layer}.busy_s"] = tr.layer_busy[layer]
        out[f"layer.{layer}.self_s"] = tr.layer_self(layer)
    return out


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, when it can be asked."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD commit read from the checkout's .git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
    }


def measure(job_list, seconds: float, trace: bool) -> dict:
    """Rounds over the whole job list until the next would overrun ``seconds``.

    With tracing, each job runs untraced and then traced, back to back, so
    the overhead is measured on identical work at nearly the same time.
    """
    targets = [
        (name, module, attr, state_work if name == "vqa.qaoa_state" else None)
        for name, module, attr in TRACE_TARGETS
        if hasattr(module, attr)
    ]
    untraced, traced, layers = [], [], []
    answers = None
    start = time.perf_counter()
    while True:
        wall = wall_t = 0.0
        results = []
        tr = Tracer()
        for job in job_list:
            dt, result = timed(job)
            wall += dt
            results.append(result)
            if trace:
                with installed(tr, targets, "qcbb"):
                    dt, traced_result = timed(job)
                wall_t += dt
                if answer(job, traced_result) != answer(job, result):
                    raise RuntimeError("tracing changed an answer")
        round_answers = [answer(j, r) for j, r in zip(job_list, results)]
        answers = answers or round_answers
        if round_answers != answers:
            raise RuntimeError("a repeated round returned different answers")
        untraced.append(wall)
        if trace:
            traced.append(wall_t)
            queries = sum(a["queries"] for a in round_answers)
            layers.append(layer_metrics(tr, results, queries))
        if time.perf_counter() - start + wall + wall_t > seconds:
            break
    out = {"round_s": untraced, "answers": answers, "rounds": len(untraced)}
    if trace:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        out["per_layer"] = per_layer
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.dirname(qcbb.__file__).startswith(str(ROOT / "src")):
        raise SystemExit(f"qcbb was imported from {qcbb.__file__}, not from {ROOT / 'src'}")
    job_list = jobs(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if not args.probe:
        out.update(measure(job_list, args.seconds, bool(args.trace)))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["env"] = environment(args.workload, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
