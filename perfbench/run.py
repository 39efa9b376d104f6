"""qcbb benchmark: one workload, one seed, metrics by name with units.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Workloads are ``ladder``, ``deep_tree`` and ``plain_qaoa`` (see README.md in
this directory). The measured work runs in a fresh single-process worker with
one BLAS thread; set-up is timed in that worker and in a few probe workers.
The exhaustive oracle runs here, only after every worker has exited, so its
memory never reaches a measured process. Every answer is checked against it.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the environment stamp and every metric as text.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder", "deep_tree", "plain_qaoa")
BLAS_THREADS = "1"
SETUP_PROBES = 2  # set-up is timed in these workers plus the measured one
DEADLINE_S = 170.0  # the whole run, workers included, ends before this
VALUE_TOL = 1e-6
E2E_UNITS = {
    "wall_s": "s",
    "nodes": "count",
    "queries": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class BenchError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name == "vqa.amps":
        return "count"
    if name == "vqa.bytes_computed":
        return "B"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    raise ValueError(f"no unit known for metric {name!r}")


def check_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"metric name {name!r} must be 1-64 of [A-Za-z0-9_.-], starting alphanumeric")
    return name


def check_answer(answer: dict, oracle: dict) -> str | None:
    """Why an answer is wrong, or None when it passes.

    A tree solve must report the oracle's status and optimum. A plain-QAOA
    run must return a value equal to the penalized cost of its assignment,
    not below the optimum, after spending exactly its query budget.
    """
    optimum = oracle["value"]
    tol = VALUE_TOL * max(1.0, abs(optimum or 0.0))
    if "budget" not in answer:
        if optimum is None:
            return None if answer["status"] == "infeasible" else f"status {answer['status']}, oracle infeasible"
        if answer["status"] != "optimal":
            return f"status {answer['status']}, oracle optimum {optimum}"
        if answer["value"] is None or abs(answer["value"] - optimum) > tol:
            return f"value {answer['value']}, oracle optimum {optimum}"
        return None
    if answer["queries"] != answer["budget"]:
        return f"{answer['queries']} queries, budget {answer['budget']}"
    if abs(answer["value"] - oracle["penalized"]) > tol:
        return f"value {answer['value']}, penalized cost of its assignment {oracle['penalized']}"
    if optimum is not None and answer["value"] < optimum - tol:
        return f"value {answer['value']} below the optimum {optimum}"
    return None


def count_failures(answers: list[dict], oracles: list[dict]) -> tuple[int, list[str]]:
    reasons = [r for a, o in zip(answers, oracles, strict=True) if (r := check_answer(a, o))]
    return len(reasons), reasons


def oracles(workload: str, seed: int, answers: list[dict]) -> list[dict]:
    """Exhaustive optimum of every job, plus the penalized cost of each
    baseline assignment. Imports numpy, so call it after the workers ran."""
    from workloads import jobs
    from qcbb import brute_force_optimum, compute_big_m, penalized_cost

    out = []
    for job, answer in zip(jobs(workload, seed), answers, strict=True):
        best = brute_force_optimum(job.instance)
        entry = {"value": best.value}
        if job.queries is not None:
            M = compute_big_m(job.instance)
            entry["penalized"] = penalized_cost(job.instance, answer["assignment"], M)
        out.append(entry)
    return out


def worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker passed the deadline: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [worker([*common, "--probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    measured = worker([*common, "--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups.append(measured["setup_s"])

    answers = measured["answers"]
    failed, reasons = count_failures(answers, oracles(workload, seed, answers))
    for reason in reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    rounds = measured["rounds"]
    if trace:
        metrics = {name: (value, unit_of(name)) for name, value in measured["per_layer"].items()}
    else:
        metrics = {
            "wall_s": statistics.median(measured["round_s"]),
            "nodes": sum(a["nodes"] for a in answers),
            "queries": sum(a["queries"] for a in answers),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": rounds * len(answers),
        "failed": rounds * failed,
        "metrics": {check_name(n): {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    env = dict(measured["env"], rounds=rounds, setups=len(setups))
    return result, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcbb benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qcbb" / "__init__.py").is_file():
        print(f"error: no qcbb source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, env = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"metric failed_frac {failed_frac!r} ratio ({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
