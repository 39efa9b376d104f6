"""Instance sets of the benchmark workloads.

Each workload is a fixed list of jobs: ``generate_spp`` instances plus the
solver settings that run them. Tree jobs are solved to proven optimality
with ``solve``; baseline jobs spend a flat query budget with
``run_plain_qaoa``.

The instances are a fixed ladder: shape (n, m) uses generator seeds 0, 1, ...
The workload seed is the solver seed, which drives every random stream of a
solve (QAOA starting angles, shot sampling, SDP starts, hyperplane rounding).
Instances are not drawn from the workload seed because tree size varies far
more between instances (3 to 31 nodes on these shapes) than between solver
seeds on one instance (19 to 21 nodes on one deep_tree instance), so totals
over freshly drawn instances moved by more than any usable regression bound
from one seed to the next.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from qcbb import BlpInstance, SolverConfig, generate_spp  # noqa: E402

WORKLOADS = ("ladder", "deep_tree", "plain_qaoa")

# ladder: (n, instances); m = n // 3, default SolverConfig
LADDER = ((14, 14), (16, 2), (18, 1))
DEEP_TREE_INSTANCES = 18
PLAIN_QAOA_QUERIES = 32


@dataclass(frozen=True)
class Job:
    instance: BlpInstance
    config: SolverConfig
    queries: int | None = None  # flat budget for run_plain_qaoa; None = tree solve


def jobs(workload: str, seed: int) -> list[Job]:
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if workload == "ladder":
        config = SolverConfig(seed=seed)
        return [
            Job(generate_spp(n, n // 3, seed=i), config)
            for n, count in LADDER
            for i in range(count)
        ]
    if workload == "deep_tree":
        config = SolverConfig(p=1, node_queries=4, shots=64, seed=seed)
        return [
            Job(generate_spp(18, 3, seed=i), config)
            for i in range(DEEP_TREE_INSTANCES)
        ]
    if workload == "plain_qaoa":
        return [
            Job(
                generate_spp(20, 7, seed=0),
                SolverConfig(p=3, seed=seed),
                queries=PLAIN_QAOA_QUERIES,
            )
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
