"""Shared scenario matrix for the golden-trace bit-identity check.

Each scenario names a task graph plus the engine configuration used to
run it — covering every ``simulate_iteration`` method, the system
switches each method's builder actually branches on, pipeline chains
(with and without the comm barrier / priority NIC), and fault-perturbed
replays. Graphs come from the public graph API only
(``build_iteration_graph``, ``build_steady_state_graph``,
``FaultModel.perturb_graph``). ``scripts/golden_trace.py capture``
stores one SHA-256 per scenario over its sorted
``(task_id, start.hex(), end.hex())`` records, plus the full records of
the scenarios in :data:`FULL_TRACES`; ``tests/test_golden_trace.py``
re-runs every scenario and requires the same bits.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.comm.topology import ClusterTopology
from repro.models import get_model_spec
from repro.sched import TaskGraph
from repro.sim.calibration import SIM_LINKS, SimConfig
from repro.sim.engine import Engine
from repro.sim.faults import FaultModel
from repro.sim.pipeline import build_steady_state_graph
from repro.sim.strategies import (
    ALL_METHODS,
    ClusterSpec,
    SystemConfig,
    build_iteration_graph,
)

Scenario = Tuple[str, TaskGraph, Dict]
Records = List[List[str]]

#: Scenarios whose every record is stored (one iteration with GPU-stream
#: contention, one priority-scheduled pipeline chain, one fault replay), so
#: a drift there is reported by task, not only by digest.
FULL_TRACES = (
    "iter/powersgd_star/resnet50",
    "pipeline/acpsgd/priority",
    "faults/acpsgd/seed3",
)


def _iteration(name: str, method: str, model_name: str = "ResNet-50",
               sim: SimConfig = SimConfig(), **kwargs) -> Scenario:
    graph = build_iteration_graph(
        method, get_model_spec(model_name), sim=sim, **kwargs
    )
    return name, graph, {"contention_rate": sim.contention_rate}


def _pipeline(name: str, method: str, *, pipelined: bool,
              priority_comm: bool = False) -> Scenario:
    sim = SimConfig()
    chained = build_steady_state_graph(
        method, get_model_spec("ResNet-50"), sim=sim, iterations=3,
        pipelined=pipelined, priority_comm=priority_comm,
    )
    engine_kwargs: Dict = {"contention_rate": sim.contention_rate}
    if priority_comm:
        engine_kwargs["disciplines"] = {"nic": "priority"}
    return name, chained, engine_kwargs


def _faulty(name: str, method: str, seed: int) -> Scenario:
    cluster = ClusterSpec(world_size=8)
    sim = SimConfig()
    graph = build_iteration_graph(
        method, get_model_spec("ResNet-50"), cluster, sim=sim
    )
    fault = FaultModel(
        straggler_prob=0.3, straggler_sigma=2.0, drop_rate=0.05,
        rank_down_s=0.002, worker_crash_prob=0.1,
    )
    perturbed = fault.perturb_graph(
        graph, cluster.world_size, np.random.default_rng(seed)
    )
    return name, perturbed, {"contention_rate": sim.contention_rate}


def iter_scenarios() -> Iterator[Scenario]:
    """Yield ``(name, graph, engine_kwargs)`` for every golden scenario."""
    # Every method (core six + the four extensions), paper defaults.
    for method in ALL_METHODS:
        yield _iteration(f"iter/{method}/resnet50", method)
    # ACP-SGD's other parity (Q-step graph differs slightly).
    yield _iteration("iter/acpsgd/resnet50/parity-q", "acpsgd",
                     acp_parity_p=False)
    # A transformer model, paper rank 32.
    for method in ("ssgd", "powersgd", "acpsgd"):
        yield _iteration(f"iter/{method}/bert-base", method,
                         model_name="BERT-Base", rank=32)
    for method in ("dgc", "randomk"):
        yield _iteration(f"iter/{method}/bert-base", method,
                         model_name="BERT-Base")
    # System-configuration corners. The all-gather template ignores the
    # fusion / scaling switches, so the topk and signsgd rows pin exactly
    # that (same digest as their resnet50 rows).
    yield _iteration("iter/ssgd/no-wfbp", "ssgd",
                     system=SystemConfig(wfbp=False))
    yield _iteration("iter/topk/no-fusion", "topk",
                     system=SystemConfig(tensor_fusion=False))
    yield _iteration("iter/signsgd/no-scale", "signsgd",
                     system=SystemConfig(scale_compressed_buffer=False))
    # Naive per-matrix Power-SGD; per-tensor hooks (ortho contends).
    for method in ("powersgd", "powersgd_star"):
        yield _iteration(f"iter/{method}/no-fusion", method,
                         system=SystemConfig(tensor_fusion=False))
    # The inline-hook timeline's other branches.
    for method in ("acpsgd", "randomk"):
        yield _iteration(f"iter/{method}/no-wfbp", method,
                         system=SystemConfig(wfbp=False))
    yield _iteration("iter/acpsgd/no-scale", "acpsgd",
                     system=SystemConfig(scale_compressed_buffer=False))
    # Cluster corners: small world on a slow link; topology-aware costs.
    yield _iteration("iter/ssgd/ws4-1gbe", "ssgd",
                     cluster=ClusterSpec(world_size=4, link=SIM_LINKS["1GbE"]))
    topo_cluster = ClusterSpec(
        world_size=32,
        topology=ClusterTopology(num_nodes=8, gpus_per_node=4),
    )
    yield _iteration("iter/ssgd/topology", "ssgd", cluster=topo_cluster)
    yield _iteration("iter/acpsgd/topology", "acpsgd", cluster=topo_cluster)
    # Pipeline chains: overlap on/off, priority NIC discipline.
    yield _pipeline("pipeline/ssgd/pipelined", "ssgd", pipelined=True)
    yield _pipeline("pipeline/topk/barrier", "topk", pipelined=False)
    yield _pipeline("pipeline/acpsgd/priority", "acpsgd", pipelined=True,
                    priority_comm=True)
    # Fault-perturbed replays (stragglers, retransmits, downtime gates).
    yield _faulty("faults/ssgd/seed0", "ssgd", seed=0)
    yield _faulty("faults/topk/seed7", "topk", seed=7)
    yield _faulty("faults/acpsgd/seed3", "acpsgd", seed=3)


def run_scenario(graph: TaskGraph, engine_kwargs: Dict) -> Records:
    """Run one scenario; ``[task_id, start hex, end hex]`` sorted by id."""
    records = Engine(**engine_kwargs).run(graph)
    return [
        [task_id, record.start.hex(), record.end.hex()]
        for task_id, record in sorted(records.items())
    ]


def digest(records: Records) -> str:
    """SHA-256 of the canonical (compact JSON) form of sorted records."""
    canonical = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def first_drift(actual: Records, expected: Records) -> str:
    """Name the first task (by id) whose record differs, with both sides."""
    got = {task_id: times for task_id, *times in actual}
    want = {task_id: times for task_id, *times in expected}
    for task_id in sorted(set(got) | set(want)):
        if got.get(task_id) != want.get(task_id):
            return (f"first drifting task {task_id!r}: "
                    f"golden {want.get(task_id)} != actual {got.get(task_id)}")
    return "records identical"
