"""Iteration-time variance: mean +/- std over repeated jittered iterations.

The paper's Table III reports ``mean +/- std`` over 100 measured iterations
(std <= 12ms — a stable, dedicated testbed). The base simulator is
deterministic; this module adds multiplicative log-normal jitter to every
task's duration (kernel-time variation, NIC scheduling noise) and replays
the iteration, yielding a distribution:

    >>> d = simulate_iteration_distribution("acpsgd", spec, rank=32)
    >>> d.mean_ms, d.std_ms

A per-task sigma of ~2% reproduces the paper's iteration-level std range
(a few ms on 200-2300ms iterations) because independent per-task noise
averages out across hundreds of tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.models.spec import ModelSpec
from repro.sched import TaskGraph
from repro.sim.calibration import SimConfig
from repro.sim.results import breakdown_from_records
from repro.sim.strategies import BuildContext, ClusterSpec, SystemConfig


@dataclass(frozen=True)
class IterationDistribution:
    """Summary of repeated jittered iteration simulations (seconds)."""

    samples: Tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        return float(np.std(self.samples))

    @property
    def mean_ms(self) -> float:
        return self.mean * 1e3

    @property
    def std_ms(self) -> float:
        return self.std * 1e3

    def render(self, label: str = "") -> str:
        prefix = f"{label}: " if label else ""
        return f"{prefix}{self.mean_ms:.0f} +/- {self.std_ms:.0f} ms"


def _jitter_graph(
    graph: TaskGraph, rng: np.random.Generator, sigma: float
) -> TaskGraph:
    """Scale each task's work by an independent log-normal factor."""
    factors = iter(np.exp(rng.normal(0.0, sigma, size=len(graph))))
    return graph.map_tasks(lambda task: replace(task, work=task.work * next(factors)))


def simulate_iteration_distribution(
    method: str,
    model: ModelSpec,
    cluster: Optional[ClusterSpec] = None,
    system: Optional[SystemConfig] = None,
    sim: Optional[SimConfig] = None,
    batch_size: Optional[int] = None,
    rank: int = 4,
    iterations: int = 30,
    jitter_sigma: float = 0.02,
    seed: int = 0,
) -> IterationDistribution:
    """Replay one iteration ``iterations`` times with per-task jitter.

    For ACP-SGD, iterations alternate P/Q parities like real training, so
    the parity difference contributes to the reported std exactly as it
    would on hardware.
    """
    if iterations < 2:
        raise ValueError(f"need >= 2 iterations, got {iterations}")
    if jitter_sigma < 0:
        raise ValueError(f"jitter_sigma must be >= 0, got {jitter_sigma}")
    ctx = BuildContext.resolve(method, model, cluster, system, sim, batch_size, rank)
    rng = np.random.default_rng(seed)
    graphs = [ctx.graph(parity_p) for parity_p in ctx.parities]
    samples = []
    for idx in range(iterations):
        jittered = _jitter_graph(graphs[idx % len(graphs)], rng, jitter_sigma)
        samples.append(breakdown_from_records(ctx.run(jittered)).total)
    return IterationDistribution(tuple(samples))
