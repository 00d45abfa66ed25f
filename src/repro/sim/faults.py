"""Straggler / failure timing model for the performance simulator.

The convergence-side fault machinery (:mod:`repro.faults`) answers "does
training survive?"; this module answers the paper-adjacent *performance*
question: what does an imperfect cluster do to each method's iteration
time? Compression methods differ sharply here — ACP-SGD's single small
all-reduce retransmits cheaply, while S-SGD's large gradient volume pays
``drop_rate`` over far more packets, and every synchronous method is gated
by its slowest rank.

The model perturbs one iteration's task graph (from
:mod:`repro.sim.strategies`) per sample:

- **stragglers** — each rank independently straggles with probability
  ``straggler_prob``; a straggler's compute runs ``1 + sigma * |z|`` times
  slower (``z ~ N(0,1)``). Lockstep synchrony means the iteration is gated
  by the *slowest* rank, so all compute tasks are scaled by the max factor;
- **transfer drops** — each communication task suffers a geometric number
  of retransmissions at rate ``drop_rate``; every retransmission costs a
  detection timeout plus a resend of the transfer;
- **rank downtime** — a failed rank back after ``rank_down_s`` delays every
  collective's start (compute proceeds locally), exercising the engine's
  ``Task.start_after`` gate.

All draws come from one seeded generator, so a trace is reproducible
bit-for-bit. Follows the :mod:`repro.sim.variance` idiom.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.spec import ModelSpec
from repro.sched import TaskGraph
from repro.sim.calibration import SimConfig
from repro.sim.engine import Task
from repro.sim.results import breakdown_from_records
from repro.sim.strategies import BuildContext, ClusterSpec, SystemConfig

_COMPUTE_TAGS = ("forward", "backward", "compression")
_MAX_RETRANSMITS = 10
#: Cost of one child respawn (process start and model-replica setup),
#: paid per crash before collectives may begin.
WORKER_RESPAWN_S = 0.05


@dataclass(frozen=True)
class FaultModel:
    """Stochastic cluster imperfections applied to an iteration's tasks.

    Attributes:
        straggler_prob: per-rank per-iteration straggling probability.
        straggler_sigma: straggler severity — slowdown ``1 + sigma * |z|``
          with ``z ~ N(0,1)`` (3.0 models the "3-sigma straggler" question).
        drop_rate: per-transfer probability that a communication task needs
          a retransmission (sampled geometrically, capped at 10).
        retry_timeout_s: detection timeout paid per retransmission, on top
          of resending the transfer itself.
        rank_down_s: seconds from iteration start during which a rank is
          down; collectives cannot start before it recovers.
        worker_crash_prob: per-rank per-iteration probability that the
          rank's worker *process* dies mid-step and is respawned in
          place (the supervisor's ``"restart"`` rung): the crashed pass
          re-runs after the respawn, so — under lockstep synchrony —
          the iteration's compute doubles and every collective waits
          out the respawn (:data:`WORKER_RESPAWN_S`).
    """

    straggler_prob: float = 0.0
    straggler_sigma: float = 3.0
    drop_rate: float = 0.0
    retry_timeout_s: float = 0.01
    rank_down_s: float = 0.0
    worker_crash_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.straggler_prob <= 1.0:
            raise ValueError(
                f"straggler_prob must be in [0, 1], got {self.straggler_prob}"
            )
        if self.straggler_sigma < 0:
            raise ValueError(
                f"straggler_sigma must be >= 0, got {self.straggler_sigma}"
            )
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if self.retry_timeout_s < 0:
            raise ValueError(
                f"retry_timeout_s must be >= 0, got {self.retry_timeout_s}"
            )
        if self.rank_down_s < 0:
            raise ValueError(f"rank_down_s must be >= 0, got {self.rank_down_s}")
        if not 0.0 <= self.worker_crash_prob <= 1.0:
            raise ValueError(
                f"worker_crash_prob must be in [0, 1], "
                f"got {self.worker_crash_prob}"
            )

    def sample_compute_slowdown(
        self, world_size: int, rng: np.random.Generator
    ) -> float:
        """The iteration's compute slowdown: the slowest rank gates everyone."""
        straggling = rng.random(world_size) < self.straggler_prob
        if not straggling.any():
            return 1.0
        severities = 1.0 + self.straggler_sigma * np.abs(
            rng.normal(size=int(straggling.sum()))
        )
        return float(severities.max())

    def sample_worker_crashes(
        self, world_size: int, rng: np.random.Generator
    ) -> int:
        """How many worker processes die (and respawn) this iteration."""
        if self.worker_crash_prob <= 0.0:
            return 0
        return int((rng.random(world_size) < self.worker_crash_prob).sum())

    def sample_retransmits(self, rng: np.random.Generator) -> int:
        """Geometric retransmission count for one transfer (capped)."""
        retries = 0
        while retries < _MAX_RETRANSMITS and rng.random() < self.drop_rate:
            retries += 1
        return retries

    def perturb_graph(
        self, graph: TaskGraph, world_size: int, rng: np.random.Generator
    ) -> TaskGraph:
        """One faulty replay of ``graph``: scaled compute, retried comm.

        The per-task draws happen in submission order (``map_tasks``
        preserves it), so seeded traces are stable.
        """
        slowdown = self.sample_compute_slowdown(world_size, rng)
        # Worker-crash draws are gated on the knob (not just zero-prob
        # draws) so seeded traces from crash-free models replay exactly
        # as they did before the knob existed.
        crashes = self.sample_worker_crashes(world_size, rng)
        if crashes:
            # The supervised restart rung: the dead rank's pass re-runs
            # after the respawn, and synchrony gates everyone on it.
            slowdown *= 2.0
        respawn_delay = crashes * WORKER_RESPAWN_S

        def perturb_one(task: Task) -> Task:
            work = task.work
            start_after = task.start_after
            if task.tag in _COMPUTE_TAGS:
                work *= slowdown
            elif task.tag == "comm":
                retries = self.sample_retransmits(rng)
                if retries:
                    work += retries * (task.work + self.retry_timeout_s)
                if self.rank_down_s > 0.0 or respawn_delay > 0.0:
                    start_after = max(
                        start_after, self.rank_down_s, respawn_delay
                    )
            return replace(task, work=work, start_after=start_after)

        return graph.map_tasks(perturb_one)


@dataclass(frozen=True)
class FaultTrace:
    """Iteration times (seconds) of one method under a fault model."""

    method: str
    clean_time: float
    samples: Tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def p95(self) -> float:
        return float(np.percentile(self.samples, 95))

    @property
    def worst(self) -> float:
        return float(np.max(self.samples))

    @property
    def slowdown(self) -> float:
        """Mean faulty iteration time relative to the fault-free iteration."""
        return self.mean / self.clean_time if self.clean_time > 0 else float("inf")

    def render(self) -> str:
        return (
            f"{self.method:>14}  clean {self.clean_time * 1e3:8.1f} ms  "
            f"mean {self.mean * 1e3:8.1f} ms  p95 {self.p95 * 1e3:8.1f} ms  "
            f"worst {self.worst * 1e3:8.1f} ms  slowdown {self.slowdown:5.2f}x"
        )


def simulate_fault_trace(
    method: str,
    model: ModelSpec,
    fault_model: FaultModel,
    cluster: Optional[ClusterSpec] = None,
    system: Optional[SystemConfig] = None,
    sim: Optional[SimConfig] = None,
    batch_size: Optional[int] = None,
    rank: int = 4,
    topk_ratio: float = 0.001,
    iterations: int = 50,
    seed: int = 0,
) -> FaultTrace:
    """Replay one iteration ``iterations`` times under ``fault_model``.

    ACP-SGD alternates P/Q parities across iterations like real training.
    The clean baseline is the same parity sequence with no faults, so
    ``slowdown`` isolates the fault cost from parity asymmetry.
    """
    if iterations < 1:
        raise ValueError(f"need >= 1 iteration, got {iterations}")
    ctx = BuildContext.resolve(
        method, model, cluster, system, sim, batch_size, rank, topk_ratio
    )
    rng = np.random.default_rng(seed)
    graphs = [ctx.graph(parity_p) for parity_p in ctx.parities]
    samples: List[float] = []
    for idx in range(iterations):
        perturbed = fault_model.perturb_graph(
            graphs[idx % len(graphs)], ctx.cluster.world_size, rng
        )
        samples.append(breakdown_from_records(ctx.run(perturbed)).total)
    # The parities the run actually visited cover the clean baseline.
    clean_times = [
        breakdown_from_records(ctx.run(graph)).total
        for graph in graphs[:iterations]
    ]
    return FaultTrace(
        method=method,
        clean_time=float(np.mean(clean_times)),
        samples=tuple(samples),
    )


def compare_methods_under_faults(
    methods: Sequence[str],
    model: ModelSpec,
    fault_model: FaultModel,
    cluster: Optional[ClusterSpec] = None,
    system: Optional[SystemConfig] = None,
    sim: Optional[SimConfig] = None,
    batch_size: Optional[int] = None,
    rank: int = 4,
    topk_ratio: float = 0.001,
    iterations: int = 50,
    seed: int = 0,
) -> Dict[str, FaultTrace]:
    """Fault traces for several methods under identical fault draws.

    Each method gets its own generator seeded identically, so the rank-level
    fault pattern (who straggles when) is as comparable as the differing
    task-graph shapes allow.
    """
    return {
        method: simulate_fault_trace(
            method, model, fault_model, cluster, system, sim, batch_size,
            rank, topk_ratio, iterations, seed,
        )
        for method in methods
    }


def render_fault_comparison(traces: Dict[str, FaultTrace]) -> str:
    """Aligned text table of per-method fault traces."""
    return "\n".join(trace.render() for trace in traces.values())


# ----------------------------------------------------------------------
# Elastic churn timeline (world size changes mid-run)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnEvent:
    """The world size changes to ``world_size`` at ``iteration``."""

    iteration: int
    world_size: int

    def __post_init__(self) -> None:
        if self.iteration < 1:
            raise ValueError(
                f"churn iterations are 1-based, got {self.iteration}"
            )
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")


@dataclass(frozen=True)
class ElasticPhase:
    """A run of iterations at one world size within a churn timeline."""

    start_iteration: int
    iterations: int
    world_size: int
    iteration_time_s: float
    admission_cost_s: float  # one-time sync paid entering this phase

    @property
    def total_time_s(self) -> float:
        return self.admission_cost_s + self.iterations * self.iteration_time_s


@dataclass(frozen=True)
class ElasticTrace:
    """One method's iteration-time timeline under membership churn."""

    method: str
    phases: Tuple[ElasticPhase, ...]

    @property
    def total_time_s(self) -> float:
        return sum(phase.total_time_s for phase in self.phases)

    @property
    def admission_overhead_s(self) -> float:
        return sum(phase.admission_cost_s for phase in self.phases)

    def render(self) -> str:
        lines = [f"{self.method}: {self.total_time_s:.3f} s total "
                 f"({self.admission_overhead_s * 1e3:.1f} ms admissions)"]
        for phase in self.phases:
            admit = (f"  +{phase.admission_cost_s * 1e3:.1f} ms admission"
                     if phase.admission_cost_s else "")
            lines.append(
                f"  iter {phase.start_iteration:>4}..."
                f"{phase.start_iteration + phase.iterations - 1:<4} "
                f"p={phase.world_size:<3} "
                f"{phase.iteration_time_s * 1e3:8.1f} ms/iter{admit}"
            )
        return "\n".join(lines)


def admission_sync_cost(model: ModelSpec, cluster: ClusterSpec) -> float:
    """Simulated cost of one elastic admission's state synchronization.

    The joiner receives the full model plus the optimizer's momentum state
    (another full-model-sized buffer) from the donor survivor — two
    point-to-point model transfers over the bottleneck link, matching what
    the trainer broadcasts when a
    :class:`~repro.faults.resilient.ResilientProcessGroup` admits a rank.
    """
    from repro.comm.cost_model import point_to_point_time

    return point_to_point_time(2 * model.parameter_bytes, cluster.link)


def simulate_elastic_trace(
    method: str,
    model: ModelSpec,
    schedule: Sequence[ChurnEvent],
    iterations: int,
    cluster: Optional[ClusterSpec] = None,
    system: Optional[SystemConfig] = None,
    sim: Optional[SimConfig] = None,
    batch_size: Optional[int] = None,
    rank: int = 4,
    topk_ratio: float = 0.001,
) -> ElasticTrace:
    """Timeline of per-iteration times across a churn ``schedule``.

    The run starts at ``cluster.world_size``; each :class:`ChurnEvent`
    re-sizes the world from its iteration on. Phases at a larger world
    size than their predecessor pay :func:`admission_sync_cost` once per
    added rank. ACP-SGD's parity asymmetry is averaged out by costing both
    the P- and Q-step graphs per phase.
    """
    if iterations < 1:
        raise ValueError(f"need >= 1 iteration, got {iterations}")
    events = sorted(schedule, key=lambda event: event.iteration)
    for event in events:
        if event.iteration > iterations:
            raise ValueError(
                f"churn at iteration {event.iteration} is beyond the "
                f"{iterations}-iteration run"
            )
    ctx = BuildContext.resolve(
        method, model, cluster, system, sim, batch_size, rank, topk_ratio
    )
    boundaries = [1] + [event.iteration for event in events] + [iterations + 1]
    sizes = [ctx.cluster.world_size] + [event.world_size for event in events]
    phases: List[ElasticPhase] = []
    previous_size = None
    for start, end, size in zip(boundaries, boundaries[1:], sizes):
        if end <= start:
            previous_size = size
            continue  # zero-length phase: superseded at the same iteration
        sized = replace(ctx, cluster=replace(ctx.cluster, world_size=size))
        times = [
            breakdown_from_records(sized.run(sized.graph(parity_p))).total
            for parity_p in sized.parities
        ]
        added = max(0, size - previous_size) if previous_size is not None else 0
        phases.append(
            ElasticPhase(
                start_iteration=start,
                iterations=end - start,
                world_size=size,
                iteration_time_s=float(np.mean(times)),
                admission_cost_s=added * admission_sync_cost(model, sized.cluster),
            )
        )
        previous_size = size
    return ElasticTrace(method=method, phases=tuple(phases))
