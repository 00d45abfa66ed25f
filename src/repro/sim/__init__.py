"""Discrete-event cluster performance simulator.

Substitutes for the paper's 32-GPU testbed (see DESIGN.md §1). One worker's
iteration timeline is simulated over three resources:

- ``gpu_main`` — the default CUDA stream: FF/BP layer kernels and inline
  compression (ACP-SGD's backward-hook compression, post-BP compression of
  Sign-SGD / Top-k / original Power-SGD);
- ``gpu_side`` — a side stream used by Power-SGD*'s DDP communication hook,
  which runs bucket compression concurrently with back-propagation.
  ``gpu_main``/``gpu_side`` **contend**: when both are busy each progresses
  at :data:`~repro.sim.calibration.SimConfig.contention_rate` of full speed,
  reproducing the paper's observed one-GPU slowdown of Power-SGD with WFBP
  (§III-C);
- ``nic`` — collectives priced by the alpha-beta model of
  :mod:`repro.comm.cost_model`.

Strategies (:mod:`repro.sim.strategies`) build the per-method task graph
(S-SGD, Sign-SGD, Top-k, Power-SGD, Power-SGD*, ACP-SGD) under a
:class:`~repro.sim.strategies.SystemConfig` (WFBP on/off, tensor fusion
on/off, buffer size), and :mod:`repro.sim.results` reports the paper's
breakdown metric: FF&BP time, compression time, non-overlapped
communication time. Every entry point takes one path — resolved scenario
-> :class:`~repro.sched.TaskGraph` -> ``Engine.run`` -> breakdown.
"""

from repro.sim.calibration import (
    GPUSpec,
    SimConfig,
    RTX2080TI,
    fit_link_from_bucket_timings,
)
from repro.sim.engine import Engine, Task
from repro.fusion import partition_buckets, scaled_buffer_size
from repro.sim.results import IterationBreakdown
from repro.sim.strategies import (
    ClusterSpec,
    SystemConfig,
    build_iteration_graph,
    simulate_iteration,
    simulate_iteration_records,
    ALL_METHODS,
    EXTENSION_METHODS,
    METHODS,
)
from repro.sim.autotune import TuneResult, autotune_buffer_size
from repro.sim.gantt import render_gantt
from repro.sim.memory import (
    MemoryEstimate,
    RTX2080TI_MEMORY_BYTES,
    estimate_memory,
    memory_report,
)
from repro.sim.pipeline import SteadyStateResult, simulate_steady_state
from repro.sim.trace import to_chrome_trace, write_chrome_trace
from repro.sim.variance import (
    IterationDistribution,
    simulate_iteration_distribution,
)
from repro.sim.gossip import (
    GossipWindowSpec,
    recommend_window_steps,
    render_window_sweep,
    window_exchange_time,
    window_survival_probability,
    window_utility_rate,
)
from repro.sim.faults import (
    FaultModel,
    FaultTrace,
    compare_methods_under_faults,
    render_fault_comparison,
    simulate_fault_trace,
)

__all__ = [
    "GPUSpec",
    "SimConfig",
    "RTX2080TI",
    "fit_link_from_bucket_timings",
    "Engine",
    "Task",
    "partition_buckets",
    "scaled_buffer_size",
    "IterationBreakdown",
    "ClusterSpec",
    "SystemConfig",
    "build_iteration_graph",
    "simulate_iteration",
    "simulate_iteration_records",
    "METHODS",
    "ALL_METHODS",
    "EXTENSION_METHODS",
    "TuneResult",
    "autotune_buffer_size",
    "render_gantt",
    "MemoryEstimate",
    "RTX2080TI_MEMORY_BYTES",
    "estimate_memory",
    "memory_report",
    "SteadyStateResult",
    "simulate_steady_state",
    "to_chrome_trace",
    "write_chrome_trace",
    "IterationDistribution",
    "simulate_iteration_distribution",
    "GossipWindowSpec",
    "recommend_window_steps",
    "render_window_sweep",
    "window_exchange_time",
    "window_survival_probability",
    "window_utility_rate",
    "FaultModel",
    "FaultTrace",
    "compare_methods_under_faults",
    "render_fault_comparison",
    "simulate_fault_trace",
]
