"""The simulator's engine: the :mod:`repro.sched` event loop over one
worker's three streams.

The discrete-event loop lives in :class:`repro.sched.engine.EventLoop`
over arbitrary named resources and per-stream disciplines; this module
fixes the resources the iteration timelines use — ``Task``,
``TaskRecord``, ``Engine``, and the three canonical stream names — and
is the one ``run`` every :mod:`repro.sim` path goes through
(``scripts/golden_trace.py`` pins its records bit-for-bit).

Semantics: two GPU streams (``gpu_main`` and ``gpu_side``)
interfere — while both are busy with contending work, each progresses at
``contention_rate`` of full speed (the paper's compute resource
competition between back-propagation and Power-SGD*'s hook compression,
§III-C / Fig. 4(b)). The ``nic`` resource is independent. Streams are
strict FIFO unless given the ``"priority"`` discipline: a stream's head
task may wait on dependencies, and tasks behind it cannot overtake —
matching CUDA stream and NCCL queue semantics.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sched.engine import EventLoop
from repro.sched.graph import Task, TaskGraph, TaskRecord
from repro.sched.resources import ResourceModel

GPU_MAIN = "gpu_main"
GPU_SIDE = "gpu_side"
NIC = "nic"

__all__ = [
    "GPU_MAIN",
    "GPU_SIDE",
    "NIC",
    "Task",
    "TaskGraph",
    "TaskRecord",
    "Engine",
]


class Engine(EventLoop):
    """Run a task graph to completion and return per-task records.

    An :class:`~repro.sched.engine.EventLoop` with the two-GPU contention
    pair; both arguments are validated on construction.

    Args:
        contention_rate: GPU-stream mutual slowdown (see module docstring).
        disciplines: per-stream scheduling discipline — ``"fifo"`` (default:
            strict submission order with head-of-line blocking, CUDA/NCCL
            semantics) or ``"priority"`` (among dependency-ready tasks, the
            highest ``Task.priority`` runs first; a blocked head does not
            stall the stream — a priority communication scheduler).
    """

    def __init__(
        self,
        contention_rate: float = 0.40,
        disciplines: Optional[Dict[str, str]] = None,
    ):
        super().__init__(
            resources=ResourceModel.gpu_contention(contention_rate),
            disciplines=disciplines,
        )

    # An attribute of this class, not only inherited: perfbench wraps and
    # restores ``vars(Engine)["run"]`` to time every simulated run.
    run = EventLoop.run
