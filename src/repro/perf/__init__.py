"""Hot-path performance subsystem: gradient arena + process workers.

Three pieces make the measured training hot path allocation-free and
worker-parallel (see ``docs/performance.md``):

- :class:`~repro.perf.arena.GradientArena` — preallocated per-worker fused
  gradient buffers; every ``Parameter.grad`` is a zero-copy view, so
  tensor fusion stops copying and the collectives can aggregate in place;
- :class:`~repro.perf.procpool.ProcessWorkerPool` — persistent per-rank
  child processes writing gradients into shared-memory arena slabs, with
  bit-identical trajectories;
- :data:`~repro.perf.counters.ALLOC_STATS` — fused-allocation counters
  backing the "zero per-step fused allocations" regression check.

The benchmark harness lives in :mod:`repro.perf.bench` (imported lazily by
the CLI; it depends on the aggregators, which in turn import the counters
from here).
"""

from repro.perf.arena import ArenaGrads, ArenaLayout, GradientArena
from repro.perf.counters import ALLOC_STATS, AllocStats
from repro.perf.replicas import iter_modules

__all__ = [
    "ALLOC_STATS",
    "AllocStats",
    "ArenaGrads",
    "ArenaLayout",
    "GradientArena",
    "ProcessWorkerPool",
    "WorkerStepTask",
    "iter_modules",
]


def __getattr__(name: str):
    # procpool imports the training stack (datasets, loss); loading it
    # lazily keeps `import repro.perf` light for arena-only users and
    # avoids a circular import through repro.train.
    if name in ("ProcessWorkerPool", "WorkerStepTask"):
        from repro.perf import procpool

        return getattr(procpool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
