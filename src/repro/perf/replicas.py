"""Per-worker model replicas for parallel backprop with shared weights.

The trainer's sequential mode evaluates ONE physical model once per worker
shard. That is numerically exact but strictly serial: worker ``r + 1``'s
forward cannot start until worker ``r``'s backward finished. A
:class:`ReplicaSet` trades a little memory for overlap:

- every worker gets a structural deep copy of the model that **shares the
  master's weight storage** (each replica ``Parameter.data`` is rebound to
  the master's array object — zero copies, always in sync);
- each replica owns its private activation caches and, with an arena, its
  own fused gradient slab, so per-worker forward/backward passes are
  mutually independent and can run on a thread pool (numpy's BLAS kernels
  release the GIL);
- BatchNorm running statistics — the one piece of *training-mutated*
  forward state — are recorded per replica as per-batch statistics and
  replayed onto the master in rank order after the round, which reproduces
  the sequential update sequence bit-exactly (the recurrence
  ``r <- (1-m) r + m s`` consumes batch stats that do not depend on ``r``).

Aggregation order is untouched — the per-worker gradients enter the
aggregator in the same rank order as the sequential path — so parallel and
sequential training produce **bit-identical trajectories** (asserted in
``tests/test_parallel_trainer.py`` for every aggregator).

Models with stochastic training-mode layers (Dropout with ``p > 0``) are
rejected: a single sequential model draws one mask stream across workers,
which per-replica generators cannot reproduce.
"""

from __future__ import annotations

import copy
from typing import Iterator, List

import numpy as np

from repro.nn.dropout import Dropout
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d


def iter_modules(module: Module) -> Iterator[Module]:
    """Depth-first module walk in deterministic (definition) order.

    The same attribute-reflection order as ``Module.named_parameters``, so
    two structurally identical models yield pairable sequences.
    """
    yield module
    for value in vars(module).values():
        if isinstance(value, Module):
            yield from iter_modules(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Module):
                    yield from iter_modules(item)


def detached_copy(model: Module) -> Module:
    """A structural deep copy without the master's hooks and grad slots.

    The master's parameters may carry gradient-ready hooks (the bucketed
    reducer's bound methods — which reach the aggregator, the process
    group, and possibly shared-memory segments) and arena grad slots.
    Deep-copying those would at best duplicate half the trainer and at
    worst hit an unpicklable ``memoryview``, so they are detached from
    the *original* for the duration of the copy and restored afterwards.
    Hook lists are mutated in place (never reassigned) because issued
    :class:`~repro.nn.parameter.RemovableHandle` objects alias them.
    The one way a worker backend copies a model: thread replicas and
    process-worker templates alike.
    """
    saved = []
    for _, param in model.named_parameters():
        saved.append(
            (param, list(param._hooks), param._grad_slot,
             param._grad, param._slot_written)
        )
        param._hooks.clear()
        param._grad_slot = None
        param._grad = None
        param._slot_written = False
    try:
        return copy.deepcopy(model)
    finally:
        for param, hooks, slot, grad, written in saved:
            param._hooks.extend(hooks)
            param._grad_slot = slot
            param._grad = grad
            param._slot_written = written


def worker_pass(
    model: Module, loss_fn, shard, rng, batch_size: int, accumulation_steps: int
) -> float:
    """One worker's backward passes for one step; returns its mean loss.

    The single definition of what a rank computes per step, whichever
    backend runs it: ``accumulation_steps`` micro-batches drawn from
    ``shard`` with the rank's ``rng``, gradients summed into whatever
    storage the model's parameters are bound to. Binding the slab and
    dividing the sum into a micro-batch mean stay with the caller.
    """
    model.zero_grad()
    losses = []
    for _ in range(accumulation_steps):
        inputs, labels = shard.batch(rng, batch_size)
        logits = model(inputs)
        losses.append(loss_fn(logits, labels))
        model.backward(loss_fn.backward())
    for name, param in model.named_parameters():
        if param.grad is None:
            raise RuntimeError(f"parameter {name!r} received no gradient")
    return float(np.mean(losses))


class ReplicaSet:
    """``count`` models sharing one weight storage; replica 0 is the master.

    Args:
        model: the master model (stays the single source of truth for
            weights, running statistics, and checkpoints).
        count: number of workers; ``count - 1`` replicas are created.
    """

    def __init__(self, model: Module, count: int):
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        for sub in iter_modules(model):
            if isinstance(sub, Dropout) and sub.p > 0.0:
                raise ValueError(
                    "parallel worker backprop requires a deterministic "
                    "forward pass; the model contains Dropout(p > 0), whose "
                    "sequential mask stream per-worker replicas cannot "
                    "reproduce — train it with workers='seq'"
                )
        self.master = model
        self.replicas: List[Module] = [model]
        for _ in range(1, count):
            self.replicas.append(detached_copy(model))
        self._share_weights()
        self._bns: List[List[BatchNorm2d]] = [
            [m for m in iter_modules(replica) if isinstance(m, BatchNorm2d)]
            for replica in self.replicas
        ]

    def _share_weights(self) -> None:
        master_params = [param for _, param in self.master.named_parameters()]
        for replica in self.replicas[1:]:
            replica_params = [param for _, param in replica.named_parameters()]
            if len(replica_params) != len(master_params):
                raise RuntimeError("replica parameter count diverged from master")
            for master_param, replica_param in zip(master_params, replica_params):
                replica_param.data = master_param.data

    # ------------------------------------------------------------------
    # Round protocol: begin -> (threads run replicas) -> end
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Re-share weights and arm BatchNorm stat recording.

        Weights are re-bound every round because the optimizer (and
        checkpoint restore) *reassign* ``Parameter.data`` rather than
        mutate it; rebinding is a per-parameter reference assignment, not
        a copy. Recorders are fresh lists, one per BatchNorm per replica.
        """
        self._share_weights()
        for bns in self._bns:
            for bn in bns:
                bn.stat_recorder = []

    def end_round(self, live_count: int) -> None:
        """Replay recorded BatchNorm statistics onto the master in rank order.

        For each BatchNorm layer, the master's running buffers receive the
        per-batch statistics of replica 0, then replica 1, … — the exact
        update sequence the sequential path would have produced. Recording
        is then disarmed so out-of-round forwards update directly again.
        """
        master_bns = self._bns[0]
        for layer_idx, master_bn in enumerate(master_bns):
            for replica_idx in range(live_count):
                recorder = self._bns[replica_idx][layer_idx].stat_recorder
                if recorder:
                    for mean, var in recorder:
                        master_bn.apply_batch_stats(mean, var)
        for bns in self._bns:
            for bn in bns:
                bn.stat_recorder = None
