"""What a worker backend shares: the model copy, the pass, the screen.

The sequential backend evaluates ONE physical model once per worker
shard; process workers (:mod:`repro.perf.procpool`) evaluate a copy per
child. Both run the same :func:`recorded_pass`, the pool ships children a
:func:`detached_copy`, and :func:`require_deterministic_forward` rejects
the models a copy cannot reproduce: a sequential model draws one Dropout
mask stream across workers, which per-worker generators cannot replay.
"""

from __future__ import annotations

import copy
from typing import Iterator, List, Tuple

import numpy as np

from repro.nn.container import Sequential
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


def batch_norms(model: Module) -> List[BatchNorm2d]:
    """The model's BatchNorm layers in :func:`iter_modules` order."""
    return [sub for sub in iter_modules(model) if isinstance(sub, BatchNorm2d)]


def require_deterministic_forward(model: Module) -> None:
    """Reject models whose training-mode forward draws random numbers."""
    for sub in iter_modules(model):
        if isinstance(sub, Dropout) and sub.p > 0.0:
            raise ValueError(
                "parallel worker backprop requires a deterministic "
                "forward pass; the model contains Dropout(p > 0), whose "
                "sequential mask stream per-worker replicas cannot "
                "reproduce — train it with workers='seq'"
            )


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
    The process-worker template is taken this way.
    """
    saved = []
    for _, param in model.named_parameters():
        saved.append(
            (param, list(param._hooks), param._grad_slot,
             param._grad, param._slot_written, param._carry, param._products)
        )
        param._hooks.clear()
        param.detach_grad_slot()
        param._grad = None
    try:
        return copy.deepcopy(model)
    finally:
        for param, hooks, slot, grad, written, carry, pending in saved:
            param._hooks.extend(hooks)
            param._grad_slot = slot
            param._grad = grad
            param._slot_written = written
            param._carry = carry
            param._products = pending


def worker_pass(model: Module, loss_fn, shard, rng, batch_size: int) -> float:
    """One worker's forward and backward pass for one step; returns its loss.

    The single definition of what a rank computes per step, whichever
    backend runs it: one batch drawn from ``shard`` with the rank's
    ``rng`` and cast to the model's dtype, gradients written into
    whatever storage the model's parameters are bound to. Binding the slab
    stays with the caller.
    """
    model.zero_grad()
    # Nothing reads the gradient w.r.t. the batch.
    skip = {"need_input_grad": False} if isinstance(model, Sequential) else {}
    inputs, labels = shard.batch(rng, batch_size)
    loss = loss_fn(model(model.as_input(inputs)), labels)
    model.backward(loss_fn.backward(), **skip)
    for name, param in model.named_parameters():
        if not param.has_grad:
            raise RuntimeError(f"parameter {name!r} received no gradient")
    return float(loss)


def recorded_pass(
    model: Module, bns: List[BatchNorm2d], loss_fn, shard, rng, batch_size: int
) -> Tuple[float, List[List[Tuple[np.ndarray, np.ndarray]]]]:
    """:func:`worker_pass` with ``bns``' batch statistics recorded, not
    applied: the loss and, per layer, the ``(mean, var)`` of each batch,
    for the caller to replay onto the master model in slot order."""
    for bn in bns:
        bn.stat_recorder = []
    try:
        loss = worker_pass(model, loss_fn, shard, rng, batch_size)
        return loss, [bn.stat_recorder for bn in bns]
    finally:
        for bn in bns:
            bn.stat_recorder = None
