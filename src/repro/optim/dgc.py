"""Deep Gradient Compression-style Top-k aggregation (extension).

DGC (Lin et al., ICLR 2018 — the paper's reference [19]) improves plain
Top-k + error feedback with *momentum correction*: each worker accumulates
a local momentum ``u`` and a velocity ``v``; the Top-k selection happens on
``v``, and both accumulators are cleared at the transmitted coordinates so
stale momentum does not double-count. Aggregation stays all-gather + sparse
sum like Top-k SGD.

With momentum correction, the *global* optimizer should not apply momentum
again — pair this aggregator with SGD(momentum=0). The accumulators stay
beside the arena: a rank's slab can be one error-feedback accumulator (as
for Top-k), not the two momentum correction chains (``u`` feeds ``v``).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.compression.topk import SparsePayload, sparse_aggregate, topk_select
from repro.compression.wire import select_count
from repro.optim.aggregators import (
    GradientAggregator,
    NamedGrads,
    _BucketSession,
    _unpack,
)


class _WorkerDGCState:
    """One worker's momentum/velocity accumulators."""

    def __init__(self, momentum: float):
        self.momentum = momentum
        self.u: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}

    def accumulate(self, name: str, grad: np.ndarray) -> np.ndarray:
        """Update u, v; returns the velocity to sparsify."""
        u_prev = self.u.get(name)
        # The first step copies: ``grad`` is an arena slab the next backward
        # pass overwrites, and the accumulators must outlive it.
        u = grad.copy() if u_prev is None else self.momentum * u_prev + grad
        v_prev = self.v.get(name)
        v = u if v_prev is None else v_prev + u
        self.u[name] = u
        self.v[name] = v
        return v

    def clear_transmitted(self, name: str, indices: np.ndarray) -> None:
        """Zero the accumulators at the coordinates that were sent."""
        self.u[name][indices] = 0.0
        self.v[name][indices] = 0.0

    def reset(self) -> None:
        """Drop the accumulators (rollback / contaminated-state recovery)."""
        self.u.clear()
        self.v.clear()


class DGCTopkAggregator(GradientAggregator):
    """Top-k with DGC momentum correction.

    Args:
        group: process group.
        ratio: keep-fraction per step.
        momentum: local momentum factor (DGC default 0.9).
    """

    method = "dgc"

    def __init__(
        self,
        group: ProcessGroup,
        ratio: float = 0.01,
        momentum: float = 0.9,
    ):
        super().__init__(group)
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.ratio = ratio
        self.momentum = momentum
        self._init_states()

    def _make_state(self, rank: int) -> _WorkerDGCState:
        return _WorkerDGCState(self.momentum)

    def _finish(self, session: _BucketSession) -> NamedGrads:
        payloads = []
        for rank, slab in zip(self.roster, session.slabs):
            state = self._per_rank[rank]
            velocity = state.accumulate("fused", slab)
            k = select_count(self.ratio, velocity.size)
            # Accumulated, the slab is dead: selection scratch, and slot
            # 0's the decode target (consumed, as in TopkSGDAggregator).
            idx = topk_select(velocity, k, slab)
            payloads.append(
                SparsePayload(idx, velocity[idx], velocity.size)
            )
            state.clear_transmitted("fused", idx)
        wires = [
            np.concatenate([p.indices.astype(np.float64), p.values])
            for p in payloads
        ]
        self.group.all_gather(wires)
        dense = sparse_aggregate(
            payloads, (payloads[0].num_elements,), average=True,
            out=session.slabs[0],
        )
        return _unpack(dense, session.template, session.names)
