"""Bucketed gradient reducer: WFBP + tensor fusion on the real hot path.

The paper's wait-free back-propagation (§II-B) overlaps each layer's
gradient communication with the back-propagation of the layers below it,
and its tensor fusion (§IV-B, Fig. 8) merges small tensors into buckets of
a tunable byte budget to amortize collective latency. This module brings
both to the actual training loop — every step of every method runs
through this module; ``buffer_bytes=None`` is its one-bucket layout:

- the :class:`~repro.perf.arena.GradientArena` partitions its fused slab
  into contiguous buckets via the shared :func:`repro.fusion
  .partition_buckets` policy (the same one the simulator prices);
- :class:`BucketedReducer` listens on every parameter's gradient-ready
  hook (:meth:`repro.nn.parameter.Parameter.register_hook`) and fires each
  bucket's reduction **during the final worker's backward pass**, as soon
  as every gradient in the bucket is complete — reverse layout order, the
  order back-propagation produces them;
- per-bucket reduction drives the aggregator's staged protocol
  (``begin_buckets`` / ``reduce_bucket`` / ``finish_buckets``) — the same
  three calls ``aggregate`` loops over, so the result is bit-identical
  for every bucket partition, the monolithic one-bucket layout included;
- :meth:`BucketedReducer.begin_step` → workers →
  :meth:`BucketedReducer.finish_step` is the trainer's only way to
  aggregate. An eager step opens the aggregator's session before the
  workers run; a deferred one (process workers, resilience, supervision)
  opens it in ``finish_step``, after the trainer's finite checks and on
  whichever aggregator its fallback window selected.

Eager (hook-driven) firing needs to know when a bucket's gradients are
*final*: a parameter may be touched several times per backward (shared
weights). The reducer learns the per-parameter hook count by observing
worker 0's pass each step, then counts the final worker's hook firings
against it. When the counts cannot be known yet — the very first step at
world size 1 has no earlier worker or step to observe — the step runs in
deferred mode: the same per-bucket protocol, fired after backward
completes. Both modes are bit-identical to each other and to the
one-bucket layout.

Methods whose compression is *vector-global* (top-k selection, DGC's
included, sign-SGD's L1 scale, the whole-vector Random-k / QSGD / TernGrad
codecs) still stage per bucket but cannot ship until every bucket is
staged — the paper's observation that such compressors forfeit most of
WFBP's overlap.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter, RemovableHandle
from repro.optim.aggregators import GradientAggregator
from repro.perf.arena import ArenaGrads, GradientArena

#: One fired bucket: (bucket index, element count, seconds spent in
#: ``reduce_bucket``). Wall-clock includes compression and the collective.
BucketTiming = Tuple[int, int, float]


class BucketedReducer:
    """Drives per-bucket aggregation from gradient-ready hooks.

    Args:
        model: the trainer's model; hooks are registered on its parameters.
        arena: the bucketed gradient arena backing the model's gradients;
            the main aggregator keeps its error-feedback residuals in it
            (:meth:`~repro.optim.aggregators.GradientAggregator.attach`).
        aggregator: the main aggregator (``finish_step`` may be handed
            another one for a deferred step).
    """

    def __init__(
        self,
        model: Module,
        arena: GradientArena,
        aggregator: GradientAggregator,
    ):
        self.arena = arena
        self.aggregator = aggregator
        # The slabs are the aggregator's error-feedback accumulators.
        aggregator.attach(arena)
        self.layout = arena.layout
        self._bucket_of: Dict[str, int] = {}
        for index, names in enumerate(self.layout.bucket_names()):
            for name in names:
                self._bucket_of[name] = index
        self._handles: List[RemovableHandle] = [
            param.register_hook(self._on_grad_ready)
            for _, param in model.named_parameters()
        ]
        #: Per-parameter accumulate_grad count for one full worker pass,
        #: learned by observing worker 0 (or, at world size 1, the previous
        #: step). Empty until one pass has been observed.
        self._expected: Dict[str, int] = {}
        # --- per-step state ---
        self._active = False
        self._eager = False
        self._slot: Optional[int] = None
        self._final_slot = 0
        self._learn: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}
        self._remaining: List[set] = []
        self._fired: List[bool] = []
        self._sealed: set = set()
        self._per_worker: List[ArenaGrads] = []
        #: The aggregator whose session this step opened (None: not yet).
        self._open: Optional[GradientAggregator] = None
        #: Timings of the buckets fired in the most recent step.
        self.last_timings: List[BucketTiming] = []
        #: Steps that actually fired buckets from hooks (WFBP engaged).
        self.eager_steps = 0
        #: Steps that fell back to firing every bucket after backward.
        self.deferred_steps = 0

    @property
    def num_buckets(self) -> int:
        return len(self.layout.buckets)

    def close(self) -> None:
        """Detach all gradient-ready hooks (idempotent)."""
        for handle in self._handles:
            handle.remove()
        self._handles = []

    # ------------------------------------------------------------------
    # Trainer-driven step protocol
    # ------------------------------------------------------------------
    def begin_step(self, num_slots: int, eager: bool = True) -> None:
        """Open the step over ``num_slots`` live workers.

        ``eager`` requests hook-driven firing; the reducer downgrades to
        deferred mode on its own when the per-parameter hook counts are not
        yet known (first step at world size 1). A step that is never
        finished (the trainer skipped it) is simply superseded by the next
        one.
        """
        self._per_worker = [
            self.arena.grads(slot) for slot in range(num_slots)
        ]
        self._final_slot = num_slots - 1
        self._slot = None
        self._learn = {}
        self._counts = {}
        self._sealed = set()
        self._fired = [False] * self.num_buckets
        self._remaining = []
        self.last_timings = []
        # At world size >= 2 worker 0's pass this step supplies the counts
        # before the final worker runs; at world size 1 only a previous
        # step can.
        self._eager = eager and (
            self._final_slot > 0 or self._counts_known()
        )
        self._active = True
        self._open = None
        if self._eager:
            # Buckets fire during backward, so the session must exist first.
            self._open_session(self.aggregator)
            if self._final_slot == 0:
                self._arm_firing()

    def begin_worker(self, slot: int) -> None:
        """Mark worker ``slot``'s backward pass as the one now running."""
        self._slot = slot
        if slot == self._final_slot and self._final_slot > 0 and self._eager:
            self._adopt_learned()
            if self._counts_known():
                self._arm_firing()
            else:
                self._eager = False

    def finish_step(
        self, aggregator: Optional[GradientAggregator] = None
    ) -> Mapping[str, np.ndarray]:
        """Fire any remaining buckets and return the aggregated gradients.

        ``aggregator`` (default: the reducer's own) is the one a deferred
        step runs on — the resilient trainer's fallback window swaps in an
        uncompressed one. A step whose session is already open (it began
        eager) cannot change aggregators any more.
        """
        if aggregator is None:
            aggregator = self.aggregator
        if self._open is None:
            self._open_session(aggregator)
        elif aggregator is not self._open:
            raise RuntimeError(
                "finish_step was handed a different aggregator than the one "
                "this step's buckets already fired on (eager steps open "
                "their session in begin_step)"
            )
        if self._eager:
            self.eager_steps += 1
        else:
            self.deferred_steps += 1
        for index in range(self.num_buckets - 1, -1, -1):
            if not self._fired[index]:
                self._fire(index)
        self._active = False
        self._slot = None
        self._adopt_learned()  # world size 1: this pass seeds the next step
        self._per_worker = []
        self._open = None
        return aggregator.finish_buckets()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _open_session(self, aggregator: GradientAggregator) -> None:
        aggregator.begin_buckets(self._per_worker)
        self._open = aggregator

    def _counts_known(self) -> bool:
        counts = self._expected
        return bool(counts) and all(
            name in counts for name in self.layout.names
        )

    def _adopt_learned(self) -> None:
        if self._learn:
            self._expected = dict(self._learn)
            self._learn = {}

    def _arm_firing(self) -> None:
        self._remaining = [
            {
                name
                for name in names
                if self._expected.get(name, 0) > 0
            }
            for names in self.layout.bucket_names()
        ]

    def _on_grad_ready(self, param: Parameter) -> None:
        if not self._active:
            return
        name = param.name
        if self._slot == 0:
            # Observe worker 0's pass (at world size 1 it is also the
            # firing pass, calibrated by the previous step's observation).
            self._learn[name] = self._learn.get(name, 0) + 1
            if self._final_slot > 0:
                return
        if not self._eager or self._slot != self._final_slot:
            return
        if name in self._sealed:
            raise RuntimeError(
                f"gradient for {name!r} accumulated after its bucket was "
                "reduced; the backward pass touched the parameter more "
                "often than the observed pass the reducer calibrated on"
            )
        count = self._counts.get(name, 0) + 1
        self._counts[name] = count
        if count != self._expected.get(name, 0):
            return
        bucket = self._bucket_of[name]
        remaining = self._remaining[bucket]
        remaining.discard(name)
        if not remaining and not self._fired[bucket]:
            self._fire(bucket)

    def _fire(self, index: int) -> None:
        """Reduce one bucket now."""
        lo, hi = self.layout.buckets[index]
        if self._eager:
            for name in self.layout.bucket_names()[index]:
                self._sealed.add(name)
        start = time.perf_counter()
        self._open.reduce_bucket(index)
        self.last_timings.append((index, hi - lo, time.perf_counter() - start))
        self._fired[index] = True
