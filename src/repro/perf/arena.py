"""Zero-copy gradient arena: preallocated per-worker fused buffers.

The paper's tensor-fusion optimization exists in this repo twice: as a
simulator cost model and as this arena, the only gradient storage the
aggregators read. At trainer construction one contiguous slab, in the
model's parameter dtype (float32 unless the model was cast), is allocated
**per worker**, laid out in parameter order, and every
``Parameter.grad`` becomes a zero-copy view into it. From then on:

- back-propagation writes gradients straight into the fused buffer
  (:meth:`~repro.nn.parameter.Parameter.accumulate_grad` accumulates into
  the attached slot in place);
- the aggregators in :mod:`repro.optim.aggregators` read the slab itself —
  tensor fusion becomes a no-op instead of a full-model copy per worker
  per step (plain ``{name: array}`` dicts are written into the
  aggregator's arena by :meth:`GradientArena.load`, the only remaining
  packing copy);
- the all-reduce kernel
  (:func:`repro.comm.collectives.all_reduce_inplace`) aggregates the
  slabs where they live, reusing a preallocated scratch block instead of
  allocating per ring step;
- ``_unpack`` hands back read-only views into the reduced slab.

Ownership contract (see ``docs/performance.md``):

- A worker's slab is valid gradient data from the end of its backward pass
  until the aggregator consumes it. **In-place aggregation destroys the
  per-worker gradients** — after an S-SGD ``aggregate`` returns, every slab
  holds the reduced result, exactly like an NCCL in-place all-reduce.
- For an error-feedback method the slab *is* the rank's accumulator: its
  :attr:`GradientArena.carried` views start at ``-0.0``, backward adds the
  gradient onto the residual left there, the compressor leaves the new one.
  Callers add into them (:meth:`load`), never refill them; only
  :meth:`clear_residuals` starts them over, and :meth:`reorder` moves a
  rank's slab with it when the roster changes.
- A :attr:`GradientArena.factored` view (ACP-SGD with error feedback) may
  hold its gradient as factors instead: ``Linear``'s thin weight-gradient
  products are recorded in the slot's *pending* entry
  (:attr:`ArenaGrads.pending`, a :class:`~repro.nn.parameter.PendingProducts`
  per name) while they are small, and the view keeps the residual alone.
  The compressor consumes them (:meth:`ArenaGrads.pop_factors`); every
  other reader adds them first (:meth:`ArenaGrads.materialize`,
  ``Parameter.grad``, :meth:`load`) and sees the bits of a gradient that
  was added when it was produced. No factor outlives the step: the
  compressor, :meth:`clear_residuals` or, for a step that raised, the
  next step's :meth:`drop_factors` drops them.
- Views returned by the arena or by ``_unpack`` are invalidated by the
  next backward pass. Callers that need to retain a gradient across steps
  must copy it explicitly.
- Whether the sum runs on the slabs or on copies is the group's decision,
  not a flag the aggregators branch on: a group that must retransmit
  original payloads on failure
  (:class:`~repro.faults.resilient.ResilientProcessGroup` re-sends buffers
  after a CRC mismatch) reduces copies and writes the result back into
  every slab.

Buckets: the slab is optionally partitioned into contiguous buckets of at
most ``bucket_bytes`` (parameter order, like DDP's gradient buckets). Each
bucket is itself contiguous, so a bucketed collective schedule can reduce
bucket views without any re-packing.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.fusion import partition_buckets
from repro.nn.module import Module
from repro.nn.parameter import Parameter, PendingProducts
from repro.perf import shm
from repro.perf.counters import ALLOC_STATS


class ArenaLayout:
    """Element layout of one fused slab: parameter order, offsets, buckets.

    Attributes:
        dtype: element type of the slab (the parameters' dtype); buckets
            are cut at ``bucket_bytes`` of it.
        names: parameter names in model (definition) order.
        shapes: per-name tensor shapes.
        offsets: per-name start offset into the slab, in elements.
        total_elements: slab length.
        buckets: ``(start, end)`` element ranges partitioning the slab.
    """

    def __init__(
        self,
        named_shapes: Sequence[Tuple[str, Tuple[int, ...]]],
        dtype,
        bucket_bytes: Optional[int] = None,
    ):
        if not named_shapes:
            raise ValueError("arena layout requires at least one parameter")
        if bucket_bytes is not None and bucket_bytes < 0:
            raise ValueError(
                f"bucket_bytes must be >= 0, got {bucket_bytes}"
            )
        self.dtype = np.dtype(dtype)
        self.names: List[str] = []
        self.shapes: Dict[str, Tuple[int, ...]] = {}
        self.offsets: Dict[str, int] = {}
        offset = 0
        for name, shape in named_shapes:
            if name in self.shapes:
                raise ValueError(f"duplicate parameter name {name!r}")
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            self.names.append(name)
            self.shapes[name] = tuple(shape)
            self.offsets[name] = offset
            offset += size
        self.total_elements = offset
        self.buckets = self._build_buckets(bucket_bytes)

    def _build_buckets(self, bucket_bytes: Optional[int]) -> List[Tuple[int, int]]:
        """Element ranges of the slab's buckets.

        Delegates to the shared :func:`repro.fusion.partition_buckets`
        policy — the same greedy fill the simulator uses — so the real
        reducer and the simulated one can never drift. ``bucket_bytes=0``
        means no fusion (one tensor per bucket).
        """
        if bucket_bytes is None:
            self._bucket_ranges = [(0, len(self.names))]
            return [(0, self.total_elements)]
        sizes = [self.size_of(name) * self.dtype.itemsize for name in self.names]
        self._bucket_ranges = partition_buckets(sizes, bucket_bytes)
        spans: List[Tuple[int, int]] = []
        for first, last in self._bucket_ranges:
            lo = self.offsets[self.names[first]]
            tail = self.names[last - 1]
            spans.append((lo, self.offsets[tail] + self.size_of(tail)))
        return spans

    def bucket_names(self) -> List[List[str]]:
        """Parameter names of each bucket, in layout (= bucket) order."""
        return [
            self.names[first:last] for first, last in self._bucket_ranges
        ]

    def size_of(self, name: str) -> int:
        shape = self.shapes[name]
        return int(np.prod(shape, dtype=np.int64)) if shape else 1

    def carve(self, slab: np.ndarray) -> Dict[str, np.ndarray]:
        """Named parameter-shaped views over one fused buffer."""
        views: Dict[str, np.ndarray] = {}
        for name in self.names:
            lo = self.offsets[name]
            views[name] = slab[lo : lo + self.size_of(name)].reshape(
                self.shapes[name]
            )
        return views


class ArenaGrads(Dict[str, np.ndarray]):
    """Named gradient views backed by one fused slab.

    Behaves as a plain ``{name: ndarray}`` dict while also exposing the
    backing slab and its layout — what every aggregator actually reads.
    """

    def __init__(
        self,
        views: Dict[str, np.ndarray],
        slab: np.ndarray,
        layout: ArenaLayout,
        pending: Optional[Dict[str, PendingProducts]] = None,
    ):
        super().__init__(views)
        self.slab = slab
        self.layout = layout
        #: Per factored name, the products recorded for it and not yet added
        #: into its view: the arena's entry for this slot, not a copy.
        self.pending: Dict[str, PendingProducts] = (
            {} if pending is None else pending
        )

    def materialize(self, names: Optional[Iterable[str]] = None) -> None:
        """Add the pending products of ``names`` (default: all) onto their
        views — what every reader but the compressor sees."""
        for name in self.pending if names is None else names:
            if name in self.pending:
                self.pending[name].add_onto(self[name])

    def pop_factors(self, name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The pending gradient of ``name`` as one pair of factors, or
        ``None`` (:meth:`PendingProducts.pop`); forgets it."""
        products = self.pending.get(name)
        return None if products is None else products.pop()

    def arrays(self) -> Iterator[np.ndarray]:
        """Every array holding part of the gradients: views, pending factors."""
        yield from self.values()
        for products in self.pending.values():
            yield from products.arrays()


class GradientArena:
    """Per-worker fused gradient buffers with zero-copy parameter views.

    Args:
        model: the model whose parameters define the layout (names, shapes,
            order) and the slabs' dtype — or ``(name, array)`` pairs whose
            arrays do (one floating dtype). Process workers' copies
            (:func:`~repro.perf.replicas.detached_copy`) share the same
            layout.
        world_size: number of worker slabs to allocate.
        bucket_bytes: optional bucket cap (parameter-order contiguous
            buckets, DDP-style). ``None`` fuses the whole model into one
            bucket.
        backing: ``"private"`` (default) allocates ordinary per-process
            numpy slabs; ``"shared"`` backs every slab with its own
            ``multiprocessing.shared_memory`` segment so worker processes
            can write gradients in place (see
            :class:`~repro.perf.procpool.ProcessWorkerPool`). Shared
            arenas own real OS resources: call :meth:`close` when done —
            the test suite fails any test that leaks a segment.
    """

    def __init__(
        self,
        model: Union[Module, Sequence[Tuple[str, np.ndarray]]],
        world_size: int,
        bucket_bytes: Optional[int] = None,
        backing: str = "private",
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if backing not in ("private", "shared"):
            raise ValueError(
                f"backing must be 'private' or 'shared', got {backing!r}"
            )
        if isinstance(model, Module):
            named = [(name, p.data) for name, p in model.named_parameters()]
        else:
            named = [(name, np.asarray(array)) for name, array in model]
        dtypes = {array.dtype for _, array in named}
        if len(dtypes) > 1 or any(dtype.kind != "f" for dtype in dtypes):
            raise ValueError(
                f"arena arrays must share one floating dtype, got "
                f"{sorted(map(str, dtypes))}"
            )
        self.layout = ArenaLayout(
            [(name, array.shape) for name, array in named],
            dtypes.pop() if dtypes else np.float32,
            bucket_bytes=bucket_bytes,
        )
        self.backing = backing
        self.world_size = world_size
        #: Names whose views are error-feedback accumulators (see :meth:`carry`).
        self.carried: FrozenSet[str] = frozenset()
        #: Carried names whose thin products are kept as factors.
        self.factored: FrozenSet[str] = frozenset()
        self._closed = False
        # One contiguous slab per worker; slabs are distinct allocations
        # (or distinct shared segments) so the ring collective's per-rank
        # buffers never alias each other. Per-slab segments — rather than
        # one giant segment — let ``ensure_slots`` grow the arena without
        # invalidating mappings worker processes already hold.
        self._segments: List[Optional[object]] = []
        self._slabs: List[np.ndarray] = [
            self._alloc_slab() for _ in range(world_size)
        ]
        self._views: List[Dict[str, np.ndarray]] = [
            self.layout.carve(slab) for slab in self._slabs
        ]
        self._products: List[Dict[str, PendingProducts]] = [
            {} for _ in self._slabs
        ]

    def _alloc_slab(self) -> np.ndarray:
        if self.backing == "shared":
            nbytes = max(1, self.layout.total_elements) * self.layout.dtype.itemsize
            segment = shm.create_segment(nbytes)
            slab = np.ndarray(
                (self.layout.total_elements,), dtype=self.layout.dtype,
                buffer=segment.buf,
            )
            slab[:] = 0.0
            self._segments.append(segment)
            return slab
        self._segments.append(None)
        return np.zeros(self.layout.total_elements, dtype=self.layout.dtype)

    def ensure_slots(self, count: int) -> None:
        """Grow the arena to at least ``count`` worker slabs.

        Elastic scale-up admits ranks past the initial world size; the new
        slabs are allocated once at the admission boundary (never on the
        hot path) and zeroed like the originals, carried views empty.
        Shrinking never frees slabs — an ejected slot's slab is simply left
        idle so a later rejoin reuses it without reallocating.
        """
        first = len(self._slabs)
        while len(self._slabs) < count:
            slab = self._alloc_slab()
            self._slabs.append(slab)
            self._views.append(self.layout.carve(slab))
            self._products.append(self._new_products())
        self.clear_residuals(range(first, len(self._slabs)))
        self.world_size = max(self.world_size, count)

    # ------------------------------------------------------------------
    # Error-feedback residuals
    # ------------------------------------------------------------------
    def carry(self, names: Iterable[str], factored: bool = False) -> None:
        """Make ``names``' views error-feedback accumulators, all empty;
        ``factored``: every one of them takes a thin product as its factors."""
        self.carried = frozenset(names)
        self.factored = self.carried if factored else frozenset()
        self._products = [self._new_products() for _ in self._slabs]
        self.clear_residuals()

    def _new_products(self) -> Dict[str, PendingProducts]:
        return {
            name: PendingProducts(self.layout.shapes[name])
            for name in self.factored
        }

    def clear_residuals(self, slots: Optional[Iterable[int]] = None) -> None:
        """Empty the carried views of ``slots`` (default: every slab) and
        drop their pending products.

        Empty is ``-0.0``, the additive identity for every float: ``-0.0 +
        g`` is ``g`` bit for bit (``+0.0 + -0.0`` would flip a sign), so the
        first backward after a clear leaves exactly the gradient.
        """
        slots = range(len(self._slabs)) if slots is None else list(slots)
        for slot in slots:
            views = self._views[slot]
            for name in self.carried:
                views[name].fill(-0.0)
        self.drop_factors(slots)

    def drop_factors(self, slots: Optional[Iterable[int]] = None) -> None:
        """Forget the pending products of ``slots`` (default: every slab)
        without adding them: the gradient they were part of is abandoned."""
        for slot in range(len(self._slabs)) if slots is None else slots:
            for products in self._products[slot].values():
                products.clear()

    def reorder(self, sources: Sequence[Optional[int]]) -> None:
        """Give slot ``i`` the slab slot ``sources[i]`` held.

        A surviving rank's slab follows it to its new slot — a permutation,
        no data copied (process workers attach by the segment name each task
        carries). ``None``, a rank that (re)joins, gets an idle slab with its
        carried views cleared; slabs no slot takes stay idle at the end.
        """
        self.ensure_slots(len(sources))
        taken = {source for source in sources if source is not None}
        idle = [slot for slot in range(len(self._slabs)) if slot not in taken]
        order = [idle.pop(0) if s is None else s for s in sources] + idle
        self._slabs = [self._slabs[i] for i in order]
        self._views = [self._views[i] for i in order]
        self._segments = [self._segments[i] for i in order]
        self._products = [self._products[i] for i in order]
        self.clear_residuals(i for i, s in enumerate(sources) if s is None)

    def load(self, slot: int, grads: Dict[str, np.ndarray]) -> ArenaGrads:
        """Write named gradients into slab ``slot`` as a backward pass would:
        added onto carried views (pending products first), copied over the
        others. The one packing copy left in the repo (counted in
        ``ALLOC_STATS.pack_copies``)."""
        self.grads(slot).materialize()
        for name, view in self._views[slot].items():
            grad = np.reshape(grads[name], view.shape)
            if name in self.carried:
                view += grad
            else:
                np.copyto(view, grad)
        ALLOC_STATS.pack_copies += 1
        return self.grads(slot)

    # ------------------------------------------------------------------
    # Shared-memory lifecycle
    # ------------------------------------------------------------------
    @property
    def is_shared(self) -> bool:
        """Whether the slabs live in cross-process shared memory."""
        return self.backing == "shared"

    def segment_name(self, slot: int) -> str:
        """OS name of slot ``slot``'s shared segment (shared backing only).

        Worker processes attach by this name; it travels in the per-step
        task message, so slabs created by elastic growth are discovered
        lazily without any re-initialization round.
        """
        segment = self._segments[slot]
        if segment is None:
            raise ValueError(
                "segment_name requires backing='shared' (private slabs "
                "have no cross-process identity)"
            )
        return segment.name

    def close(self) -> None:
        """Release the shared segments (idempotent; no-op when private).

        Drops this arena's own slab views first so the owner-side mappings
        close cleanly, then unlinks every segment. Views handed out
        earlier (``grads``/``slab``) keep their mapping alive
        until they die with the process — the unlink only removes the
        name, exactly like unlinking an open POSIX file.
        """
        if self._closed:
            return
        self._closed = True
        if self.backing != "shared":
            return
        self._slabs = []
        self._views = []
        self._products = []
        for segment in self._segments:
            if segment is not None:
                shm.release_segment(segment, unlink=True)
        self._segments = []

    # ------------------------------------------------------------------
    # Worker-facing API
    # ------------------------------------------------------------------
    def slab(self, slot: int) -> np.ndarray:
        """Worker ``slot``'s whole fused buffer (1-D, writable)."""
        return self._slabs[slot]

    def grads(self, slot: int) -> ArenaGrads:
        """Worker ``slot``'s named gradients as zero-copy slab views (with
        the slot's pending products)."""
        return ArenaGrads(
            self._views[slot], self._slabs[slot], self.layout, self._products[slot]
        )

    def bind(self, model: Module, slot: int) -> None:
        """Point every ``Parameter.grad`` of ``model`` into slab ``slot``.

        After binding, ``zero_grad``/backward on the model reads and writes
        the arena storage directly — adding onto the residual in carried
        views, recording thin products in factored ones' pending entries.
        The model must match the arena layout (same names, shapes, order).
        """
        views, pending = self._views[slot], self._products[slot]
        for name, param in model.named_parameters():
            view = views.get(name)
            if view is None or view.shape != param.shape:
                raise ValueError(
                    f"model does not match arena layout at parameter {name!r}"
                )
            param.attach_grad_slot(
                view, carry=name in self.carried, pending=pending.get(name)
            )

    def unbind(self, model: Module) -> None:
        """Detach every parameter from the arena (back to legacy grads)."""
        for _, param in model.named_parameters():
            param.detach_grad_slot()

    @property
    def nbytes(self) -> int:
        """Total arena footprint in bytes."""
        return sum(slab.nbytes for slab in self._slabs)

    def owns(self, buffers: Iterable[np.ndarray]) -> bool:
        """True when every buffer is one of this arena's slabs (by identity)."""
        slabs = {id(slab) for slab in self._slabs}
        return all(id(buf) in slabs for buf in buffers)
