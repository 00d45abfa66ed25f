"""Distributed gradient aggregation — one strategy per training method.

An aggregator consumes each worker's local gradients for one step and
returns the aggregated gradient every worker applies. All communication
goes through a :class:`~repro.comm.process_group.ProcessGroup`, so the
traffic each method generates is *measured*, not assumed — the Table II
tests compare these measurements to the analytical complexities.

Aggregation semantics are gradient *averaging* across workers (the S-SGD
convention the paper's convergence experiments use).

Every method is *staged*: the three public calls ``begin_buckets`` /
``reduce_bucket`` / ``finish_buckets`` and the one call of the group live
in :class:`GradientAggregator`, which issues each tensor group's
collective at the cadence :data:`repro.compression.wire.WIRE_GROUPS`
declares. A method supplies an encoder (the rows its ranks send), a
decoder (what it keeps of the rows the collective delivered, averaged
over the slots it delivered) and its per-rank state, so every method runs
under any bucket partition of the arena.

Error feedback lives in the slabs (every tensor of Top-k, Sign-SGD and
Random-k, the compressible ones of Power-SGD / ACP-SGD): backward adds the
gradient onto each rank's residual there, and the method compresses in
place and leaves the new residual. DGC is Top-k with momentum correction:
its slab carries the local momentum instead. ACP-SGD alone takes a
``Linear`` weight gradient as its factors (``takes_factors``); every other
aggregator adds pending factors onto the slab first.

Those five methods return the reduced payload as a
:class:`~repro.optim.decoded.DecodedAggregate` — the selections, the vote, the low-rank
factors — and decode nothing themselves: ``SGD.step`` decodes each block
of rows into a block of scratch just before it applies it, so no
aggregate the size of the model is ever formed. The others (S-SGD, QSGD,
TernGrad) return plain ``{name: array}`` views.

Every array a method keeps or ships is in the arena's dtype — the model's
parameter dtype — so a float32 model's residuals, scratch, factors and
wire are float32 (the paper's FP32), and a float64 model runs the same
code in float64.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from functools import partial
from math import prod
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.perf.arena import ArenaGrads, ArenaLayout, GradientArena
from repro.perf.counters import ALLOC_STATS
from repro.compression.lowrank import LowRankState
from repro.compression.lowrank_kernels import product_blocks
from repro.compression.qsgd import QSGDCompressor
from repro.compression.randomk import RandomKCompressor
from repro.compression.reshaping import grad_to_matrix
from repro.compression.terngrad import TernGradCompressor
from repro.compression.topk import (
    SELECT_BLOCK,
    SparsePayload,
    TopkCompressor,
    sparse_aggregate,
    sparse_wire,
)
from repro.compression.wire import (
    ALL_REDUCE,
    AS_LANDED,
    PER_BUCKET,
    PER_STEP,
    WIRE_GROUPS,
    low_rank_split,
)
from repro.optim.decoded import DecodedAggregate

NamedGrads = Dict[str, np.ndarray]

# Elements Sign-SGD votes on at a time: a block's unpacked bits, their
# count and one float scratch stay cache-resident.
_VOTE_BLOCK = 1 << 16
# numpy's pairwise summation sums at most this many elements per leaf here.
_SUM_LEAF = 1 << 16


def _abs_sum(flat: np.ndarray) -> float:
    """``np.abs(flat).sum()`` to the bit, with no ``|flat|`` the size of ``flat``.

    numpy sums a contiguous vector pairwise, splitting ``n`` elements at
    ``n // 2`` rounded down to a multiple of 8; following the same splits
    down to leaves of at most 65 536 elements and letting numpy sum each
    leaf adds the same numbers in the same order.
    """
    size = flat.size
    if size <= _SUM_LEAF:
        return np.add.reduce(np.abs(flat))
    half = size // 2
    half -= half % 8
    return _abs_sum(flat[:half]) + _abs_sum(flat[half:])


def _check_worker_grads(per_worker: List[NamedGrads], expected: int) -> None:
    if len(per_worker) != expected:
        raise ValueError(
            f"expected gradients from {expected} workers, got {len(per_worker)}"
            f" (stale roster? call set_roster with the live ranks)"
        )
    names = list(per_worker[0])
    for rank, grads in enumerate(per_worker[1:], start=1):
        if list(grads) != names:
            raise ValueError(f"worker {rank} gradient names differ from worker 0")


def _unpack(buffer: np.ndarray, template: NamedGrads, names: List[str]) -> NamedGrads:
    """Split a fused buffer back into named tensors.

    Ownership contract: the returned arrays are **read-only views** into
    ``buffer`` — they are valid until the buffer's owner reuses it (for
    arena slabs: the next backward pass) and attempting to write through
    them raises.
    """
    out: NamedGrads = {}
    offset = 0
    for name in names:
        size = template[name].size
        view = buffer[offset : offset + size].reshape(template[name].shape)
        view.flags.writeable = False
        out[name] = view
        offset += size
    return out


class _PackLayout:
    """Element offsets of named blocks inside one fused pack.

    The bucketed low-rank paths stage per-name factors into one logical
    pack per collective (plain / P / Q), laid out in a fixed name order.
    Because bucket membership follows the arena layout order, each bucket's
    names occupy one contiguous segment of every pack, which is what lets a
    per-bucket collective use the monolithic pack's chunk schedule.
    """

    def __init__(self, sizes: Dict[str, int]):
        """``sizes`` in pack order."""
        self.sizes = sizes
        self.offsets: Dict[str, int] = {}
        offset = 0
        for name in sizes:
            self.offsets[name] = offset
            offset += sizes[name]
        self.total = offset


class _BucketSession:
    """Per-step scratch of one bucketed aggregation pass."""

    def __init__(self, per_worker: List[NamedGrads], layout) -> None:
        self.per_worker = per_worker
        self.layout = layout
        self.names: List[str] = list(layout.names)
        self.buckets: List[Tuple[int, int]] = list(layout.buckets)
        self.bucket_names: List[List[str]] = layout.bucket_names()
        self.total: int = layout.total_elements
        self.slabs = [grads.slab for grads in per_worker]
        self.template = per_worker[0]
        self.done = [False] * len(self.buckets)
        #: Per shipped ``(group, bucket)``: the rows sent, and the slots
        #: whose rows the collective delivered.
        self.sent, self.slots = {}, {}


class _FlatAggregate(DecodedAggregate):
    """A method decoding ranges of the fused vector (Top-k, Random-k,
    Sign-SGD) from ``parts``: per non-empty bucket, in order, its first
    element and what decodes it."""

    def __init__(self, layout: ArenaLayout, parts: List[Tuple[int, object]]):
        super().__init__(layout)
        self.parts = parts
        self._starts = [lo for lo, _ in parts]

    def block(self, name: str, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        shape = self.layout.shapes[name]
        row = self._rows[name]
        start = self.layout.offsets[name] + lo * row
        dest = out[: (hi - lo) * row]
        # A decoded range lies in one tensor, hence in one bucket.
        first, part = self.parts[bisect_right(self._starts, start) - 1]
        self._fill(part, start - first, start, start + dest.size, dest)
        return dest.reshape((hi - lo,) + shape[1:])

    def _fill(self, part, skip: int, start: int, stop: int, out: np.ndarray) -> None:
        """Decode elements ``start:stop`` of the fused vector into ``out``;
        ``part`` decodes their bucket, which begins ``skip`` elements
        before ``start``."""
        raise NotImplementedError


class _SparseAggregate(_FlatAggregate):
    """Top-k: every rank's selection, indices sorted, values alongside; a
    bucket's part is the slots its gather delivered."""

    def __init__(self, layout: ArenaLayout, selections, parts):
        super().__init__(layout, parts)
        self.selections = selections

    def _fill(self, slots, skip, start, stop, out):
        # Each delivered rank's entries in the range, in slot order: the
        # block of what one sparse_aggregate over the whole vector adds up.
        payloads = []
        for slot in slots:
            idx, values = self.selections[slot]
            lo, hi = np.searchsorted(idx, (start, stop))
            payloads.append(
                SparsePayload(idx[lo:hi] - start, values[lo:hi], stop - start)
            )
        sparse_aggregate(payloads, (stop - start,), average=True, out=out)

    def is_finite(self) -> bool:
        # A coordinate sums at most one value per rank.
        peak = max(
            (np.abs(values).max(initial=0.0) for _, values in self.selections),
            default=0.0,
        )
        with np.errstate(over="ignore"):
            return bool(np.isfinite(np.multiply(
                len(self.selections), peak, dtype=self.layout.dtype
            )))


class _ScatterAggregate(_FlatAggregate):
    """Random-k: the shared coordinates, sorted, and their averaged values."""

    def __init__(
        self, layout: ArenaLayout, indices: np.ndarray, values: np.ndarray
    ):
        super().__init__(layout, [(0, None)])
        self.indices, self.values = indices, values

    def _fill(self, part, skip, start, stop, out):
        lo, hi = np.searchsorted(self.indices, (start, stop))
        out.fill(0.0)
        out[self.indices[lo:hi] - start] = self.values[lo:hi]

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())


class _VoteAggregate(_FlatAggregate):
    """Sign-SGD: a bucket's part is its majority per element, one bit each,
    packed, and the two values it picks from."""

    def _fill(self, part, skip, start, stop, out):
        vote, table = part
        first, skip = skip // 8, skip % 8
        count = skip + stop - start
        bits = np.unpackbits(vote[first : first + (count + 7) // 8], count=count)
        np.take(table, bits[skip:], out=out, mode="clip")

    def is_finite(self) -> bool:
        return all(np.isfinite(table).all() for _, (_, table) in self.parts)


class _LowRankAggregate(DecodedAggregate):
    """Power-SGD / ACP-SGD: ``P Q^T`` per compressible tensor, the rest
    read from the reduced plain pack.

    A compressible tensor decodes over :func:`~repro.compression
    .lowrank_kernels.blocked_matmul`'s row blocks — another split would
    change the product's bits — so this aggregate chooses them.
    """

    def __init__(
        self,
        layout: ArenaLayout,
        factors: Dict[str, Tuple[np.ndarray, np.ndarray]],
        plain: np.ndarray,
        plain_pack: _PackLayout,
    ):
        super().__init__(layout)
        self.factors = factors
        self.plain, self.plain_pack = plain, plain_pack

    def blocks(self, name: str) -> List[Tuple[int, int]]:
        factors = self.factors.get(name)
        if factors is None:
            return super().blocks(name)
        p, q = factors
        return list(product_blocks(p.shape[0], q.shape[0]))

    def block(self, name: str, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        shape = self.layout.shapes[name]
        row = self._rows[name]
        factors = self.factors.get(name)
        if factors is None:
            start = self.plain_pack.offsets[name] + lo * row
            view = self.plain[start : start + (hi - lo) * row]
            return view.reshape((hi - lo,) + shape[1:])
        p, q = factors
        dest = out[: (hi - lo) * row].reshape(hi - lo, row)
        np.matmul(p[lo:hi], q.T, out=dest)
        return dest.reshape((hi - lo,) + shape[1:])

    def is_finite(self) -> bool:
        if not np.isfinite(self.plain[: self.plain_pack.total]).all():
            return False
        # |(P Q^T)_ij| <= r max|P| max|Q|, in the factors' precision.
        with np.errstate(over="ignore", invalid="ignore"):
            return all(
                np.isfinite(np.multiply(
                    p.shape[1], np.abs(p).max() * np.abs(q).max(), dtype=p.dtype
                ))
                for p, q in self.factors.values()
            )


class GradientAggregator:
    """Base class: process group, live roster, and per-rank compressor state.

    Per-worker state (carried low-rank factors, sampling streams, momentum
    accumulators) is keyed by *rank id*, not by slot position, so a rank
    keeps its own state across roster changes — ejecting rank 0 must not
    silently hand its state to rank 1, and a rank that rejoins later is
    readmitted with fresh (warm-started) state via :meth:`admit_rank`.
    Error-feedback residuals live in the :meth:`attach`-ed arena's slabs,
    which :meth:`set_roster` moves with their ranks.

    Staged protocol: :meth:`begin_buckets` / :meth:`reduce_bucket` /
    :meth:`finish_buckets` own the session bookkeeping (roster and layout
    validation, the step counter, reduced-twice and unreduced-bucket
    errors) and the wire (:meth:`_exchange`, :meth:`_ship`); a method
    encodes and decodes. :meth:`aggregate` is the loop over
    every bucket of the gradients' layout, so monolithic aggregation is
    literally the one-bucket case (``bucket_bytes=None``, the Fig. 8 end
    point "buffer >= model"). The
    :class:`~repro.train.reducer.BucketedReducer` drives the same three
    calls bucket by bucket as backward produces gradients.
    Results are bit-identical for any bucket partition and any bucket
    order: per-bucket collectives reuse the whole-slab chunk schedule (see
    :func:`repro.comm.collectives.all_reduce_inplace`) and
    vector-global compressors (top-k selection, the sign scale, the
    whole-vector quantizers) only act once every bucket is staged.
    """

    method = "base"
    use_error_feedback = False  # methods with error feedback set it per instance
    #: Whether the method consumes a carried tensor's pending gradient
    #: factors itself (``ArenaGrads.pop_factors``) instead of having them
    #: added onto the slab before it reads a bucket.
    takes_factors = False

    def __init__(self, group: ProcessGroup):
        self.group = group
        self.step = 0
        #: Ranks whose gradients ``aggregate`` receives, in slot order. The
        #: trainer re-syncs it from the group's live roster every step; it
        #: only ever changes under a resilient group (ejection, rejoin,
        #: scale-up).
        self.roster: List[int] = []
        self._per_rank: Dict[int, object] = {}
        self._bucket_session: Optional[_BucketSession] = None
        self._staging_blocks: Dict[str, np.ndarray] = {}
        self._arena: Optional[GradientArena] = None  # see attach()
        self._admitted: Set[int] = set()  # since the last set_roster
        # A method sets what its _make_state reads before calling this.
        self.set_roster(range(group.world_size))

    # ------------------------------------------------------------------
    # Per-rank state lifecycle (elastic membership hooks)
    # ------------------------------------------------------------------
    def _make_state(self, rank: int):
        """Fresh compressor state for one rank (None: stateless method)."""
        return None

    def state_for(self, rank: int):
        """The per-rank compressor state (None for stateless methods)."""
        return self._per_rank.get(rank)

    def set_roster(self, ranks: Sequence[int]) -> None:
        """Follow the group's live roster; create missing state lazily.

        At a change each surviving rank's residual moves with it to its new
        slot (:meth:`GradientArena.reorder`); a rank new to the roster, or
        readmitted through :meth:`admit_rank`, starts from an empty one.
        """
        ranks = list(ranks)
        for rank in ranks:
            if rank not in self._per_rank:
                state = self._make_state(rank)
                if state is not None:
                    self._per_rank[rank] = state
        arena = self._arena
        if arena is not None and arena.carried and (
            ranks != self.roster or self._admitted
        ):
            arena.reorder([
                None if rank in self._admitted or rank not in self.roster
                else self.roster.index(rank)
                for rank in ranks
            ])
        self._admitted.clear()
        self.roster = ranks

    def admit_rank(self, rank: int, donor_rank: Optional[int] = None) -> None:
        """Fresh per-rank state for an admission, warm-started from a donor.

        The elastic admission protocol's compressor half: the joiner's
        error-feedback residual starts empty at the next :meth:`set_roster`
        (its unsent history is), while state that is *shared* across
        workers — the low-rank methods' carried factors —
        is copied from the donor survivor, the in-process equivalent of
        broadcasting it. A rejoining rank's stale pre-ejection state is
        replaced, not resumed: its residual describes gradients that no
        longer exist.
        """
        self._admitted.add(rank)
        state = self._make_state(rank)
        if state is None:
            return
        donor = self._per_rank.get(donor_rank) if donor_rank is not None else None
        warm_start = getattr(state, "warm_start_from", None)
        if donor is not None and warm_start is not None:
            warm_start(donor)
        self._per_rank[rank] = state

    def aggregate(
        self,
        per_worker_grads: List[NamedGrads],
        order: Optional[Sequence[int]] = None,
    ) -> Mapping[str, np.ndarray]:
        """Aggregate one step's gradients; returns the shared global gradient.

        Runs the whole staged protocol at once over every bucket of the
        gradients' layout (plain dicts are written into a one-bucket arena
        first, see :meth:`_adopt`). ``order`` defaults to reverse layout
        order — the order backward would have produced the buckets — but
        any permutation yields bit-identical results.
        """
        self.begin_buckets(self._adopt(per_worker_grads))
        if order is None:
            order = range(len(self._bucket_state().buckets) - 1, -1, -1)
        for index in order:
            self.reduce_bucket(index)
        return self.finish_buckets()

    def _adopt(self, per_worker: List[NamedGrads]) -> List[ArenaGrads]:
        """One step's gradients as arena-backed slabs (``aggregate``'s entry).

        :class:`~repro.perf.arena.ArenaGrads` sharing one layout — what the
        trainer hands over — pass through untouched: tensor fusion is a
        no-op. Plain ``{name: array}`` dicts are :meth:`~GradientArena.load`-ed
        into the attached arena — a private one-bucket one made from worker
        0's names, shapes and dtype on first use — so error feedback carries
        over between calls. The caller's arrays are never modified.
        """
        _check_worker_grads(per_worker, len(self.roster))
        layout = getattr(per_worker[0], "layout", None)
        if layout is not None and all(
            getattr(grads, "layout", None) is layout for grads in per_worker
        ):
            return per_worker
        templates = [(name, np.asarray(grad)) for name, grad in per_worker[0].items()]
        arena = self._arena
        if arena is None or [
            (name, grad.shape, grad.dtype) for name, grad in templates
        ] != [
            (name, shape, arena.layout.dtype)
            for name, shape in arena.layout.shapes.items()
        ]:
            arena = GradientArena(templates, len(per_worker))
            self.attach(arena)
        arena.ensure_slots(len(per_worker))
        return [arena.load(slot, grads) for slot, grads in enumerate(per_worker)]

    # ------------------------------------------------------------------
    # Error-feedback residuals: the arena slabs
    # ------------------------------------------------------------------
    def _residual_names(self, layout: ArenaLayout) -> List[str]:
        """Tensors whose slot is the rank's error-feedback accumulator."""
        return list(layout.names) if self.use_error_feedback else []

    def attach(self, arena: GradientArena) -> None:
        """Keep this aggregator's error-feedback residuals in ``arena``.

        Marks the method's carried tensors (:meth:`GradientArena.carry`):
        backward adds the gradient onto the residual in each rank's slab,
        the method compresses it there and leaves the new residual. A
        method that ``takes_factors`` has them factored too. The trainer's
        reducer attaches the trainer's arena.
        """
        arena.carry(
            self._residual_names(arena.layout), factored=self.takes_factors
        )
        self._arena = arena

    # ------------------------------------------------------------------
    # Bucketed (WFBP) protocol
    # ------------------------------------------------------------------
    def begin_buckets(self, per_worker_grads: List[NamedGrads]) -> None:
        """Open a staged aggregation step over arena-backed gradients.

        ``per_worker_grads`` must be :class:`~repro.perf.arena.ArenaGrads`
        sharing one layout, in roster (slot) order. The caller may
        then fire :meth:`reduce_bucket` for every bucket in any order —
        typically reverse layout order, as backward produces them — and
        collect the result with :meth:`finish_buckets`.
        """
        _check_worker_grads(per_worker_grads, len(self.roster))
        layout = getattr(per_worker_grads[0], "layout", None)
        if layout is None or any(
            getattr(grads, "layout", None) is not layout
            for grads in per_worker_grads
        ):
            raise ValueError(
                "bucketed aggregation requires arena-backed gradients "
                "sharing one layout (ArenaGrads from a single GradientArena)"
            )
        session = _BucketSession(per_worker_grads, layout)
        self._bucket_session = session
        self.step += 1
        self._begin(session)

    def reduce_bucket(self, index: int) -> None:
        """Reduce (or stage) one bucket; gradients for it must be final."""
        session = self._bucket_state()
        if session.done[index]:
            raise RuntimeError(f"bucket {index} reduced twice in one step")
        session.done[index] = True
        if not self.takes_factors:
            names = session.bucket_names[index]
            for grads in session.per_worker:
                grads.materialize(names)
        self._exchange(session, AS_LANDED, index)

    def finish_buckets(self) -> Mapping[str, np.ndarray]:
        """Complete the step; every bucket must have been reduced.

        Returns read-only views (S-SGD's point into worker 0's reduced
        slab) or, for a method that decodes a payload, a
        :class:`DecodedAggregate`; either is valid until the next
        aggregation begins.
        """
        session = self._bucket_state()
        missing = [i for i, done in enumerate(session.done) if not done]
        if missing:
            raise RuntimeError(
                f"finish_buckets called with unreduced buckets {missing}"
            )
        self._bucket_session = None
        self._encode_step(session)
        for index in range(len(session.buckets)):
            self._exchange(session, PER_BUCKET, index)
        self._exchange(session, PER_STEP, None)
        return self._result(session)

    def _bucket_state(self) -> _BucketSession:
        session = self._bucket_session
        if session is None:
            raise RuntimeError(
                "reduce_bucket/finish_buckets called without begin_buckets"
            )
        return session

    def _exchange(self, session: _BucketSession, when: str, index) -> None:
        """Encode, ship and decode the groups of cadence ``when`` for
        bucket ``index`` (``None``: the whole step)."""
        for group, _, cadence in WIRE_GROUPS[self.method]:
            if cadence != when:
                continue
            payload = self._encode(session, group, index)
            delivered = payload and self._ship(group, *payload)
            if delivered:
                session.sent[group, index] = payload[0]
                session.slots[group, index] = [
                    slot for slot, row in enumerate(delivered) if row is not None
                ]
                self._decode(session, group, index, delivered)

    def _ship(
        self, group: str, rows: List[np.ndarray], segment: Tuple[int, int, int]
    ) -> Optional[List[np.ndarray]]:
        """Issue ``group``'s declared collective over every slot's row and
        return the rows delivered (``None``: an empty segment, not shipped).
        An all-reduce averages in place with the chunk schedule of the
        group's whole vector, ``segment[2]`` elements long, so every bucket
        partition has the monolithic call's bits."""
        lo, hi, total = segment
        if hi == lo:
            return None
        kind = next(k for g, k, _ in WIRE_GROUPS[self.method] if g == group)
        if kind == ALL_REDUCE:
            return self.group.all_reduce_segment_(rows, lo, total, average=True)
        return self.group.all_gather(rows)[0]

    # What a method supplies; ``session.slabs`` hold the gradients.
    def _encode(self, session: _BucketSession, group: str, index: Optional[int]):
        """Every slot's row of ``group`` for bucket ``index`` (``None``: the
        whole step) and their ``(lo, hi, total)`` segment; ``None`` when
        the method sends nothing of the group there."""
        raise NotImplementedError

    def _result(self, session: _BucketSession) -> Mapping[str, np.ndarray]:
        """The aggregate, over the slots each collective delivered."""
        raise NotImplementedError

    def _begin(self, session: _BucketSession) -> None:
        """Per-step scratch, as the step opens."""

    def _decode(self, session: _BucketSession, group, index, delivered) -> None:
        """Use a group's delivered rows before the bucket's next group."""

    def _encode_step(self, session: _BucketSession) -> None:
        """The step-wide encode, once every bucket is in."""

    def _staging_rows(
        self, key: str, rows: int, cols: int, dtype: np.dtype
    ) -> List[np.ndarray]:
        """Per-slot 1-D staging buffers in ``dtype``, allocated once and reused.

        Backed by one grow-only 2-D block per purpose (``key``), so the
        steady-state bucketed hot path stages with zero allocations; the
        block only grows at roster-expansion boundaries.
        """
        block = self._staging_blocks.get(key)
        if block is None or block.dtype != dtype:
            block = np.zeros((0, 0), dtype)
        if block.shape[0] < rows or block.shape[1] < cols:
            old_rows, old_cols = block.shape
            block = np.zeros((max(rows, old_rows), max(cols, old_cols)), dtype)
            self._staging_blocks[key] = block
        return [block[slot, :cols] for slot in range(rows)]

    def reset(self) -> None:
        """Drop accumulated compressor state (EF residuals, cached factors).

        The trainer's resilience ladder calls this after a skipped step or a
        checkpoint rollback — a residual contaminated by a non-finite
        gradient would otherwise re-poison every subsequent step; the
        residuals are emptied in the attached arena. Stateless aggregators
        (uncompressed all-reduce) are a no-op; compressors without a
        ``reset`` (unbiased quantizers carry no state between steps) are
        skipped.
        """
        for state in self._per_rank.values():
            reset = getattr(state, "reset", None)
            if reset is not None:
                reset()
        if self._arena is not None:
            self._arena.clear_residuals()


class AllReduceAggregator(GradientAggregator):
    """S-SGD: fused ring all-reduce of the raw gradients (the baseline).

    The all-reduce runs **in place** on the per-worker slabs: zero packing
    copies, zero per-step fused allocations, and the returned tensors are
    read-only views into the reduced slab. The per-worker gradients are
    consumed by the call (every slab ends up holding the reduced average),
    matching NCCL in-place all-reduce semantics; a group that needs the
    payloads pristine (the resilient group's retransmissions) copies them
    itself.
    """

    method = "ssgd"

    def _begin(self, session: _BucketSession) -> None:
        # Two workers handing in the SAME slab cannot be summed where it
        # lives (the first write would corrupt the other operand): every
        # repeat gets a private copy.
        slabs = session.slabs
        for slot in range(1, len(slabs)):
            if any(slabs[slot] is earlier for earlier in slabs[:slot]):
                ALLOC_STATS.bucket_copies += 1
                slabs[slot] = slabs[slot].copy()

    def _encode(self, session, group, index):
        # Zero-copy: the arena bucket views are reduced where they live
        # (destroys the local payloads).
        lo, hi = session.buckets[index]
        return [slab[lo:hi] for slab in session.slabs], (lo, hi, session.total)

    def _result(self, session: _BucketSession) -> NamedGrads:
        return _unpack(session.slabs[0], session.template, session.names)


class SignSGDAggregator(GradientAggregator):
    """Sign-SGD with majority vote: all-gather 1-bit signs, vote, rescale.

    Gradients are packed into one flat tensor before compression ("the
    gradients are packed together to be compressed and communicated for
    better performance", §III-A): each rank's slab, with error feedback its
    accumulator ``E + G``, from which ``scale * sign`` is subtracted in
    place (:class:`~repro.compression.signsgd.SignCompressor`'s arithmetic,
    bucket by bucket). The result is the vote, one bit per element, and
    the two values it picks from, decoded block by block by the optimizer.
    """

    method = "signsgd"

    def __init__(self, group: ProcessGroup, use_error_feedback: bool = True):
        self.use_error_feedback = use_error_feedback
        self._vote = np.empty(0, dtype=np.uint8)  # grow-only, one bit per element
        super().__init__(group)

    def _encode(self, session, group, index):
        """The bucket's sign bits: per element, so they all-gather as the
        bucket lands and Sign-SGD keeps WFBP overlap. The vector-global
        scale waits for :meth:`finish_buckets` and does not travel (a known
        gap, see :mod:`repro.compression.wire`)."""
        lo, hi = session.buckets[index]
        packed = [np.packbits(slab[lo:hi] >= 0) for slab in session.slabs]
        return packed, (lo, hi, session.total)

    def _result(self, session: _BucketSession) -> DecodedAggregate:
        """Vote on integer bit counts, block by block.

        Per bucket, ``2 * count >= slots`` over the slots its gather
        delivered (a tie votes ``+1``) picks ``+-mean_scale`` of those
        slots out of a two-entry table, as each rank's ``residual -=
        +-scale`` does through one block of scratch: the very products
        ``scale * sign`` forms, so the bits are :func:`~repro.compression
        .signsgd.majority_vote_aggregate`'s without a float sign vector.
        """
        # The scale is the L1 mean of the *whole* EF-corrected vector,
        # whatever the bucket partition. Python floats from here: the tables
        # are rounded once into the slab's dtype, under any numpy's casting.
        dtype = session.layout.dtype
        scales = np.array([
            float(_abs_sum(slab)) / session.total if session.total else 0.0
            for slab in session.slabs
        ])
        signed = np.array([-1.0, 1.0])  # indexed by a sign bit
        kept = (scales[:, None] * signed).astype(dtype)
        packed_sizes = [(hi - lo + 7) // 8 for lo, hi in session.buckets]
        if self._vote.size < sum(packed_sizes):
            self._vote = np.empty(sum(packed_sizes), dtype=np.uint8)
        scratch = self._staging_rows(
            "signsgd", 1, max(1, min(_VOTE_BLOCK, session.total)), dtype
        )[0]
        votes, at = [], 0
        for index, ((lo, hi), nbytes) in enumerate(zip(session.buckets, packed_sizes)):
            vote = self._vote[at : at + nbytes]
            at += nbytes
            if hi == lo:
                continue
            packed, slots = session.sent["signs", index], session.slots["signs", index]
            voted = (float(scales[slots].mean()) * signed).astype(dtype)
            votes.append((lo, (vote, voted)))
            majority_at = (len(slots) + 1) // 2
            for start in range(lo, hi, _VOTE_BLOCK):
                size = min(_VOTE_BLOCK, hi - start)
                first = (start - lo) // 8  # _VOTE_BLOCK is a multiple of 8
                bits = [
                    np.unpackbits(wire[first : first + (size + 7) // 8], count=size)
                    for wire in packed
                ]
                count = np.add.reduce(
                    [bits[slot] for slot in slots], axis=0,
                    dtype=np.min_scalar_type(len(slots)),
                )
                vote[first : first + (size + 7) // 8] = np.packbits(
                    count >= majority_at
                )
                if self.use_error_feedback:
                    # What was not sent stays behind, in place.
                    sent = scratch[:size]
                    for table, slab, bit in zip(kept, session.slabs, bits):
                        np.take(table, bit, out=sent, mode="clip")
                        slab[start : start + size] -= sent
        return _VoteAggregate(session.layout, votes)


class TopkSGDAggregator(GradientAggregator):
    """Top-k SGD: all-gather (values, indices), sum sparse, average.

    With error feedback each rank's slab is its accumulator ``E + G``:
    selection reads it and zeroes what was sent, which leaves the residual
    in place. The result is every rank's selection, indices sorted, which
    the optimizer scatters into one block of scratch at a time. A
    steady-state step allocates O(k * world), never O(model). With error
    feedback off the slabs are only read. A slot that skips backward (an
    ejected worker's stale slab) contributes what it holds — its residual,
    or without error feedback its last gradient: deterministic, and the
    same on every worker backend.

    ``momentum_correction=μ > 0`` is DGC (Lin et al. 2018, the paper's
    [19], ``make_aggregator("dgc")``): the slab carries ``μ·u``, so
    backward's add forms the local momentum ``u = μu + g``; the rank's
    persistent velocity (its compressor's ``velocity``) accumulates
    ``v += u`` and is what the selection reads; a sent coordinate is
    zeroed in both ``v`` and ``u``, and ``u`` shrinks by ``μ`` for the next
    step. The momentum lives here, so pair it with ``SGD(momentum=0)``.
    """

    method = "topk"

    def __init__(
        self,
        group: ProcessGroup,
        ratio: float = 0.01,
        selection: str = "exact",
        use_error_feedback: bool = True,
        seed: int = 0,
        momentum_correction: float = 0.0,
    ):
        if not 0.0 <= momentum_correction < 1.0:
            raise ValueError(
                f"momentum_correction must be in [0, 1), got {momentum_correction}"
            )
        if momentum_correction and not use_error_feedback:
            raise ValueError(
                "momentum_correction needs use_error_feedback=True: the "
                "local momentum is carried in the error-feedback slab"
            )
        if momentum_correction:
            self.method = "dgc"
        self.ratio = ratio
        self.selection = selection
        self.use_error_feedback = use_error_feedback
        self.seed = seed
        self.momentum_correction = momentum_correction
        super().__init__(group)

    def _make_state(self, rank: int) -> TopkCompressor:
        return TopkCompressor(
            ratio=self.ratio,
            selection=self.selection,
            use_error_feedback=self.use_error_feedback,
            rng=np.random.default_rng(self.seed + rank),
        )

    def _encode_step(self, session: _BucketSession) -> None:
        """Select on every rank's whole accumulator.

        Top-k selection is *vector-global* — one ``k`` and one threshold
        over the whole fused gradient — so nothing ships before every bucket
        is in: the §IV observation that top-k forfeits WFBP overlap.
        """
        # Selection needs one block of scratch on every path.
        dtype = session.layout.dtype
        scratch = self._staging_rows(
            "topk", 1, max(1, min(SELECT_BLOCK, session.total)), dtype
        )[0]
        mu = self.momentum_correction
        selections = []
        for rank, slab in zip(self.roster, session.slabs):
            state = self._per_rank[rank]
            accumulator = slab
            if mu:
                if state.velocity is None:  # -0.0 + u is u, signed zeros too
                    state.velocity = np.full(session.total, -0.0, dtype)
                accumulator = state.velocity
                accumulator += slab
            idx = state.select(accumulator, scratch)
            idx.sort()
            selections.append((idx, accumulator[idx]))
            if self.use_error_feedback:
                accumulator[idx] = 0.0  # sent; the rest stays behind, in place
            if mu:
                slab[idx] = 0.0
                slab *= mu  # the next backward adds g onto mu * u
        session.selections = selections

    def _encode(self, session, group, index):
        # Each rank ships the (index, value) pairs whose coordinates fall
        # in this bucket, the bucket-relative indices bit-cast into value
        # lanes.
        lo, hi = session.buckets[index]
        rows = []
        for idx, values in session.selections:
            a, b = np.searchsorted(idx, (lo, hi))
            rows.append(sparse_wire(idx[a:b] - lo, values[a:b]))
        return rows, (lo, hi, session.total)

    def _result(self, session: _BucketSession) -> DecodedAggregate:
        delivered = [
            (lo, session.slots["selection", index])
            for index, (lo, hi) in enumerate(session.buckets) if hi > lo
        ]
        return _SparseAggregate(session.layout, session.selections, delivered)


class RandomKAggregator(GradientAggregator):
    """Random-k with a shared seed: additive, so values ride an all-reduce."""

    method = "randomk"

    def __init__(
        self,
        group: ProcessGroup,
        ratio: float = 0.01,
        seed: int = 0,
        use_error_feedback: bool = True,
    ):
        self.ratio = ratio
        self.seed = seed
        self.use_error_feedback = use_error_feedback
        super().__init__(group)

    def _make_state(self, rank: int) -> RandomKCompressor:
        # Same seed across workers: coordinates agree, payloads align —
        # which also means a joiner derives the shared coordinate set from
        # (seed, step) with no state to synchronize.
        return RandomKCompressor(
            ratio=self.ratio, seed=self.seed,
            use_error_feedback=self.use_error_feedback,
        )

    def _encode(self, session, group, index):
        # With error feedback each slab is its rank's accumulator: compress
        # takes the shared coordinates' values and zeroes them in place.
        session.payloads = [
            self._per_rank[rank].compress("fused", slab, self.step)
            for rank, slab in zip(self.roster, session.slabs)
        ]
        k = session.payloads[0].values.size
        return [payload.values for payload in session.payloads], (0, k, k)

    def _result(self, session: _BucketSession) -> DecodedAggregate:
        # Every rank's values were averaged in place.
        payload = session.payloads[0]
        order = np.argsort(payload.indices)
        return _ScatterAggregate(
            session.layout, payload.indices[order], payload.values[order]
        )


class _QuantizedAggregator(GradientAggregator):
    """QSGD / TernGrad: each rank quantizes to its own scale, so the codec's
    ``packed`` payloads are all-gathered, and the delivered ones are
    dequantized and averaged. The scale does not travel (a known gap, see
    :mod:`repro.compression.wire`)."""

    def _encode(self, session, group, index):
        session.payloads = [
            self._per_rank[rank].compress(slab)
            for rank, slab in zip(self.roster, session.slabs)
        ]
        rows = [payload.packed for payload in session.payloads]
        return rows, (0, session.total, session.total)

    def _result(self, session: _BucketSession) -> NamedGrads:
        size = session.total
        dense = np.zeros(size, session.layout.dtype)
        slots = session.slots["levels", None]
        for slot in slots:
            state = self._per_rank[self.roster[slot]]
            dense += state.decompress(session.payloads[slot], (size,))
        dense /= len(slots)
        return _unpack(dense, session.template, session.names)


class QSGDAggregator(_QuantizedAggregator):
    """QSGD (extension): ``s``-level stochastic quantization to each rank's
    norm; a byte per level and a sign bit per element on the wire."""

    method = "qsgd"

    def __init__(self, group: ProcessGroup, num_levels: int = 255, seed: int = 0):
        self.num_levels = num_levels
        self.seed = seed
        super().__init__(group)

    def _make_state(self, rank: int) -> QSGDCompressor:
        return QSGDCompressor(
            self.num_levels, rng=np.random.default_rng(self.seed + rank)
        )


class TernGradAggregator(_QuantizedAggregator):
    """TernGrad (extension): ternary quantization to each rank's scale.

    Unbiased, so no error feedback; variance is the convergence cost.
    """

    method = "terngrad"

    def __init__(self, group: ProcessGroup, seed: int = 0,
                 clip_sigma: float = 2.5):
        self.seed = seed
        self.clip_sigma = clip_sigma
        super().__init__(group)

    def _make_state(self, rank: int) -> TernGradCompressor:
        return TernGradCompressor(
            np.random.default_rng(self.seed + rank), self.clip_sigma
        )


class _LowRankPlan:
    """What a low-rank step derives from the gradient layout alone.

    The compressible / plain split of every bucket, the P ``(n, r)`` and
    Q ``(m, r)`` factor shapes and the three pack layouts depend only on
    parameter shapes and the target rank, not on the step. Each pack (plain / P / Q)
    orders its blocks by layout order, so every bucket's names cover a
    contiguous pack segment and per-bucket reduction can reuse the
    monolithic pack's chunk schedule.
    """

    def __init__(self, layout: ArenaLayout, rank: int):
        self.layout, names = layout, layout.names
        split, plain = low_rank_split([layout.shapes[n] for n in names], rank)
        factored = {names[i]: dims for i, dims in split.items()}
        plain = {names[i]: layout.shapes[names[i]] for i in plain}
        #: Per bucket: its (compressible, plain) names, in layout order.
        self.bucket_split = [
            (
                [n for n in bucket if n in factored],
                [n for n in bucket if n not in factored],
            )
            for bucket in layout.bucket_names()
        ]
        #: Per factor group: each compressible tensor's factor shape.
        self.shapes = {
            "P": {name: (n, r) for name, (n, _, r) in factored.items()},
            "Q": {name: (m, r) for name, (_, m, r) in factored.items()},
        }
        #: Per group: its pack of the tensors' (or factors') elements.
        self.packs = {
            group: _PackLayout({name: prod(shape) for name, shape in shapes.items()})
            for group, shapes in [("plain", plain), *self.shapes.items()]
        }


class _LowRankBase(GradientAggregator):
    """Power-SGD / ACP-SGD: one :class:`~repro.compression.lowrank
    .LowRankState` per rank, running one or two halves per step.

    A tensor is low-rank compressed only when it is matrix-shaped *and*
    compression actually shrinks it (:func:`~repro.compression.wire
    .low_rank_split`); everything else (biases, norm scales, tiny
    matrices) rides a fused uncompressed ring all-reduce, exactly as in
    the paper's §IV-C. With error feedback a
    rank's compressible tensors are its accumulators ``M + E``, projected
    and corrected in place. Everything else in the slabs is only read. The
    result keeps each tensor's factors ``P`` and ``Q``; ``P Q^T`` is formed
    one row block at a time as the optimizer applies it.
    """

    #: Halves one step runs: Power-SGD computes P then Q, ACP-SGD one of them.
    halves_per_step: int

    def __init__(
        self,
        group: ProcessGroup,
        rank: int = 4,
        seed: int = 0,
        use_error_feedback: bool = True,
        reuse_query: bool = True,
    ):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self._plan: Optional[_LowRankPlan] = None
        self.seed = seed
        self.use_error_feedback = use_error_feedback
        self.reuse_query = reuse_query
        super().__init__(group)

    @property
    def takes_factors(self) -> bool:
        """With error feedback a one-half step takes a ``Linear`` weight
        gradient as its factors: ``E + g^T x - P Q^T`` is one rank-(batch +
        r) update of the residual, the gradient never formed. (The first
        half of a two-half step only reads the accumulator, so it needs the
        gradient added.)"""
        return self.use_error_feedback and self.halves_per_step == 1

    def _make_state(self, rank: int):
        # Same seed everywhere: the initial factors must agree across ranks.
        return LowRankState(
            self.rank, self.seed, self.use_error_feedback,
            self.reuse_query, self.halves_per_step,
        )

    def _residual_names(self, layout: ArenaLayout) -> List[str]:
        factored = self._layout_plan(layout).shapes["P"]
        return [n for n in super()._residual_names(layout) if n in factored]

    def _layout_plan(self, layout: ArenaLayout) -> _LowRankPlan:
        """The step-invariant plan for ``layout``, built once.

        A trainer's arena hands in the same layout object every step;
        adopted plain dicts arrive under a fresh layout and rebuild.
        """
        plan = self._plan
        if plan is None or plan.layout is not layout:
            plan = self._plan = _LowRankPlan(layout, self.rank)
        return plan

    def _begin(self, session: _BucketSession) -> None:
        """Stage the plain pack and the step's halves (P and/or Q packs)."""
        plan = session.plan = self._layout_plan(session.layout)
        num_slots = len(self.roster)
        dtype = session.layout.dtype
        session.plain_scratch = self._staging_rows(
            "plain", num_slots, max(1, plan.packs["plain"].total), dtype
        )
        lead = self._per_rank[self.roster[0]]
        session.halves = {
            "P" if LowRankState.compresses_p(half) else "Q": half
            for half in lead.halves(self.step)
        }
        # A bucket's factor rows are dead once every rank adopted them, so
        # a step's halves share one staging block.
        width = max(plan.packs[group].total for group in session.halves)
        session.factor_scratch = self._staging_rows(
            "factors", num_slots, max(1, width), dtype
        )
        session.factors = {}

    def _encode(self, session, group, index):
        """The bucket's plain tensors, or every rank's factor of one half:
        compressed into its row of the half's pack, slot 0 first (the others
        borrow its orthonormal carried factor, one QR per tensor).

        Power-SGD's P round blocks its Q round *within* the bucket (the
        §III-C structure), but later buckets start as soon as their
        gradients exist; ACP-SGD's one alternating-factor round a step is
        the cheapest of the low-rank schedules (§IV-C).
        """
        comp_b, plain_b = session.plan.bucket_split[index]
        half = session.halves.get(group)
        names = plain_b if group == "plain" else comp_b if half is not None else []
        if not names:
            return None
        pack = session.plan.packs[group]
        rows = session.plain_scratch if group == "plain" else session.factor_scratch
        lead = self._per_rank[self.roster[0]]
        for slot, rank in enumerate(self.roster):
            grads, row = session.per_worker[slot], rows[slot]
            for name in names:
                if half is None:
                    block = grads[name]
                else:
                    block = self._per_rank[rank].compress(
                        name, grad_to_matrix(grads[name]), half,
                        lead if slot else None, grads.pop_factors(name),
                    )
                off = pack.offsets[name]
                row[off : off + pack.sizes[name]] = block.reshape(-1)
        # A bucket's names are contiguous in every pack.
        lo, hi = pack.offsets[names[0]], pack.offsets[names[-1]] + pack.sizes[names[-1]]
        return [row[lo:hi] for row in rows], (lo, hi, pack.total)

    def _decode(self, session, group, index, delivered):
        """Every rank adopts a half's aggregated factors (the plain pack
        decodes where it was reduced). ``P Q^T`` is then identical on every
        rank, so the result keeps slot 0's pair."""
        half = session.halves.get(group)
        if half is None:
            return
        names = session.plan.bucket_split[index][0]
        pack, shapes = session.plan.packs[group], session.plan.shapes[group]
        row, lo = delivered[0], pack.offsets[names[0]]
        lead = self._per_rank[self.roster[0]]
        for name in names:
            # One copy out of the staging row, kept by every rank.
            off = pack.offsets[name] - lo
            agg = row[off : off + pack.sizes[name]].reshape(shapes[name]).copy()
            session.factors[name] = lead.adopt(name, agg, half)
            for rank in self.roster[1:]:
                self._per_rank[rank].adopt(name, agg, half)

    def _result(self, session: _BucketSession) -> DecodedAggregate:
        return _LowRankAggregate(
            session.layout, session.factors, session.plain_scratch[0],
            session.plan.packs["plain"],
        )


class PowerSGDAggregator(_LowRankBase):
    """Power-SGD: all-reduce P, orthogonalize, all-reduce Q.

    Two halves per step: the P factors of a bucket's compressible tensors
    are batched into one fused all-reduce, then the Q factors into another
    — two blocking collectives (the structure Fig. 4(a) shows).
    """

    method = "powersgd"
    halves_per_step = 2


class ACPSGDAggregator(_LowRankBase):
    """ACP-SGD: a single fused all-reduce of the alternating factor.

    One half per step: P on odd steps, Q on even ones — fixed for the whole
    session, because every bucket shares the step's parity.
    """

    method = "acpsgd"
    halves_per_step = 1


def make_aggregator(
    method: str, group: ProcessGroup, **kwargs
) -> GradientAggregator:
    """Factory by method name: ssgd/signsgd/topk/randomk/qsgd/powersgd/acpsgd,
    terngrad, and dgc (Top-k with momentum correction 0.9)."""
    registry = {
        "ssgd": AllReduceAggregator,
        "signsgd": SignSGDAggregator,
        "topk": TopkSGDAggregator,
        "randomk": RandomKAggregator,
        "qsgd": QSGDAggregator,
        "terngrad": TernGradAggregator,
        "powersgd": PowerSGDAggregator,
        "acpsgd": ACPSGDAggregator,
        "dgc": partial(TopkSGDAggregator, momentum_correction=0.9),
    }
    cls = registry.get(method)
    if cls is None:
        raise ValueError(
            f"unknown method {method!r}; available: {', '.join(sorted(registry))}"
        )
    return cls(group, **kwargs)
