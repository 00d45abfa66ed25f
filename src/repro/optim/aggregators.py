"""Distributed gradient aggregation — one strategy per training method.

An aggregator consumes each worker's local gradients for one step and
returns the aggregated gradient every worker applies. All communication
goes through a :class:`~repro.comm.process_group.ProcessGroup`, so the
traffic each method generates is *measured*, not assumed — the Table II
tests compare these measurements to the analytical complexities.

Aggregation semantics are gradient *averaging* across workers (the S-SGD
convention the paper's convergence experiments use).

Every method is *staged*: the three public calls ``begin_buckets`` /
``reduce_bucket`` / ``finish_buckets`` live once, in
:class:`GradientAggregator`, and a method supplies the ``_begin`` /
``_reduce`` / ``_finish`` bodies behind them. Methods that compress the
whole fused vector at once (Random-k, QSGD, TernGrad, DGC) leave
``_reduce`` empty and do all their work in ``_finish`` over the staged
slabs, so every method runs under any bucket partition of the arena.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.perf.arena import ArenaGrads, ArenaLayout
from repro.perf.counters import ALLOC_STATS
from repro.compression.acpsgd import ACPSGDState
from repro.compression.powersgd import PowerSGDState
from repro.compression.qsgd import QSGDCompressor
from repro.compression.randomk import RandomKCompressor
from repro.compression.reshaping import (
    grad_to_matrix,
    matrix_view_shape,
    should_compress,
)
from repro.compression.signsgd import SignCompressor
from repro.compression.topk import SparsePayload, TopkCompressor, sparse_aggregate

NamedGrads = Dict[str, np.ndarray]

# Elements Sign-SGD votes on at a time: a block's unpacked bits, their
# count and one float scratch stay cache-resident.
_VOTE_BLOCK = 1 << 16


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


def _adopt(per_worker: List[NamedGrads], expected: int) -> List[ArenaGrads]:
    """One step's gradients as arena-backed slabs (``aggregate``'s entry).

    :class:`~repro.perf.arena.ArenaGrads` sharing one layout — what the
    trainer hands over — pass through untouched: tensor fusion is a no-op.
    Anything else (plain ``{name: array}`` dicts) is copied once into a
    transient one-bucket layout built from worker 0's names and shapes:
    one counted ``pack_copies`` per worker. The copies are private to the
    call, so the caller's arrays are never modified and the returned
    tensors (views into the transient slabs) stay valid for as long as the
    caller holds them.
    """
    _check_worker_grads(per_worker, expected)
    layout = getattr(per_worker[0], "layout", None)
    if layout is not None and all(
        getattr(grads, "layout", None) is layout for grads in per_worker
    ):
        return per_worker
    layout = ArenaLayout(
        [(name, np.shape(grad)) for name, grad in per_worker[0].items()]
    )
    return [ArenaGrads.adopt(grads, layout) for grads in per_worker]


def _unpack(
    buffer: np.ndarray,
    template: NamedGrads,
    names: List[str],
    copy: bool = False,
) -> NamedGrads:
    """Split a fused buffer back into named tensors.

    Ownership contract: by default the returned arrays are **read-only
    views** into ``buffer`` — they are valid until the buffer's owner
    reuses it (for arena slabs: the next backward pass) and attempting to
    write through them raises. Callers that need private, mutable tensors
    must pass ``copy=True`` (one allocation per tensor, counted in
    :data:`repro.perf.counters.ALLOC_STATS`).
    """
    out: NamedGrads = {}
    offset = 0
    for name in names:
        size = template[name].size
        view = buffer[offset : offset + size].reshape(template[name].shape)
        if copy:
            ALLOC_STATS.unpack_copies += 1
            out[name] = view.copy()
        else:
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

    def __init__(self, sizes: Dict[str, int], order: List[str]):
        self.sizes = sizes
        self.offsets: Dict[str, int] = {}
        offset = 0
        for name in order:
            self.offsets[name] = offset
            offset += sizes[name]
        self.total = offset

    def segment(self, names: Sequence[str]) -> Tuple[int, int]:
        """Element range covered by ``names`` (must be pack-contiguous)."""
        lo = self.offsets[names[0]]
        last = names[-1]
        return lo, self.offsets[last] + self.sizes[last]


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


class GradientAggregator:
    """Base class: process group, live roster, and per-rank compressor state.

    Per-worker state (EF residuals, carried low-rank factors, momentum
    accumulators) is keyed by *rank id*, not by slot position, so a rank
    keeps its own state across roster changes — ejecting rank 0 must not
    silently hand its residual to rank 1, and a rank that rejoins later is
    readmitted with fresh (warm-started) state via :meth:`admit_rank`.

    Staged protocol: :meth:`begin_buckets` / :meth:`reduce_bucket` /
    :meth:`finish_buckets` own the session bookkeeping (roster and layout
    validation, the step counter, reduced-twice and unreduced-bucket
    errors); a method implements :meth:`_begin`, :meth:`_reduce` and
    :meth:`_finish` and nothing else. :meth:`aggregate` is the loop over
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

    def __init__(self, group: ProcessGroup):
        self.group = group
        self.step = 0
        #: Ranks whose gradients ``aggregate`` receives, in slot order. The
        #: trainer re-syncs it from the group's live roster every step; it
        #: only ever changes under a resilient group (ejection) or an
        #: elastic membership controller (rejoin / scale-up).
        self.roster: List[int] = list(range(group.world_size))
        self._per_rank: Dict[int, object] = {}
        self._bucket_session: Optional[_BucketSession] = None
        self._staging_blocks: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Per-rank state lifecycle (elastic membership hooks)
    # ------------------------------------------------------------------
    def _make_state(self, rank: int):
        """Fresh compressor state for one rank (None: stateless method)."""
        return None

    def _init_states(self) -> None:
        """Populate per-rank state for the initial roster (subclass init)."""
        for rank in self.roster:
            state = self._make_state(rank)
            if state is not None:
                self._per_rank[rank] = state

    def state_for(self, rank: int):
        """The per-rank compressor state (None for stateless methods)."""
        return self._per_rank.get(rank)

    def set_roster(self, ranks: Sequence[int]) -> None:
        """Follow the group's live roster; create missing state lazily."""
        for rank in ranks:
            if rank not in self._per_rank:
                state = self._make_state(rank)
                if state is not None:
                    self._per_rank[rank] = state
        self.roster = list(ranks)

    def admit_rank(self, rank: int, donor_rank: Optional[int] = None) -> None:
        """Fresh per-rank state for an admission, warm-started from a donor.

        The elastic admission protocol's compressor half: the joiner's
        error-feedback residual starts at zero (its unsent history is
        empty), while state that is *shared* across workers — Power-SGD's
        reused query, ACP-SGD's alternating factors — is copied from the
        donor survivor, the in-process equivalent of broadcasting it. A
        rejoining rank's stale pre-ejection state is replaced, not resumed:
        its residual describes gradients that no longer exist.
        """
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
    ) -> NamedGrads:
        """Aggregate one step's gradients; returns the shared global gradient.

        Runs the whole staged protocol at once over every bucket of the
        gradients' layout (plain dicts are adopted into a one-bucket layout
        first, see :func:`_adopt`). ``order`` defaults to reverse layout
        order — the order backward would have produced the buckets — but
        any permutation yields bit-identical results.
        """
        self.begin_buckets(_adopt(per_worker_grads, len(self.roster)))
        if order is None:
            order = range(len(self._bucket_state().buckets) - 1, -1, -1)
        for index in order:
            self.reduce_bucket(index)
        return self.finish_buckets()

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
        self._reduce(session, index)

    def finish_buckets(self) -> NamedGrads:
        """Complete the step; every bucket must have been reduced.

        Returned tensors are read-only views, valid until the next
        aggregation begins (S-SGD's point into worker 0's reduced slab).
        """
        session = self._bucket_state()
        missing = [i for i, done in enumerate(session.done) if not done]
        if missing:
            raise RuntimeError(
                f"finish_buckets called with unreduced buckets {missing}"
            )
        self._bucket_session = None
        return self._finish(session)

    def _bucket_state(self) -> _BucketSession:
        session = self._bucket_session
        if session is None:
            raise RuntimeError(
                "reduce_bucket/finish_buckets called without begin_buckets"
            )
        return session

    # What a method supplies. ``session.slabs`` hold the gradients; a
    # method that compresses the whole vector at once leaves ``_begin`` and
    # ``_reduce`` empty and works in ``_finish``, when every bucket is in.
    def _begin(self, session: _BucketSession) -> None:
        """Attach the method's per-step scratch to a freshly opened session."""

    def _reduce(self, session: _BucketSession, index: int) -> None:
        """Reduce or stage bucket ``index``, whose gradients are final."""

    def _finish(self, session: _BucketSession) -> NamedGrads:
        """The aggregated gradients, once every bucket has been reduced."""
        raise NotImplementedError

    def _ef_vectors(self, session: _BucketSession) -> List[np.ndarray]:
        """Per-slot vectors a vector-global compressor selects / votes on.

        With error feedback that is the rank's whole-vector residual, into
        which :meth:`_accumulate_bucket` adds the gradients bucket by
        bucket (DGC's local gradient accumulation: no second staging copy
        beside the residual). With EF off it is the slab itself, read-only.
        """
        vectors = []
        for rank, slab in zip(self.roster, session.slabs):
            residual = self._per_rank[rank].residual("fused", session.total)
            vectors.append(slab if residual is None else residual)
        return vectors

    def _accumulate_bucket(self, session: _BucketSession, index: int) -> None:
        """``residual[lo:hi] += slab[lo:hi]`` for every slot (EF on).

        IEEE addition commutes, so the bits equal ``grad + residual``.
        """
        lo, hi = session.buckets[index]
        for vector, slab in zip(session.vectors, session.slabs):
            if vector is not slab:
                vector[lo:hi] += slab[lo:hi]

    def _staging_rows(self, key: str, rows: int, cols: int) -> List[np.ndarray]:
        """Per-slot 1-D staging buffers, allocated once and reused.

        Backed by one grow-only 2-D block per purpose (``key``), so the
        steady-state bucketed hot path stages with zero allocations; the
        block only grows at roster-expansion boundaries.
        """
        block = self._staging_blocks.get(key)
        if block is None or block.shape[0] < rows or block.shape[1] < cols:
            old_rows, old_cols = block.shape if block is not None else (0, 0)
            block = np.zeros((max(rows, old_rows), max(cols, old_cols)))
            self._staging_blocks[key] = block
        return [block[slot, :cols] for slot in range(rows)]

    def _reduce_pack_segment(
        self, rows: List[np.ndarray], lo: int, hi: int, total: int
    ) -> None:
        """Average-reduce ``rows[lo:hi]`` with the monolithic chunk schedule.

        The aggregated values land in every row's segment. Staging rows are
        private to this aggregator; whether the group sums them where they
        live or on fault-checked copies is the group's business.
        """
        if hi == lo:
            return
        ALLOC_STATS.bucket_reduces += 1
        self.group.all_reduce_segment_(
            [row[lo:hi] for row in rows], lo, total, average=True
        )

    def reset(self) -> None:
        """Drop accumulated compressor state (EF residuals, cached factors).

        The trainer's resilience ladder calls this after a skipped step or a
        checkpoint rollback — a residual contaminated by a non-finite
        gradient would otherwise re-poison every subsequent step. Stateless
        aggregators (uncompressed all-reduce) are a no-op; compressors
        without a ``reset`` (unbiased quantizers carry no state between
        steps) are skipped.
        """
        for state in self._per_rank.values():
            reset = getattr(state, "reset", None)
            if reset is not None:
                reset()


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

    def _reduce(self, session: _BucketSession, index: int) -> None:
        lo, hi = session.buckets[index]
        if hi == lo:
            return
        ALLOC_STATS.bucket_reduces += 1
        # Zero-copy: reduce the arena bucket views where they live, with
        # the whole slab's chunk schedule (bit-identical for any bucket
        # partition; destroys the local payloads).
        self.group.all_reduce_segment_(
            [slab[lo:hi] for slab in session.slabs], lo, session.total,
            average=True,
        )

    def _finish(self, session: _BucketSession) -> NamedGrads:
        return _unpack(session.slabs[0], session.template, session.names)


class SignSGDAggregator(GradientAggregator):
    """Sign-SGD with majority vote: all-gather 1-bit signs, vote, rescale.

    Each worker holds its own :class:`SignCompressor` (per-worker EF
    residuals). Gradients are packed into one flat tensor before compression
    ("the gradients are packed together to be compressed and communicated
    for better performance", §III-A). Aggregation **consumes the slabs**
    (see :class:`TopkSGDAggregator`): each ends up holding ``|v|`` of its
    rank's EF-corrected vector, slot 0's the voted result the returned
    read-only views point into.
    """

    method = "signsgd"

    def __init__(
        self,
        group: ProcessGroup,
        use_error_feedback: bool = True,
        validate: bool = False,
    ):
        super().__init__(group)
        self.validate = validate
        self.use_error_feedback = use_error_feedback
        self._init_states()

    def _make_state(self, rank: int) -> SignCompressor:
        return SignCompressor(self.use_error_feedback)

    def _begin(self, session: _BucketSession) -> None:
        session.vectors = self._ef_vectors(session)
        session.bits = [None] * len(session.buckets)

    def _reduce(self, session: _BucketSession, index: int) -> None:
        """Stage the bucket's EF-corrected segment and ship its sign bits.

        Sign bits are *per-element* (``flat >= 0`` does not depend on the
        global scale), so each bucket's 1-bit payload all-gathers as soon
        as the bucket's gradients are ready — Sign-SGD keeps WFBP overlap
        for the bulk of its traffic (scales ride along; they are 4 bytes).
        Only the scalar L1-mean scale is vector-global and waits for
        :meth:`finish_buckets`.
        """
        lo, hi = session.buckets[index]
        ALLOC_STATS.bucket_reduces += 1
        self._accumulate_bucket(session, index)
        packed = [np.packbits(vector[lo:hi] >= 0) for vector in session.vectors]
        session.bits[index] = packed
        if hi > lo:
            self.group.all_gather(packed)

    def _finish(self, session: _BucketSession) -> NamedGrads:
        """Vote on integer bit counts, block by block, into slot 0's slab.

        ``2 * count >= world`` (a tie votes ``+1``) picks ``+-mean_scale``
        out of a two-entry table, as each rank's ``residual -= +-scale``
        does through one block of scratch: the very products ``scale *
        sign`` forms, so the bits are :func:`~repro.compression.signsgd
        .majority_vote_aggregate`'s without a float sign vector.
        """
        # The scale is the L1 mean of the *whole* EF-corrected vector,
        # whatever the bucket partition; |v| goes through the slot's slab,
        # dead storage once its bits are packed (EF off: the vector itself).
        scales = np.array([
            float(np.abs(vector, out=slab).mean()) if session.total else 0.0
            for vector, slab in zip(session.vectors, session.slabs)
        ])
        if self.validate:
            from repro.utils.validation import assert_finite

            assert_finite(scales, "signsgd payload scales")
        mean_scale = float(scales.mean())
        signed = np.array([-1.0, 1.0])  # indexed by a sign bit
        voted, kept = mean_scale * signed, scales[:, None] * signed
        num_slots = len(self.roster)
        majority_at = (num_slots + 1) // 2
        out = session.slabs[0]
        scratch = self._staging_rows(
            "signsgd", 1, max(1, min(_VOTE_BLOCK, session.total))
        )[0]
        for (lo, hi), packed in zip(session.buckets, session.bits):
            for start in range(lo, hi, _VOTE_BLOCK):
                size = min(_VOTE_BLOCK, hi - start)
                first = (start - lo) // 8  # _VOTE_BLOCK is a multiple of 8
                bits = [
                    np.unpackbits(wire[first : first + (size + 7) // 8], count=size)
                    for wire in packed
                ]
                count = np.add.reduce(
                    bits, axis=0, dtype=np.min_scalar_type(num_slots)
                )
                np.take(
                    voted, count >= majority_at,
                    out=out[start : start + size], mode="clip",
                )
                if self.use_error_feedback:
                    # What was not sent stays behind, in place.
                    sent = scratch[:size]
                    for table, vector, bit in zip(kept, session.vectors, bits):
                        np.take(table, bit, out=sent, mode="clip")
                        vector[start : start + size] -= sent
        return _unpack(out, session.template, session.names)


class TopkSGDAggregator(GradientAggregator):
    """Top-k SGD: all-gather (values, indices), sum sparse, average.

    Like :class:`AllReduceAggregator`, aggregation **consumes the slabs**:
    with error feedback each is accumulated into its rank's residual, so
    by :meth:`finish_buckets` it is dead storage — selection scratch, and
    slot 0's then receives the decoded average the returned read-only
    views point into. A steady-state step allocates O(k * world), never
    O(model). With error feedback off the slab still holds the values, so
    the scratch is one staging row and only slot 0's slab is overwritten.
    A slot that skips backward (an ejected worker's stale slab) contributes
    what the last step left there — that scratch, or on slot 0 the last
    average: deterministic, and the same on every worker backend.
    """

    method = "topk"

    def __init__(
        self,
        group: ProcessGroup,
        ratio: float = 0.01,
        selection: str = "exact",
        use_error_feedback: bool = True,
        seed: int = 0,
        validate: bool = False,
    ):
        super().__init__(group)
        self.validate = validate
        self.ratio = ratio
        self.selection = selection
        self.use_error_feedback = use_error_feedback
        self.seed = seed
        self._init_states()

    def _make_state(self, rank: int) -> TopkCompressor:
        return TopkCompressor(
            ratio=self.ratio,
            selection=self.selection,
            use_error_feedback=self.use_error_feedback,
            rng=np.random.default_rng(self.seed + rank),
        )

    def _begin(self, session: _BucketSession) -> None:
        session.vectors = self._ef_vectors(session)

    def _reduce(self, session: _BucketSession, index: int) -> None:
        """Stage the bucket's EF-corrected segment (no communication yet).

        Top-k selection is *vector-global* — one ``k`` and one threshold
        over the whole fused gradient — so nothing can ship until every
        bucket is staged: exactly the §IV observation that top-k
        compression forfeits WFBP overlap.
        """
        ALLOC_STATS.bucket_reduces += 1
        self._accumulate_bucket(session, index)

    def _finish(self, session: _BucketSession) -> NamedGrads:
        # The buckets partition the slab in order: sorted indices split
        # into per-bucket wires at the bucket edges (one bucket: no sort).
        buckets = [(lo, hi) for lo, hi in session.buckets if hi > lo]
        edges = [lo for lo, _ in buckets] + [session.total]
        selections = []
        for rank, vector, slab in zip(self.roster, session.vectors, session.slabs):
            if vector is slab:  # EF off: the slab holds the values to send
                slab = self._staging_rows("topk", 1, session.total)[0]
            idx = self._per_rank[rank].select(vector, slab)
            if len(buckets) > 1:
                idx.sort()
                cuts = np.searchsorted(idx, edges)
            else:
                cuts = (0, idx.size)
            selections.append((idx, vector[idx], cuts))
            if self.use_error_feedback:
                vector[idx] = 0.0  # sent; the rest stays behind, in place
        out = session.slabs[0]
        for b, (lo, hi) in enumerate(buckets):
            # Per-bucket wire format: each rank ships only the (index,
            # value) pairs whose coordinates fall in this bucket.
            payloads = []
            for idx, values, cuts in selections:
                local = idx[cuts[b] : cuts[b + 1]]
                local -= lo  # in place: no later bucket reads this slice
                payloads.append(
                    SparsePayload(local, values[cuts[b] : cuts[b + 1]], hi - lo)
                )
            self.group.all_gather([
                np.concatenate([p.indices.astype(np.float64), p.values])
                for p in payloads
            ])
            sparse_aggregate(
                payloads, (hi - lo,), average=True, validate=self.validate,
                out=out[lo:hi],
            )
        return _unpack(out, session.template, session.names)


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
        super().__init__(group)
        self.ratio = ratio
        self.seed = seed
        self.use_error_feedback = use_error_feedback
        self._init_states()

    def _make_state(self, rank: int) -> RandomKCompressor:
        # Same seed across workers: coordinates agree, payloads align —
        # which also means a joiner derives the shared coordinate set from
        # (seed, step) with no state to synchronize.
        return RandomKCompressor(
            ratio=self.ratio, seed=self.seed,
            use_error_feedback=self.use_error_feedback,
        )

    def _finish(self, session: _BucketSession) -> NamedGrads:
        payloads = []
        for rank, slab in zip(self.roster, session.slabs):
            payloads.append(self._per_rank[rank].compress("fused", slab, self.step))
        reduced = self.group.all_reduce([p.values for p in payloads], average=True)
        dense = np.zeros(payloads[0].num_elements)
        dense[payloads[0].indices] = reduced[0]
        return _unpack(dense, session.template, session.names)


class QSGDAggregator(GradientAggregator):
    """QSGD (extension): all-gather quantized payloads, dequantize, average."""

    method = "qsgd"

    def __init__(self, group: ProcessGroup, num_levels: int = 255, seed: int = 0):
        super().__init__(group)
        self.num_levels = num_levels
        self.seed = seed
        self._init_states()

    def _make_state(self, rank: int) -> QSGDCompressor:
        return QSGDCompressor(
            self.num_levels, rng=np.random.default_rng(self.seed + rank)
        )

    def _finish(self, session: _BucketSession) -> NamedGrads:
        payloads = []
        for rank, slab in zip(self.roster, session.slabs):
            payloads.append(self._per_rank[rank].compress(slab))
        # Wire format: uint8 levels (for s <= 255) + 1 packed sign bit per
        # element, so the measured traffic reflects QSGD's ~9 bits/element.
        wires = []
        for payload in payloads:
            level_bytes = payload.levels.astype(
                np.uint8 if payload.num_levels <= 255 else np.uint32
            ).view(np.uint8)
            sign_bits = np.packbits((payload.signs >= 0).astype(np.uint8))
            wires.append(np.concatenate([level_bytes, sign_bits]))
        self.group.all_gather(wires)
        size = payloads[0].num_elements
        dense = np.zeros(size)
        for payload in payloads:
            dense += QSGDCompressor.decompress(payload, (size,))
        dense /= len(payloads)
        return _unpack(dense, session.template, session.names)


class TernGradAggregator(GradientAggregator):
    """TernGrad (extension): all-gather ternary payloads, dequantize, average.

    Unbiased, so no error feedback; variance is the convergence cost.
    """

    method = "terngrad"

    def __init__(self, group: ProcessGroup, seed: int = 0,
                 clip_sigma: float = 2.5):
        super().__init__(group)
        self.seed = seed
        self.clip_sigma = clip_sigma
        self._init_states()

    def _make_state(self, rank: int):
        from repro.compression.terngrad import TernGradCompressor

        return TernGradCompressor(
            np.random.default_rng(self.seed + rank), self.clip_sigma
        )

    def _finish(self, session: _BucketSession) -> NamedGrads:
        from repro.compression.terngrad import TernGradCompressor

        payloads = []
        for rank, slab in zip(self.roster, session.slabs):
            payloads.append(self._per_rank[rank].compress(slab))
        self.group.all_gather([p.packed for p in payloads])
        size = payloads[0].num_elements
        dense = np.zeros(size)
        for payload in payloads:
            dense += TernGradCompressor.decompress(payload, (size,))
        dense /= len(payloads)
        return _unpack(dense, session.template, session.names)


class _LowRankPlan:
    """What a low-rank step derives from the gradient layout alone.

    The compressible / plain split of every bucket, the P ``(n, r)`` and
    Q ``(m, r)`` factor shapes and the three pack layouts depend only on
    parameter shapes and the target rank, not on the step. Each pack (plain / P / Q)
    orders its blocks by layout order, so every bucket's names cover a
    contiguous pack segment and per-bucket reduction can reuse the
    monolithic pack's chunk schedule.
    """

    def __init__(
        self,
        template: ArenaGrads,
        rank: int,
        compressible: List[str],
        plain: List[str],
    ):
        self.layout = template.layout
        comp_set = set(compressible)
        #: Per bucket: its (compressible, plain) names, in layout order.
        self.bucket_split = [
            (
                [n for n in names if n in comp_set],
                [n for n in names if n not in comp_set],
            )
            for names in self.layout.bucket_names()
        ]
        self.plain_pack = _PackLayout(
            {name: int(template[name].size) for name in plain}, plain
        )
        self.p_shapes: Dict[str, Tuple[int, int]] = {}
        self.q_shapes: Dict[str, Tuple[int, int]] = {}
        for name in compressible:
            n, m = matrix_view_shape(template[name].shape)
            r_eff = min(rank, n, m)
            self.p_shapes[name] = (n, r_eff)
            self.q_shapes[name] = (m, r_eff)
        self.p_pack = _PackLayout(
            {name: n * r for name, (n, r) in self.p_shapes.items()}, compressible
        )
        self.q_pack = _PackLayout(
            {name: m * r for name, (m, r) in self.q_shapes.items()}, compressible
        )


class _LowRankBase(GradientAggregator):
    """Shared plumbing for Power-SGD / ACP-SGD: compressibility and fallbacks.

    A tensor is low-rank compressed only when it is matrix-shaped *and*
    compression actually shrinks it (``n m > (n + m) r``); everything else
    (biases, norm scales, tiny matrices) rides a fused uncompressed ring
    all-reduce, exactly as in the paper's §IV-C. Aggregation **consumes
    slot 0's slab** (see :class:`TopkSGDAggregator`): its compressible
    tensors are overwritten with ``P Q^T``; the other slabs are only read.
    """

    #: The per-rank compressor state class (same constructor for both).
    state_cls: type

    def __init__(
        self,
        group: ProcessGroup,
        rank: int = 4,
        seed: int = 0,
        use_error_feedback: bool = True,
        reuse_query: bool = True,
        validate: bool = False,
    ):
        super().__init__(group)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self._plan: Optional[_LowRankPlan] = None
        self.seed = seed
        self.use_error_feedback = use_error_feedback
        self.reuse_query = reuse_query
        self.validate = validate
        self._init_states()

    def _make_state(self, rank: int):
        # Same seed everywhere: the initial query matrices (Power-SGD) /
        # P0, Q0 factors (ACP-SGD) must agree across ranks.
        return self.state_cls(
            self.rank, self.seed, self.use_error_feedback,
            self.reuse_query, self.validate,
        )

    def _is_compressible(self, shape: Tuple[int, ...]) -> bool:
        if not should_compress(shape):
            return False
        n = shape[0]
        m = 1
        for dim in shape[1:]:
            m *= dim
        r = min(self.rank, n, m)
        return n * m > (n + m) * r

    def _split_names(self, grads: NamedGrads) -> Tuple[List[str], List[str]]:
        compressible = [n for n, g in grads.items() if self._is_compressible(g.shape)]
        comp_set = set(compressible)
        plain = [n for n in grads if n not in comp_set]
        return compressible, plain

    def _layout_plan(self, template: NamedGrads) -> _LowRankPlan:
        """The step-invariant plan for ``template``'s layout, built once.

        A trainer's arena hands in the same layout object every step;
        adopted plain dicts arrive under a fresh layout and rebuild.
        """
        plan = self._plan
        if plan is None or plan.layout is not template.layout:
            plan = self._plan = _LowRankPlan(
                template, self.rank, *self._split_names(template)
            )
        return plan

    def _begin(self, session: _BucketSession) -> None:
        """Stage the shared plain (uncompressed) pack."""
        session.plan = self._layout_plan(session.template)
        session.plain_scratch = self._staging_rows(
            "plain", len(self.roster), max(1, session.plan.plain_pack.total)
        )
        session.result = {}

    def _reduce_plain_bucket(
        self, session: _BucketSession, plain_b: List[str]
    ) -> None:
        """Stage and average-reduce a bucket's uncompressed tensors."""
        if not plain_b:
            return
        pack = session.plan.plain_pack
        lo, hi = pack.segment(plain_b)
        for slot in range(len(self.roster)):
            grads = session.per_worker[slot]
            row = session.plain_scratch[slot]
            for name in plain_b:
                off = pack.offsets[name]
                row[off : off + pack.sizes[name]] = grads[name].reshape(-1)
        self._reduce_pack_segment(session.plain_scratch, lo, hi, pack.total)
        agg = session.plain_scratch[0]
        for name in plain_b:
            off = pack.offsets[name]
            view = agg[off : off + pack.sizes[name]].reshape(
                session.template[name].shape
            )
            view.flags.writeable = False
            session.result[name] = view

    def _pack_view(
        self,
        row: np.ndarray,
        pack: _PackLayout,
        name: str,
        shape: Tuple[int, int],
    ) -> np.ndarray:
        """Read-only matrix view of one named block inside a pack row."""
        off = pack.offsets[name]
        view = row[off : off + pack.sizes[name]].reshape(shape)
        view.flags.writeable = False
        return view

    def _decode_target(self, session: _BucketSession, name: str) -> np.ndarray:
        """Slot 0's storage of ``name`` as the matrix ``P Q^T`` is written to.

        Every slot's gradient of ``name`` is in its rank's residual (EF off:
        in its projection) by the time the factor is reduced, so slot 0's
        is dead storage; the step's result is a read-only view of it.
        """
        target = session.per_worker[0][name]
        view = target.view()
        view.flags.writeable = False
        session.result[name] = view
        return grad_to_matrix(target)

    def _finish(self, session: _BucketSession) -> NamedGrads:
        return {name: session.result[name] for name in session.template}


class PowerSGDAggregator(_LowRankBase):
    """Power-SGD: all-reduce P, orthogonalize, all-reduce Q, reconstruct.

    P-factors of all compressible tensors are batched into one fused
    all-reduce, then Q-factors into another — two blocking collectives per
    step (the structure Fig. 4(a) shows).
    """

    method = "powersgd"
    state_cls = PowerSGDState

    def _begin(self, session: _BucketSession) -> None:
        super()._begin(session)
        num_slots = len(self.roster)
        session.p_scratch = self._staging_rows(
            "powersgd_p", num_slots, max(1, session.plan.p_pack.total)
        )
        session.q_scratch = self._staging_rows(
            "powersgd_q", num_slots, max(1, session.plan.q_pack.total)
        )

    def _reduce(self, session: _BucketSession, index: int) -> None:
        """Full Power-SGD round for one bucket as its gradients land.

        Per bucket: plain tensors reduce uncompressed, then the blocking
        ``P-reduce -> orthogonalize -> Q-reduce -> reconstruct`` chain runs
        on the bucket's segment of the global P/Q packs. The P collective
        still blocks the Q computation *within* the bucket (the §III-C
        structure), but bucketing lets later buckets start as soon as their
        gradients exist. Every rank adopts the aggregated Q (query reuse);
        ``P_hat Q^T`` is identical on all of them, so only slot 0 forms it.
        """
        comp_b, plain_b = session.plan.bucket_split[index]
        self._reduce_plain_bucket(session, plain_b)
        if not comp_b:
            return
        plan = session.plan
        p_pack, q_pack = plan.p_pack, plan.q_pack
        plo, phi = p_pack.segment(comp_b)
        for slot, rank_idx in enumerate(self.roster):
            state = self._per_rank[rank_idx]
            grads = session.per_worker[slot]
            row = session.p_scratch[slot]
            for name in comp_b:
                p_local = state.compute_p(name, grad_to_matrix(grads[name]))
                off = p_pack.offsets[name]
                row[off : off + p_pack.sizes[name]] = p_local.reshape(-1)
        self._reduce_pack_segment(session.p_scratch, plo, phi, p_pack.total)
        qlo, qhi = q_pack.segment(comp_b)
        lead = self._per_rank[self.roster[0]]
        for slot, rank_idx in enumerate(self.roster):
            state = self._per_rank[rank_idx]
            row = session.q_scratch[slot]
            for name in comp_b:
                p_agg = self._pack_view(
                    session.p_scratch[0], p_pack, name, plan.p_shapes[name]
                )
                # One QR of the aggregated P per tensor: slot 0's.
                q_local = state.compute_q(name, p_agg, lead if slot else None)
                off = q_pack.offsets[name]
                row[off : off + q_pack.sizes[name]] = q_local.reshape(-1)
        self._reduce_pack_segment(session.q_scratch, qlo, qhi, q_pack.total)
        for name in comp_b:
            q_agg = self._pack_view(
                session.q_scratch[0], q_pack, name, plan.q_shapes[name]
            )
            for rank_idx in self.roster[1:]:
                self._per_rank[rank_idx].store_query(name, q_agg)
            lead.reconstruct(name, q_agg, out=self._decode_target(session, name))


class ACPSGDAggregator(_LowRankBase):
    """ACP-SGD: a single fused all-reduce of the alternating factor."""

    method = "acpsgd"
    state_cls = ACPSGDState

    def _begin(self, session: _BucketSession) -> None:
        super()._begin(session)
        # The factor alternates with step parity: P=(n, r) on odd steps,
        # Q=(m, r) on even steps — fixed for the whole session because every
        # bucket shares this step's parity.
        plan = session.plan
        if ACPSGDState.compresses_p(self.step):
            session.factor_pack, session.f_shapes = plan.p_pack, plan.p_shapes
        else:
            session.factor_pack, session.f_shapes = plan.q_pack, plan.q_shapes
        session.factor_scratch = self._staging_rows(
            "acpsgd_f", len(self.roster), max(1, session.factor_pack.total)
        )

    def _reduce(self, session: _BucketSession, index: int) -> None:
        """One fused-factor round for the bucket as its gradients land.

        ACP-SGD's single alternating-factor all-reduce is the cheapest of
        the low-rank schedules (§IV-C), and it buckets cleanly: each bucket
        compresses, reduces its contiguous segment of the factor pack, and
        reconstructs immediately. Every rank adopts the aggregated factor
        (the next step orthogonalizes it); ``P_t Q_t^T`` is identical on
        all of them, so only slot 0 forms it.
        """
        comp_b, plain_b = session.plan.bucket_split[index]
        self._reduce_plain_bucket(session, plain_b)
        if not comp_b:
            return
        pack = session.factor_pack
        lo, hi = pack.segment(comp_b)
        lead = self._per_rank[self.roster[0]]
        for slot, rank_idx in enumerate(self.roster):
            state = self._per_rank[rank_idx]
            grads = session.per_worker[slot]
            row = session.factor_scratch[slot]
            for name in comp_b:
                # One QR of the carried factor per tensor: slot 0's.
                factor = state.compress(
                    name, grad_to_matrix(grads[name]), self.step,
                    lead if slot else None,
                )
                off = pack.offsets[name]
                row[off : off + pack.sizes[name]] = factor.reshape(-1)
        self._reduce_pack_segment(session.factor_scratch, lo, hi, pack.total)
        for name in comp_b:
            agg = self._pack_view(
                session.factor_scratch[0], pack, name, session.f_shapes[name]
            )
            for rank_idx in self.roster[1:]:
                self._per_rank[rank_idx].store_factor(name, agg, self.step)
            lead.finalize(
                name, agg, self.step, out=self._decode_target(session, name)
            )


def make_aggregator(
    method: str, group: ProcessGroup, **kwargs
) -> GradientAggregator:
    """Factory by method name: ssgd/signsgd/topk/randomk/qsgd/powersgd/acpsgd."""
    from repro.optim.dgc import DGCTopkAggregator

    registry = {
        "ssgd": AllReduceAggregator,
        "signsgd": SignSGDAggregator,
        "topk": TopkSGDAggregator,
        "randomk": RandomKAggregator,
        "qsgd": QSGDAggregator,
        "terngrad": TernGradAggregator,
        "powersgd": PowerSGDAggregator,
        "acpsgd": ACPSGDAggregator,
        "dgc": DGCTopkAggregator,
    }
    cls = registry.get(method)
    if cls is None:
        raise ValueError(
            f"unknown method {method!r}; available: {', '.join(sorted(registry))}"
        )
    return cls(group, **kwargs)
