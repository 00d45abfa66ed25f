"""Windowed, store-mediated gossip training with Byzantine peers.

This is the open-membership counterpart of
:class:`~repro.train.trainer.DataParallelTrainer`: there is no process
group, no lockstep collective, and no trusted roster. Each peer

1. runs ``local_steps`` SGD passes on its own data stream, folding the
   lr-scaled gradients into a local *momentum* buffer (the templar-style
   scheme: ``m <- decay * m + lr * g``);
2. top-k compresses the flat momentum, subtracts the transmitted part
   (error feedback — the untransmitted mass stays in the buffer and is
   retried next window), and publishes the sparse update as a
   CRC-stamped, self-describing payload
   (:func:`~repro.compression.payload.pack_payload`) to the shared
   :class:`~repro.gossip.store.UpdateStore` under ``(window, peer_id)``;
3. fetches whatever the store holds for the closing window, screens every
   contribution through its own :class:`~repro.gossip.scorer.PeerScorer`
   (integrity, staleness, norm plausibility, direction), and applies the
   staleness-weighted trust-weighted mean of the survivors to its model.

Honest peers start from the same seeded init and see the same store
contents, so — the scorer being deterministic — their models evolve
bit-identically *without any synchronization primitive*. Adversarial
behaviour is injected at publish time from the run's seeded
:class:`~repro.faults.plan.FaultPlan` (``peer_faults``), and churn
(``permanent`` / ``recoveries`` / ``joins`` with ``call_index`` read as a
window index) flows through the donor-less admission path
(:mod:`repro.gossip.open_admission`): joiners and returning peers replay
the retained store windows instead of receiving a state broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.compression.payload import (
    PayloadFormatError,
    pack_payload,
    unpack_payload,
)
from repro.compression.topk import SparsePayload, sparse_aggregate, topk_select
from repro.compression.wire import select_count
from repro.faults.plan import FaultPlan, Join
from repro.gossip.faulty import StoreUnavailableError
from repro.gossip.open_admission import allocate_peer_index, catch_up_plan
from repro.gossip.scorer import Contribution, PeerScorer, ScorerConfig
from repro.gossip.store import InMemoryStore, UpdateStore
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module
from repro.perf.arena import ArenaLayout, GradientArena
from repro.perf.replicas import worker_pass
from repro.train.datasets import ArrayDataset
from repro.train.trainer import evaluate
from repro.utils.seeding import rank_rng

#: Seed-tuple sentinel for publish-time adversarial draws (bit flips).
_PEER_FAULT_STREAM = 2**31 - 5
#: Per-step momentum decay (templar's ``momentum_decay``).
MOMENTUM_DECAY = 0.9


@dataclass(frozen=True)
class GossipConfig:
    """Hyper-parameters of the windowed exchange.

    Attributes:
        local_steps: SGD passes a peer runs per window before publishing.
        batch_size: samples per local pass.
        lr: learning rate folded into the momentum buffer.
        compression_ratio: fraction of momentum coordinates published
            (top-k over the flat buffer).
        store_retention: windows kept in the store (``None`` = keep all,
            which lets joiners replay to bit-identity; a finite retention
            bounds the footprint but makes late joins approximate).
        scorer: screening thresholds and trust dynamics.
    """

    local_steps: int = 2
    batch_size: int = 16
    lr: float = 0.05
    compression_ratio: float = 0.05
    store_retention: Optional[int] = None
    scorer: ScorerConfig = field(default_factory=ScorerConfig)

    def __post_init__(self) -> None:
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ValueError(
                f"compression_ratio must be in (0, 1], "
                f"got {self.compression_ratio}"
            )
        if self.store_retention is not None and self.store_retention < 1:
            raise ValueError(
                f"store_retention must be >= 1 or None, "
                f"got {self.store_retention}"
            )


def decode_update(
    peer_id: str, blob: bytes, num_elements: int
) -> Contribution:
    """Verify and densify one fetched payload into a :class:`Contribution`.

    Never raises: every failure mode is folded into ``decode_error`` with
    the offence class the scorer should book (``"corrupt-payload"`` for
    integrity failures, ``"metadata"`` for geometry lies).
    """
    try:
        arrays, meta = unpack_payload(blob)
    except PayloadFormatError as exc:
        return Contribution(peer_id, decode_error=f"corrupt-payload: {exc}")
    indices = arrays.get("indices")
    values = arrays.get("values")
    if indices is None or values is None:
        return Contribution(
            peer_id, decode_error="metadata: missing indices/values arrays"
        )
    window = meta.get("window")
    declared = meta.get("num_elements")
    if not isinstance(window, int) or not isinstance(declared, int):
        return Contribution(
            peer_id, decode_error="metadata: missing window/num_elements"
        )
    if declared != num_elements:
        return Contribution(
            peer_id,
            decode_error=(
                f"metadata: declares {declared} elements, "
                f"model has {num_elements}"
            ),
        )
    if (indices.ndim != 1 or values.ndim != 1
            or indices.shape != values.shape
            or indices.dtype.kind not in "iu"
            or values.dtype.kind != "f"):
        return Contribution(
            peer_id, decode_error="metadata: malformed sparse arrays"
        )
    if indices.size and (
        int(indices.min()) < 0 or int(indices.max()) >= num_elements
    ):
        return Contribution(
            peer_id, decode_error="metadata: indices out of range"
        )
    payload = SparsePayload(
        indices.astype(np.int64, copy=False), values, num_elements
    )
    dense = sparse_aggregate([payload], (num_elements,), average=False)
    return Contribution(peer_id, update=dense, stamped_window=window)


class GossipPeer:
    """One participant: model replica, momentum buffer, trust state.

    The model's gradients live in a one-slot
    :class:`~repro.perf.arena.GradientArena`: backward writes them into
    its slab, the momentum update reads them there, and the slab is
    free again until the next backward.
    """

    def __init__(
        self,
        peer_id: str,
        index: int,
        model: Module,
        config: GossipConfig,
        data: ArrayDataset,
        seed: int,
    ):
        self.peer_id = peer_id
        self.index = index
        self.model = model
        self.arena = GradientArena(model, 1)
        self.arena.bind(model, 0)
        self.layout = self.arena.layout
        self.config = config
        self.data = data
        # The closed-world trainer's per-rank stream: a pure function of
        # (seed, index), independent of when the peer joined.
        self.rng = rank_rng(seed, index)
        self.loss_fn = CrossEntropyLoss()
        self.scorer = PeerScorer(config.scorer)
        self.momentum = np.zeros(self.layout.total_elements, self.layout.dtype)
        self.joined_window = 0
        #: Next window this peer still needs to score & apply. Advanced by
        #: the live loop and by store replay; never rewound, so every
        #: (scorer, window) pair is screened exactly once even across a
        #: departure-and-return.
        self.next_window = 0
        self.losses: List[float] = []

    # -- local compute -------------------------------------------------
    def local_window(self) -> float:
        """Run the window's local passes; returns the mean local loss."""
        cfg = self.config
        gradients = self.arena.slab(0)
        losses = []
        for _ in range(cfg.local_steps):
            losses.append(worker_pass(
                self.model, self.loss_fn, self.data, self.rng, cfg.batch_size
            ))
            self.momentum *= MOMENTUM_DECAY
            self.momentum += cfg.lr * gradients
        loss = float(np.mean(losses))
        self.losses.append(loss)
        return loss

    def make_update(self, window: int) -> bytes:
        """Top-k compress the momentum; subtract the transmitted part.

        The untransmitted mass stays in the buffer (error feedback), so
        coordinates below this window's cut keep accumulating until they
        earn a slot — templar's ``prepare_gradient_dict`` scheme on a
        flat buffer.
        """
        total = self.layout.total_elements
        k = select_count(self.config.compression_ratio, total)
        # The slab's gradients are in the momentum already: it is scratch.
        indices = np.sort(topk_select(self.momentum, k, self.arena.slab(0)))
        values = self.momentum[indices]
        self.momentum[indices] = 0.0
        return self.payload(window, indices, values)

    def payload(
        self, window: int, indices: np.ndarray, values: np.ndarray
    ) -> bytes:
        """This peer's sparse update for ``window`` as it is published."""
        meta = {
            "peer": self.peer_id,
            "window": int(window),
            "num_elements": int(self.layout.total_elements),
            "norm": float(np.linalg.norm(values)),
        }
        return pack_payload(
            {"indices": indices.astype(np.int64), "values": values}, meta
        )

    def absorb_window(
        self, window: int, contributions: List[Contribution]
    ) -> None:
        """Screen ``window``'s contributions, descend along the weighted
        mean of the survivors, and mark the window done."""
        weights = self.scorer.weigh_window(window, contributions)
        aggregated = _weighted_mean(contributions, weights, self.layout)
        if aggregated is not None:
            self.apply(aggregated)
        self.next_window = window + 1

    def apply(self, aggregated: np.ndarray) -> None:
        """Descend along the aggregated (already lr-scaled) update."""
        steps = self.layout.carve(aggregated)
        for name, param in self.model.named_parameters():
            param.data -= steps[name]

    def state_vector(self) -> np.ndarray:
        return self.model.state_vector()


@dataclass
class GossipReport:
    """Outcome of one gossip run."""

    windows: int
    window_losses: List[float] = field(default_factory=list)
    quarantined: Dict[str, int] = field(default_factory=dict)
    offence_counts: Dict[str, int] = field(default_factory=dict)
    membership: List[str] = field(default_factory=list)
    final_accuracy: float = 0.0

    def render(self) -> str:
        lines = [
            f"windows run           {self.windows}",
            f"final honest accuracy {self.final_accuracy:.1%}",
        ]
        if self.window_losses:
            lines.append(
                f"honest loss           {self.window_losses[0]:.3f} -> "
                f"{self.window_losses[-1]:.3f}"
            )
        if self.quarantined:
            quarantines = ", ".join(
                f"{peer}@w{window}"
                for peer, window in sorted(self.quarantined.items())
            )
            lines.append(f"quarantined           {quarantines}")
        else:
            lines.append("quarantined           none")
        if self.offence_counts:
            offences = ", ".join(
                f"{kind}:{count}"
                for kind, count in sorted(self.offence_counts.items())
            )
            lines.append(f"offences              {offences}")
        for event in self.membership:
            lines.append(f"membership            {event}")
        return "\n".join(lines)


class GossipCluster:
    """Drives every peer of a seeded gossip run window by window.

    The cluster is a *simulation harness*, not a coordinator: peers only
    ever interact through the store, and the per-peer logic
    (:class:`GossipPeer` + its scorer) never reads another peer's state.
    Adversarial publish-time mutations and churn come from ``plan``.

    Args:
        model_factory: zero-argument callable building one model replica;
            must be deterministic (same weights every call) — founders
            and joiners alike start from this state.
        train_data / test_data: the shared task. Peers sample the full
            training set with per-peer seeded streams (open membership
            has no shard coordination).
        config: window hyper-parameters.
        plan: seeded fault plan; ``peer_faults`` drive adversarial
            publishing, ``permanent`` / ``recoveries`` / ``joins``
            (``call_index`` = window) drive churn.
        peers: founding roster size.
        store: defaults to a fresh :class:`InMemoryStore`.
        seed: root seed for the per-peer data streams.
    """

    def __init__(
        self,
        model_factory,
        train_data: ArrayDataset,
        test_data: ArrayDataset,
        config: Optional[GossipConfig] = None,
        plan: Optional[FaultPlan] = None,
        peers: int = 4,
        store: Optional[UpdateStore] = None,
        seed: int = 0,
    ):
        if peers < 2:
            raise ValueError(f"need >= 2 founding peers, got {peers}")
        self.model_factory = model_factory
        self.train_data = train_data
        self.test_data = test_data
        self.config = config if config is not None else GossipConfig()
        self.plan = plan if plan is not None else FaultPlan()
        self.store = store if store is not None else InMemoryStore()
        self.seed = seed
        #: Length of the flat update every peer publishes and decodes.
        self.num_elements = model_factory().num_parameters()
        self.peers: Dict[str, GossipPeer] = {}
        self._active: Dict[str, bool] = {}
        self._membership_events: List[str] = []
        self._decoded: Dict[int, List[Contribution]] = {}
        self._window = 0
        for index in range(peers):
            self._spawn_peer(index, window=0)
        unseen = [
            fault.rank for fault in self.plan.peer_faults if fault.rank >= peers
        ]
        if unseen:
            raise ValueError(
                f"peer_faults name ranks {sorted(set(unseen))} outside the "
                f"founding roster of {peers}"
            )

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _peer_id(self, index: int) -> str:
        return f"peer-{index:03d}"

    def _spawn_peer(self, index: int, window: int) -> GossipPeer:
        peer = GossipPeer(
            self._peer_id(index),
            index,
            self.model_factory(),
            self.config,
            self.train_data,
            self.seed,
        )
        peer.joined_window = window
        self.peers[peer.peer_id] = peer
        self._active[peer.peer_id] = True
        return peer

    def _catch_up(self, peer: GossipPeer, upto_window: int) -> bool:
        """Replay retained store windows into a (re)joining peer.

        Returns True when the replay was gap-free back to the peer's last
        scored window (``next_window``) — a fresh joiner with a full store
        lands bit-identical to the veterans, with no donor broadcast. A
        returning peer resumes from where it left off, so every
        (scorer, window) pair is screened exactly once.
        """
        schedule = catch_up_plan(self.store.windows(), upto_window)
        missing = [
            window for window in schedule.windows
            if window >= peer.next_window
        ]
        complete = missing == list(range(peer.next_window, upto_window))
        for window in missing:
            peer.absorb_window(window, self._decode_window(window))
        peer.next_window = max(peer.next_window, upto_window)
        return complete

    def _commit_membership(self, window: int) -> None:
        """Apply churn due at ``window``: departures, returns, joins."""
        for peer_id in sorted(self.peers):
            peer = self.peers[peer_id]
            down = self.plan.permanently_down(peer.index, window)
            if down and self._active[peer_id]:
                self._active[peer_id] = False
                self._membership_events.append(
                    f"window {window}: {peer_id} departed"
                )
            elif not down and not self._active[peer_id]:
                complete = self._catch_up(peer, window)
                self._active[peer_id] = True
                self._membership_events.append(
                    f"window {window}: {peer_id} returned "
                    f"({'complete' if complete else 'partial'} store replay)"
                )
        for event in self.plan.membership_events():
            if isinstance(event, Join) and event.call_index == window:
                index = allocate_peer_index(
                    [peer.index for peer in self.peers.values()]
                )
                peer = self._spawn_peer(index, window)
                complete = self._catch_up(peer, window)
                self._membership_events.append(
                    f"window {window}: {peer.peer_id} joined "
                    f"({'complete' if complete else 'partial'} store replay)"
                )

    def active_peers(self) -> List[GossipPeer]:
        return [
            self.peers[peer_id]
            for peer_id in sorted(self.peers)
            if self._active[peer_id]
        ]

    def honest_peers(self) -> List[GossipPeer]:
        adversarial = self.plan.adversarial_ranks()
        return [
            peer for peer in self.active_peers()
            if peer.index not in adversarial
        ]

    # ------------------------------------------------------------------
    # The window loop
    # ------------------------------------------------------------------
    def _publish(self, peer: GossipPeer, window: int) -> None:
        """Honest publish, bent by any scheduled peer faults."""
        faults = {
            fault.kind: fault
            for fault in self.plan.peer_faults_at(peer.index, window)
        }
        if "free-rider" in faults:
            # Skips its local compute entirely and uploads a zero update.
            blob = peer.payload(
                window, np.zeros(0, dtype=np.int64), np.zeros(0)
            )
            self.store.publish(window, peer.peer_id, blob)
            return
        peer.local_window()
        if "lagging" in faults:
            lag = faults["lagging"].lag
            stale_window = window - lag
            if stale_window < peer.joined_window:
                return  # nothing old enough to upload yet
            # A lagging pipeline: the upload arrives in the live window
            # but is stamped with the window it was computed for, `lag`
            # windows back — the stamp is what the staleness screen sees.
            blob = peer.make_update(stale_window)
            self.store.publish(window, peer.peer_id, blob)
            return
        blob = peer.make_update(window)
        if "sign-flip" in faults:
            arrays, meta = unpack_payload(blob)
            arrays["values"] = -arrays["values"]
            blob = pack_payload(arrays, meta)
        if "corrupt-payload" in faults:
            rng = np.random.default_rng(
                (self.plan.seed, window, peer.index, _PEER_FAULT_STREAM)
            )
            raw = bytearray(blob)
            bit = int(rng.integers(len(raw) * 8))
            raw[bit // 8] ^= 1 << (bit % 8)
            blob = bytes(raw)
        self.store.publish(window, peer.peer_id, blob)

    def _decode_window(self, window: int) -> List[Contribution]:
        """Decode (once) everything the store holds for ``window``.

        A store outage (:class:`~repro.gossip.faulty.StoreUnavailableError`)
        decodes as an *empty* window — every peer simply coasts on its
        local momentum, exactly as if nobody had published — rather than
        killing the run. The empty decode is cached: within one window
        the store's fate is a single fact, not a per-peer retry.
        """
        if window not in self._decoded:
            try:
                fetched = self.store.fetch(window)
            except StoreUnavailableError:
                fetched = {}
            self._decoded[window] = [
                decode_update(peer_id, blob, self.num_elements)
                for peer_id, blob in fetched.items()
            ]
        return self._decoded[window]

    def run_window(self) -> float:
        """One full window: churn, publish, screen, aggregate, apply.

        Returns the mean honest local loss of the window.
        """
        window = self._window
        self._window += 1
        self._commit_membership(window)
        active = self.active_peers()
        if not active:
            raise RuntimeError(f"window {window}: no active peer left")
        for peer in active:
            try:
                self._publish(peer, window)
            except StoreUnavailableError:
                # The PUT failed; the peer's local step still happened.
                # Other peers see an absence — the same face a dropped
                # publish or a churned-out peer shows.
                continue
        contributions = self._decode_window(window)
        for peer in active:
            peer.absorb_window(window, contributions)
        if self.config.store_retention is not None:
            horizon = window + 1 - self.config.store_retention
            self.store.gc(horizon)
            for stale in [w for w in self._decoded if w < horizon]:
                del self._decoded[stale]
        honest = self.honest_peers()
        pool = honest if honest else active
        losses = [peer.losses[-1] for peer in pool if peer.losses]
        return float(np.mean(losses)) if losses else float("nan")

    def run(self, windows: int) -> GossipReport:
        """Run ``windows`` windows; returns the accounting report."""
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        report = GossipReport(windows=windows)
        for _ in range(windows):
            report.window_losses.append(self.run_window())
        reference = self.reference_peer()
        report.final_accuracy = evaluate(reference.model, self.test_data)
        scorer = reference.scorer
        for peer_id in scorer.quarantined_peers():
            record = scorer.records[peer_id]
            report.quarantined[peer_id] = int(record.quarantined_window)
        for offence in scorer.offences:
            report.offence_counts[offence.kind] = (
                report.offence_counts.get(offence.kind, 0) + 1
            )
        report.membership = list(self._membership_events)
        return report

    def reference_peer(self) -> GossipPeer:
        """Lowest-index active honest peer (the report's viewpoint)."""
        honest = self.honest_peers()
        if honest:
            return honest[0]
        active = self.active_peers()
        if not active:
            raise RuntimeError("no active peer to report from")
        return active[0]


def _weighted_mean(
    contributions: List[Contribution],
    weights: Dict[str, float],
    layout: ArenaLayout,
) -> Optional[np.ndarray]:
    """Staleness/trust-weighted mean of the surviving dense updates, in the
    receiving model's dtype."""
    total_weight = 0.0
    accumulator = np.zeros(layout.total_elements, layout.dtype)
    for contribution in contributions:
        weight = float(weights.get(contribution.peer_id, 0.0))
        if weight <= 0.0 or contribution.update is None:
            continue
        accumulator += weight * contribution.update
        total_weight += weight
    if total_weight <= 0.0:
        return None
    return accumulator / total_weight
