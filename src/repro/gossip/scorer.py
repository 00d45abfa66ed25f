"""Peer validation and scoring for open-membership gossip training.

Every update fetched from the store comes from an *untrusted* peer, so
before anything is averaged into the model each contribution runs a
four-layer screen:

1. **Integrity** — the self-describing payload must decode and pass its
   CRC stamps (:mod:`repro.compression.payload`), carry the expected
   model geometry, and expand to an all-finite dense update. Failures
   here are attributed to the publishing peer via its store key.
2. **Staleness** — the update's stamped window is compared to the
   current one. Mildly stale updates are *down-weighted* (half-life
   decay); updates older than ``max_lag`` windows — the signature of a
   lagging or replaying peer — are excluded and counted as an offence.
3. **Norm plausibility** — a contribution whose norm is a tiny fraction
   of the window's median is a free-rider (publishing zeros costs
   nothing and dilutes the average); one that dwarfs the median is a
   blow-up or an amplification attack. Both are excluded.
4. **Direction** — the classic Byzantine sign-flip survives every check
   above (valid CRC, plausible norm), so each contribution is compared
   against the mean of the *other* surviving contributions: a strongly
   negative cosine means the peer is pushing against the crowd and is
   excluded. With an honest majority the crowd direction is honest, so
   the flipped peer — not the honest ones — fails the test.

Per-peer trust evolves as an exponential moving average of clean/offence
outcomes: offences drag the score down geometrically, clean windows let
it recover, and a score below :data:`QUARANTINE_THRESHOLD` quarantines
the peer permanently — its updates are dropped unread from then on.
Starting from a clean score of 1.0, a persistent attacker is quarantined
within ``ceil(log(threshold) / log(1 - SCORE_ALPHA))`` windows (3), which
is the bound the acceptance tests assert.

Everything is deterministic: no wall clocks, no unseeded draws, and all
iteration in sorted-peer order — two honest peers screening the same
window compute bit-identical weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.utils.validation import is_finite

#: Offence kinds a contribution can be excluded for.
OFFENCE_KINDS = (
    "corrupt-payload",
    "metadata",
    "non-finite",
    "time-travel",
    "lagging",
    "free-rider",
    "norm-blowup",
    "sign-flip",
)

#: EMA step toward each window's outcome (1 = offence-free, 0 = offence).
SCORE_ALPHA = 0.5
#: A score below this quarantines the peer permanently.
QUARANTINE_THRESHOLD = 0.2
#: Contributions with norm below ``FREE_RIDER_FLOOR * median`` are
#: excluded as free-riders, above ``NORM_CEILING * median`` as blow-ups.
FREE_RIDER_FLOOR = 0.01
NORM_CEILING = 100.0
#: Contributions whose cosine against the mean of the other survivors
#: falls below this are excluded as sign-flips. Negative: honest peers on
#: different data shards decorrelate, so only active opposition is punished.
COSINE_FLOOR = -0.1


@dataclass(frozen=True)
class ScorerConfig:
    """The staleness screen's settings (the other thresholds are the
    module constants above).

    Attributes:
        staleness_half_life: lag in windows at which a stale update's
            weight halves.
        max_lag: updates stamped more than this many windows ago are
            excluded (and count as a ``"lagging"`` offence).
    """

    staleness_half_life: float = 2.0
    max_lag: int = 3

    def __post_init__(self) -> None:
        if self.staleness_half_life <= 0:
            raise ValueError(
                f"staleness_half_life must be > 0, "
                f"got {self.staleness_half_life}"
            )
        if self.max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {self.max_lag}")

    @property
    def quarantine_windows_bound(self) -> int:
        """Max offending windows before a clean-history peer is quarantined."""
        return math.ceil(math.log(QUARANTINE_THRESHOLD) / math.log(1.0 - SCORE_ALPHA))


@dataclass
class Contribution:
    """One peer's fetched update for a window, as handed to the scorer.

    ``update`` is the dense decompressed update (``None`` when decoding
    failed); ``decode_error`` carries the integrity failure, already
    classified as ``"corrupt-payload"`` / ``"metadata"`` by the decoder.
    ``stamped_window`` is the window the *payload* claims it was computed
    for, which a lagging peer stamps honestly in the past.
    """

    peer_id: str
    update: Optional[np.ndarray] = None
    stamped_window: Optional[int] = None
    decode_error: Optional[str] = None


@dataclass(frozen=True)
class Offence:
    """One excluded contribution (the scorer's audit-log entry)."""

    window: int
    peer_id: str
    kind: str
    detail: str = ""


@dataclass
class PeerRecord:
    """Trust state for one peer id."""

    score: float = 1.0
    clean_windows: int = 0
    offence_windows: int = 0
    quarantined_window: Optional[int] = None

    @property
    def quarantined(self) -> bool:
        return self.quarantined_window is not None


class PeerScorer:
    """Screens windowed contributions and maintains per-peer trust."""

    def __init__(self, config: Optional[ScorerConfig] = None):
        self.config = config if config is not None else ScorerConfig()
        self.records: Dict[str, PeerRecord] = {}
        self.offences: List[Offence] = []

    # ------------------------------------------------------------------
    # Trust bookkeeping
    # ------------------------------------------------------------------
    def record(self, peer_id: str) -> PeerRecord:
        """The peer's trust record, created clean on first sight."""
        if peer_id not in self.records:
            self.records[peer_id] = PeerRecord()
        return self.records[peer_id]

    def is_quarantined(self, peer_id: str) -> bool:
        record = self.records.get(peer_id)
        return record is not None and record.quarantined

    def quarantined_peers(self) -> List[str]:
        return sorted(
            peer for peer, record in self.records.items() if record.quarantined
        )

    # ------------------------------------------------------------------
    # The window screen
    # ------------------------------------------------------------------
    def weigh_window(
        self, window: int, contributions: List[Contribution]
    ) -> Dict[str, float]:
        """Screen one window's contributions; returns aggregation weights.

        Weights are ``score * staleness_decay`` for surviving
        contributions and ``0.0`` for excluded or quarantined ones —
        callers can aggregate with a straight weighted mean over the
        returned mapping. Trust records are updated as a side effect, so
        call this exactly once per (scorer, window).
        """
        cfg = self.config
        offenders: Dict[str, str] = {}
        lags: Dict[str, int] = {}
        survivors: Dict[str, Contribution] = {}

        ordered = sorted(contributions, key=lambda c: c.peer_id)
        for contribution in ordered:
            peer = contribution.peer_id
            if self.is_quarantined(peer):
                continue  # dropped unread; no further offence accounting
            kind = self._structural_offence(contribution)
            if kind is None:
                lag = window - int(contribution.stamped_window)
                if lag < 0:
                    kind = "time-travel"
                elif lag > cfg.max_lag:
                    kind = "lagging"
                else:
                    lags[peer] = lag
            if kind is not None:
                offenders[peer] = kind
            else:
                survivors[peer] = contribution

        self._norm_screen(survivors, offenders)
        self._direction_screen(survivors, offenders)

        weights: Dict[str, float] = {}
        seen = set()
        for contribution in ordered:
            peer = contribution.peer_id
            if peer in seen:
                continue
            seen.add(peer)
            if self.is_quarantined(peer):
                weights[peer] = 0.0
                continue
            record = self.record(peer)
            if peer in offenders:
                self.offences.append(
                    Offence(window, peer, offenders[peer])
                )
                record.offence_windows += 1
                record.score = (1.0 - SCORE_ALPHA) * record.score
                weights[peer] = 0.0
                if record.score < QUARANTINE_THRESHOLD:
                    record.quarantined_window = window
            else:
                record.clean_windows += 1
                record.score = (1.0 - SCORE_ALPHA) * record.score + SCORE_ALPHA
                decay = 0.5 ** (lags[peer] / cfg.staleness_half_life)
                weights[peer] = record.score * decay
        return weights

    def _structural_offence(self, contribution: Contribution) -> Optional[str]:
        if contribution.decode_error is not None:
            kind = contribution.decode_error.split(":", 1)[0]
            return kind if kind in OFFENCE_KINDS else "corrupt-payload"
        if contribution.update is None or contribution.stamped_window is None:
            return "metadata"
        if not is_finite(contribution.update):
            return "non-finite"
        return None

    def _norm_screen(
        self,
        survivors: Dict[str, Contribution],
        offenders: Dict[str, str],
    ) -> None:
        """Exclude implausibly small (free-rider) or huge (blow-up) norms."""
        if len(survivors) < 2:
            return  # no population to compare against
        norms = {
            peer: float(np.linalg.norm(contribution.update))
            for peer, contribution in survivors.items()
        }
        median = float(np.median(sorted(norms.values())))
        if median <= 0.0:
            return  # everyone published zeros; direction screen is moot too
        for peer in sorted(norms):
            ratio = norms[peer] / median
            if ratio < FREE_RIDER_FLOOR:
                offenders[peer] = "free-rider"
                del survivors[peer]
            elif ratio > NORM_CEILING:
                offenders[peer] = "norm-blowup"
                del survivors[peer]

    def _direction_screen(
        self,
        survivors: Dict[str, Contribution],
        offenders: Dict[str, str],
    ) -> None:
        """Exclude contributions strongly opposed to the rest of the crowd."""
        if len(survivors) < 3:
            return  # with <= 2 voices there is no crowd to disagree with
        peers = sorted(survivors)
        stacked = {peer: survivors[peer].update.reshape(-1) for peer in peers}
        total = np.sum([stacked[peer] for peer in peers], axis=0)
        flagged = []
        for peer in peers:
            own = stacked[peer]
            rest = total - own
            denom = float(np.linalg.norm(own)) * float(np.linalg.norm(rest))
            if denom <= 0.0:
                continue
            cosine = float(np.dot(own, rest)) / denom
            if cosine < COSINE_FLOOR:
                flagged.append(peer)
        if len(flagged) * 2 >= len(peers):
            # The "dissenters" are not a minority — the crowd itself is
            # split, so punishing either side would let an adversarial
            # majority eject honest peers. Leave direction judgement to
            # the norm/staleness screens this window.
            return
        for peer in flagged:
            offenders[peer] = "sign-flip"
            del survivors[peer]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def offences_of_kind(self, kind: str) -> List[Offence]:
        return [offence for offence in self.offences if offence.kind == kind]

    def render(self) -> str:
        """Human-readable per-peer trust table plus the offence log."""
        if not self.records:
            return "no peers scored yet"
        lines = [f"{'peer':<12} {'score':>6} {'clean':>6} {'offend':>7} status"]
        for peer in sorted(self.records):
            record = self.records[peer]
            status = (
                f"QUARANTINED @ window {record.quarantined_window}"
                if record.quarantined else "trusted"
            )
            lines.append(
                f"{peer:<12} {record.score:>6.3f} {record.clean_windows:>6} "
                f"{record.offence_windows:>7} {status}"
            )
        if self.offences:
            lines.append("offences:")
            for offence in self.offences:
                lines.append(
                    f"  window {offence.window:>3}: {offence.peer_id} "
                    f"-> {offence.kind}"
                )
        return "\n".join(lines)
