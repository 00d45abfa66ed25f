"""Trainer-level resilience policy and accounting.

The comm layer (:mod:`repro.faults.resilient`) heals what it can detect on
the wire; this module handles what only the *trainer* can see — a loss or
gradient that went non-finite (numeric blow-up, EF residual divergence) or
a loss trajectory that is running away. The recovery ladder, mildest first:

1. **Skip-step** — a non-finite loss/gradient step applies no update and
   resets every compressor's error-feedback residual (a blown-up residual
   otherwise re-poisons the next step).
2. **Compression fallback** — after a skip, the next ``fallback_steps``
   steps aggregate *uncompressed* (plain ring all-reduce) so training makes
   clean progress while the compressor state re-warms.
3. **Rollback** — when divergence persists (``divergence_patience``
   consecutive bad steps), restore the newest loadable checkpoint from the
   :class:`~repro.train.checkpoint.CheckpointManager` ring and continue;
   after ``max_rollbacks`` restorations the run aborts loudly.

Everything is deterministic: no wall clocks, no unseeded randomness, so a
fault-injected run replayed with the same seeds is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: A finite loss above ``DIVERGENCE_FACTOR * ema`` counts as a divergent step.
DIVERGENCE_FACTOR = 10.0
#: Checkpoint ring size: a corrupt newest file falls back to its predecessor.
CHECKPOINT_KEEP = 2
#: Smoothing of the loss EMA the divergence test compares against.
LOSS_EMA_BETA = 0.9


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the trainer's detect/skip/fallback/rollback ladder.

    Every step checks the per-worker losses/gradients and the aggregated
    gradient for non-finite values; the divergence test and the checkpoint
    ring use the module constants above.

    Attributes:
        fallback_steps: steps of uncompressed aggregation after a skip or
            rollback (0 disables the fallback rung).
        divergence_patience: consecutive divergent/skipped steps before a
            rollback fires.
        checkpoint_interval: steps between good-state checkpoints (0
            disables checkpointing, and with it the rollback rung).
        checkpoint_dir: where the checkpoint ring lives; ``None`` uses a
            fresh temporary directory.
        max_rollbacks: abort the run after this many restorations.
    """

    fallback_steps: int = 5
    divergence_patience: int = 3
    checkpoint_interval: int = 10
    checkpoint_dir: Optional[str] = None
    max_rollbacks: int = 3

    def __post_init__(self) -> None:
        if self.fallback_steps < 0:
            raise ValueError(
                f"fallback_steps must be >= 0, got {self.fallback_steps}"
            )
        if self.divergence_patience < 1:
            raise ValueError(
                f"divergence_patience must be >= 1, got {self.divergence_patience}"
            )
        if self.checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}"
            )
        if self.max_rollbacks < 0:
            raise ValueError(
                f"max_rollbacks must be >= 0, got {self.max_rollbacks}"
            )


@dataclass
class ResilienceLog:
    """What the trainer's resilience ladder actually did during a run."""

    skipped_steps: int = 0
    residual_resets: int = 0
    fallback_activations: int = 0
    fallback_steps_run: int = 0
    divergence_alarms: int = 0
    rollbacks: int = 0
    checkpoints_saved: int = 0
    notes: List[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        """Append a human-readable event line (kept short; for reports)."""
        self.notes.append(message)

    def render(self) -> str:
        lines = [
            f"skipped steps         {self.skipped_steps}",
            f"residual resets       {self.residual_resets}",
            f"fallback activations  {self.fallback_activations}",
            f"fallback steps run    {self.fallback_steps_run}",
            f"divergence alarms     {self.divergence_alarms}",
            f"rollbacks             {self.rollbacks}",
            f"checkpoints saved     {self.checkpoints_saved}",
        ]
        if self.notes:
            lines.append("events:")
            lines.extend(f"  - {note}" for note in self.notes)
        return "\n".join(lines)
