"""Data-parallel training harness for the convergence experiments.

- :mod:`repro.train.datasets` — synthetic CIFAR-like image classification
  data (the offline substitute for CIFAR-10; see DESIGN.md §1).
- :mod:`repro.train.trainer` — synchronous data-parallel trainer driving a
  model replica per simulated worker through any
  :class:`~repro.optim.aggregators.GradientAggregator`.
- :mod:`repro.train.history` — loss/accuracy curves for Fig. 6 / Fig. 7.
- :mod:`repro.train.resilience` — the trainer's detect/skip/fallback/
  rollback ladder (see docs/fault_tolerance.md).
- :mod:`repro.train.checkpoint` — validated checkpoints and the rotating
  :class:`CheckpointManager` ring the rollback rung restores from.
"""

from repro.train.datasets import (
    ArrayDataset,
    SyntheticImageDataset,
    SyntheticSequenceDataset,
    make_cifar_like,
    make_token_classification,
)
from repro.train.checkpoint import (
    CheckpointError,
    CheckpointManager,
    NoRestorableCheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.train.history import TrainingHistory
from repro.train.reducer import BucketedReducer
from repro.train.resilience import ResilienceConfig, ResilienceLog
from repro.train.trainer import DataParallelTrainer

__all__ = [
    "ArrayDataset",
    "SyntheticImageDataset",
    "SyntheticSequenceDataset",
    "make_token_classification",
    "make_cifar_like",
    "TrainingHistory",
    "BucketedReducer",
    "DataParallelTrainer",
    "CheckpointError",
    "CheckpointManager",
    "NoRestorableCheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "ResilienceConfig",
    "ResilienceLog",
]
