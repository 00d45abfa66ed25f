"""Optimizers and distributed gradient aggregation.

- :mod:`repro.optim.sgd` — SGD with momentum (the base optimizer every
  method wraps, as in the paper's §IV-C prototype).
- :mod:`repro.optim.lr_scheduler` — gradual warmup + multi-step decay, the
  paper's Fig. 6 schedule.
- :mod:`repro.optim.aggregators` — one gradient aggregation strategy per
  method: S-SGD (ring all-reduce), Sign-SGD (all-gather + majority vote),
  Top-k SGD (all-gather + sparse sum; with momentum correction, DGC),
  Random-k (all-reduce over shared coordinates), QSGD (all-gather),
  Power-SGD (two all-reduces with an interleaved orthogonalization), and
  ACP-SGD (one all-reduce of the alternating factor).
- :mod:`repro.optim.decoded` — what a compressing method returns: the
  reduced payload, which ``SGD.step`` decodes one block of rows at a time.
"""

from repro.optim.sgd import SGD
from repro.optim.lr_scheduler import WarmupMultiStepSchedule
from repro.optim.aggregators import (
    ACPSGDAggregator,
    AllReduceAggregator,
    GradientAggregator,
    PowerSGDAggregator,
    QSGDAggregator,
    RandomKAggregator,
    SignSGDAggregator,
    TernGradAggregator,
    TopkSGDAggregator,
    make_aggregator,
)

__all__ = [
    "SGD",
    "WarmupMultiStepSchedule",
    "GradientAggregator",
    "AllReduceAggregator",
    "SignSGDAggregator",
    "TopkSGDAggregator",
    "RandomKAggregator",
    "QSGDAggregator",
    "TernGradAggregator",
    "PowerSGDAggregator",
    "ACPSGDAggregator",
    "make_aggregator",
]
