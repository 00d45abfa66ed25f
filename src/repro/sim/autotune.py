"""Buffer-size auto-tuning.

The paper notes (§IV-B) that "buffer size can be automatically tuned using
e.g. Bayesian optimization" but leaves it as future work, relying on the
scaled 25MB default. This module implements that extension with a
deterministic coarse-to-fine search over the simulator: a log-spaced sweep
followed by local refinement around the best coarse candidate. On the
simulator the objective is noiseless, so this matches what a BO loop would
converge to at a fraction of the complexity — and it reads the buffer only
through :func:`~repro.sim.strategies.fusion_plan`, so it is priced once per
distinct plan, not once per probed size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.models.spec import ModelSpec
from repro.sim.calibration import SimConfig
from repro.sim.strategies import BuildContext, ClusterSpec, SystemConfig
from repro.sim.strategies import fusion_plan, simulate_iteration

MB = 1024.0 * 1024.0
_DEFAULT_COARSE_MB = (0.25, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0)


@dataclass
class TuneResult:
    """Outcome of one auto-tuning run.

    Attributes:
        best_buffer_bytes: the winning buffer size.
        best_time: simulated iteration seconds at the winner.
        evaluated: every (buffer_bytes -> iteration seconds) probed.
    """

    best_buffer_bytes: float
    best_time: float
    evaluated: Dict[float, float] = field(default_factory=dict)

    @property
    def best_buffer_mb(self) -> float:
        return self.best_buffer_bytes / MB

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (float dict keys become ``repr`` strings).

        ``repr`` of a float is shortest-round-trip in every supported
        Python, so ``from_dict(to_dict(r)) == r`` bit-exactly — the
        property the planning service's byte-identical-payload contract
        relies on.
        """
        return {
            "best_buffer_bytes": float(self.best_buffer_bytes),
            "best_time": float(self.best_time),
            "evaluated": {
                repr(float(k)): float(v) for k, v in sorted(self.evaluated.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "TuneResult":
        """Inverse of :meth:`to_dict`."""
        evaluated = {
            float(k): float(v) for k, v in doc["evaluated"].items()  # type: ignore[union-attr]
        }
        return cls(
            best_buffer_bytes=float(doc["best_buffer_bytes"]),  # type: ignore[arg-type]
            best_time=float(doc["best_time"]),  # type: ignore[arg-type]
            evaluated=evaluated,
        )


def autotune_buffer_size(
    method: str,
    model: ModelSpec,
    cluster: Optional[ClusterSpec] = None,
    sim: Optional[SimConfig] = None,
    rank: int = 4,
    batch_size: Optional[int] = None,
    coarse_mb: Sequence[float] = _DEFAULT_COARSE_MB,
    refine_rounds: int = 3,
    topk_ratio: float = 0.001,
) -> TuneResult:
    """Find the buffer size minimizing simulated iteration time.

    Coarse log-spaced sweep, then ``refine_rounds`` of bisection between
    the best point's neighbours. ``topk_ratio`` is the Top-k / DGC /
    Random-k keep fraction every probe is priced at. Probes with equal fusion
    plans share one simulation (a dedupe for this call only; a later call's
    repeats are served by ``simulate_iteration``'s memo); ``evaluated``
    lists all.
    """
    if not coarse_mb:
        raise ValueError("need at least one coarse candidate")
    candidates = sorted(float(c) * MB for c in coarse_mb)
    evaluated: Dict[float, float] = {}
    priced: Dict[tuple, float] = {}  # fusion plans -> seconds, this call only

    def probe(buffer_bytes: float) -> float:
        buffer_bytes = max(buffer_bytes, 1.0)
        if buffer_bytes not in evaluated:
            config = SystemConfig(
                wfbp=True, tensor_fusion=True, buffer_bytes=buffer_bytes
            )
            ctx = BuildContext.resolve(
                method, model, cluster, config, sim, batch_size, rank, topk_ratio
            )
            plans = tuple(fusion_plan(ctx, parity_p) for parity_p in ctx.parities)
            if plans not in priced:
                priced[plans] = simulate_iteration(
                    method, model, cluster=cluster, system=config, sim=sim,
                    rank=rank, batch_size=batch_size, topk_ratio=topk_ratio,
                ).total
            evaluated[buffer_bytes] = priced[plans]
        return evaluated[buffer_bytes]

    for candidate in candidates:
        probe(candidate)

    for _ in range(refine_rounds):
        ordered = sorted(evaluated)
        best = min(ordered, key=lambda b: evaluated[b])
        idx = ordered.index(best)
        left = ordered[idx - 1] if idx > 0 else best / 2
        right = ordered[idx + 1] if idx + 1 < len(ordered) else best * 2
        probe((left * best) ** 0.5)
        probe((best * right) ** 0.5)

    best = min(evaluated, key=lambda b: evaluated[b])
    return TuneResult(
        best_buffer_bytes=best, best_time=evaluated[best], evaluated=evaluated
    )
