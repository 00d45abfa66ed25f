"""Deployment planner: one call from (model, cluster) to a recommendation.

The question the paper equips a practitioner to answer is *"how should I
aggregate gradients on my cluster?"*. This module packages the repository's
machinery — the performance simulator, the buffer autotuner, and the memory
model — behind a single API:

    >>> from repro.planner import plan
    >>> p = plan("BERT-Large", gpus=32, link="10GbE")
    >>> p.recommended_method, p.expected_iteration_ms
    ('acpsgd', ...)

used by ``examples/cluster_planning.py`` and suitable for notebooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.comm.cost_model import LinkSpec
from repro.comm.topology import ClusterTopology
from repro.models import get_model_spec
from repro.models.registry import PAPER_RANKS
from repro.sim.autotune import TuneResult, autotune_buffer_size
from repro.sim.calibration import SIM_LINKS
from repro.sim.memory import estimate_memory
from repro.sim.strategies import ClusterSpec, simulate_iteration

MB = 1024.0 * 1024.0

# Methods the planner considers, with their practical caveats.
_CANDIDATES = ("ssgd", "signsgd", "topk", "powersgd", "powersgd_star", "acpsgd")

_QUALITY_NOTES = {
    "ssgd": "exact gradients (no approximation)",
    "signsgd": "biased; needs error feedback and small LR; weakest quality",
    "topk": "biased; error feedback makes it solid; compute-heavy selection",
    "powersgd": "low-rank; accuracy on par with S-SGD at adequate rank",
    "powersgd_star": "as Power-SGD; overlap may contend with compute",
    "acpsgd": "low-rank; accuracy on par with S-SGD (EF + reuse)",
}


@dataclass(frozen=True)
class MethodAssessment:
    """One candidate's simulated cost and feasibility."""

    method: str
    iteration_ms: float
    memory_gib: float
    fits_memory: bool
    quality_note: str


@dataclass(frozen=True)
class Plan:
    """A deployment recommendation for (model, cluster)."""

    model: str
    world_size: int
    link_name: str
    rank: int
    assessments: Tuple[MethodAssessment, ...]
    recommended_method: str
    expected_iteration_ms: float
    tuned_buffer_mb: float
    speedup_over_ssgd: float
    tuning: Optional[TuneResult] = None

    def render(self) -> str:
        """Human-readable recommendation card."""
        from repro.experiments.common import METHOD_LABELS
        from repro.utils.formatting import render_table

        rows = []
        for item in self.assessments:
            marker = " <-- recommended" if item.method == self.recommended_method else ""
            rows.append([
                METHOD_LABELS.get(item.method, item.method),
                f"{item.iteration_ms:.0f}ms",
                f"{item.memory_gib:.1f}GiB" + ("" if item.fits_memory else " (OOM)"),
                item.quality_note + marker,
            ])
        header = (
            f"Plan for {self.model} on {self.world_size} GPUs ({self.link_name}), "
            f"rank {self.rank}:"
        )
        table = render_table(["method", "iteration", "memory", "notes"], rows)
        footer = (
            f"\nrecommended: {self.recommended_method} at "
            f"~{self.expected_iteration_ms:.0f}ms/iter "
            f"({self.speedup_over_ssgd:.1f}x over S-SGD), "
            f"fusion buffer ~{self.tuned_buffer_mb:.1f}MB"
        )
        return f"{header}\n{table}{footer}"


def plan(
    model_name: str,
    gpus: int = 32,
    link: Union[str, LinkSpec] = "10GbE",
    rank: Optional[int] = None,
    batch_size: Optional[int] = None,
    tune_buffer: bool = True,
    methods: Optional[Sequence[str]] = None,
    topk_ratio: float = 0.001,
    topology: Optional[ClusterTopology] = None,
) -> Plan:
    """Assess every method and recommend one for this deployment.

    The recommendation is the fastest method whose memory estimate fits
    and whose convergence quality is on par with S-SGD (the sign/top-k
    family is reported but never recommended over a low-rank method that
    is also faster, matching the paper's conclusions).

    Args:
        model_name: a model from :mod:`repro.models.registry`.
        gpus: cluster size.
        link: one of ``1GbE`` / ``10GbE`` / ``100GbIB``, or an explicit
            :class:`~repro.comm.cost_model.LinkSpec` — e.g. one fitted
            from measured bucket timings by
            :func:`repro.sim.calibration.fit_link_from_bucket_timings`.
        rank: low-rank compression rank (default: the paper's choice).
        batch_size: per-GPU batch (default: the paper's).
        tune_buffer: run the fusion-buffer autotuner for the winner.
        methods: candidate subset to assess (default: all of
            :data:`_CANDIDATES`). S-SGD is always simulated as the
            speedup baseline even when excluded from the assessments.
        topk_ratio: Top-k keep fraction (paper: 0.001).
        topology: optional two-level node topology; when given (its world
            size must equal ``gpus``) all-reduce durations are priced by
            the best of the flat and hierarchical schedules (see
            :mod:`repro.comm.topology`), so the recommendation accounts
            for fast intra-node links.
    """
    if isinstance(link, LinkSpec):
        link_spec = link
    else:
        if link not in SIM_LINKS:
            raise ValueError(
                f"unknown link {link!r}; available: {', '.join(sorted(SIM_LINKS))}"
            )
        link_spec = SIM_LINKS[link]
    if not 0.0 < topk_ratio <= 1.0:
        raise ValueError(f"topk_ratio must be in (0, 1], got {topk_ratio}")
    candidates = tuple(methods) if methods is not None else _CANDIDATES
    if not candidates:
        raise ValueError("need at least one candidate method")
    for method in candidates:
        if method not in _CANDIDATES:
            raise ValueError(
                f"unknown method {method!r}; available: {', '.join(_CANDIDATES)}"
            )
    spec = get_model_spec(model_name)
    rank = rank if rank is not None else PAPER_RANKS[model_name]
    batch = batch_size if batch_size is not None else spec.default_batch_size
    cluster = ClusterSpec(gpus, link_spec, topology=topology)

    def assess(method: str) -> MethodAssessment:
        breakdown = simulate_iteration(
            method, spec, cluster=cluster, rank=rank, batch_size=batch,
            topk_ratio=topk_ratio,
        )
        memory = estimate_memory(
            "powersgd" if method == "powersgd_star" else method,
            spec, batch, gpus, rank=rank, topk_ratio=topk_ratio,
        )
        return MethodAssessment(
            method=method,
            iteration_ms=breakdown.total * 1e3,
            memory_gib=memory.total / (1024.0**3),
            fits_memory=memory.fits(),
            quality_note=_QUALITY_NOTES[method],
        )

    assessments = [assess(method) for method in candidates]

    # Recommend among methods that fit memory and hold S-SGD-level quality.
    quality_tier = ("ssgd", "powersgd", "powersgd_star", "acpsgd")
    eligible = [a for a in assessments
                if a.fits_memory and a.method in quality_tier]
    if not eligible:  # fall back to anything that fits
        eligible = [a for a in assessments if a.fits_memory] or list(assessments)
    winner = min(eligible, key=lambda a: a.iteration_ms)

    ssgd_ms = next(
        (a.iteration_ms for a in assessments if a.method == "ssgd"),
        None,
    )
    if ssgd_ms is None:  # baseline still simulated when not assessed
        ssgd_ms = assess("ssgd").iteration_ms
    tuned_mb = 25.0
    expected_ms = winner.iteration_ms
    tuning: Optional[TuneResult] = None
    if tune_buffer:
        tuning = autotune_buffer_size(
            winner.method, spec, cluster=cluster, rank=rank, batch_size=batch,
            refine_rounds=2, topk_ratio=topk_ratio,
        )
        tuned_mb = tuning.best_buffer_mb
        expected_ms = min(expected_ms, tuning.best_time * 1e3)

    return Plan(
        model=model_name,
        world_size=gpus,
        link_name=link_spec.name,
        rank=rank,
        assessments=tuple(assessments),
        recommended_method=winner.method,
        expected_iteration_ms=expected_ms,
        tuned_buffer_mb=tuned_mb,
        speedup_over_ssgd=ssgd_ms / expected_ms,
        tuning=tuning,
    )
