"""Microbenchmarks reproducing the paper's in-text anchor measurements.

1. **Single-GPU WFBP contention** (§III-C): Power-SGD with WFBP against
   Power-SGD without it, training ResNet-50 on one GPU (computation only).
2. **Fused vs unfused all-reduce** (§IV-B): ResNet-50's gradients and
   ACP-SGD's compressed P factors, all-reduced tensor by tensor and fused.

The paper's numbers and their bounds are the §III-C and §IV-B rows of
:mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.comm.cost_model import allreduce_time
from repro.compression.wire import step_wire
from repro.models import get_model_spec
from repro.sim.calibration import LINK_10GBE
from repro.sim.strategies import ClusterSpec, SystemConfig, simulate_iteration


@dataclass(frozen=True)
class ContentionResult:
    """Power-SGD on one GPU: hook overlap vs post-BP compression."""

    no_wfbp_ms: float
    wfbp_ms: float

    @property
    def slowdown(self) -> float:
        """wfbp / no_wfbp."""
        return self.wfbp_ms / self.no_wfbp_ms


def run_contention_microbench(model_name: str = "ResNet-50") -> ContentionResult:
    """One-GPU Power-SGD, WFBP on vs off. No communication (p=1)."""
    spec = get_model_spec(model_name)
    cluster = ClusterSpec(world_size=1)
    # Per-tensor hooks (no TF) — the fine-grained overlap the paper measured.
    no_wfbp = simulate_iteration(
        "powersgd_star", spec, cluster=cluster,
        system=SystemConfig(wfbp=False, tensor_fusion=False), rank=4,
    )
    wfbp = simulate_iteration(
        "powersgd_star", spec, cluster=cluster,
        system=SystemConfig(wfbp=True, tensor_fusion=False), rank=4,
    )
    return ContentionResult(no_wfbp.milliseconds[0], wfbp.milliseconds[0])


@dataclass(frozen=True)
class FusionResult:
    """Separate vs fused all-reduce wall times (ms)."""

    label: str
    separate_ms: float
    fused_ms: float

    @property
    def speedup(self) -> float:
        return self.separate_ms / self.fused_ms


def run_fusion_microbench(world_size: int = 32) -> Dict[str, FusionResult]:
    """Fused-vs-separate all-reduce for ResNet-50's raw and P-compressed
    gradients on 10GbE (the §IV-B anchor numbers)."""
    spec = get_model_spec("ResNet-50")
    link = LINK_10GBE
    raw_sizes = [t.nbytes for t in spec.tensors()]
    raw_separate = sum(allreduce_time(s, world_size, link) for s in raw_sizes)
    raw_fused = allreduce_time(sum(raw_sizes), world_size, link)

    wire = step_wire("acpsgd", spec.parameter_shapes(), rank=4, half=1)
    p_sizes = next(c.sizes for c in wire if c.group == "P")
    p_separate = sum(allreduce_time(s, world_size, link) for s in p_sizes)
    p_fused = allreduce_time(sum(p_sizes), world_size, link)
    return {
        "raw": FusionResult("ResNet-50 gradients", raw_separate * 1e3, raw_fused * 1e3),
        "compressed": FusionResult("ACP-SGD P factors (r=4)",
                                   p_separate * 1e3, p_fused * 1e3),
    }
