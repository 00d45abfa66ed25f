"""Calibration sensitivity analysis.

Because the wall-clock results come from a calibrated simulator, the
question a reviewer should ask is: *do the paper's conclusions survive
perturbing the calibration constants?* This driver re-runs Table III under
multiplicative perturbations of network alpha/beta, GPU efficiency, the
contention rate and the QR launch cost, and checks which of the paper's
ordering claims hold at each point.

The claims tested (all from Table III / §V-C):

1. ACP-SGD is fastest on every model;
2. S-SGD is slowest on both BERTs;
3. Power-SGD* beats Power-SGD on ResNet-152 but loses on both BERTs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.comm.cost_model import LinkSpec
from repro.experiments.common import format_rows, paper_rank, timing_specs
from repro.experiments.table3 import TABLE3_METHODS
from repro.sim.calibration import LINK_10GBE, GPUSpec, SimConfig
from repro.sim.strategies import ClusterSpec, simulate_iteration


@dataclass(frozen=True)
class SensitivityPoint:
    """One perturbation and the ordering claims that held under it."""

    parameter: str
    factor: float
    claims_held: Dict[str, bool]

    @property
    def all_held(self) -> bool:
        return all(self.claims_held.values())


def _perturbed_config(parameter: str, factor: float) -> Tuple[SimConfig, LinkSpec]:
    sim = SimConfig()
    link = LINK_10GBE
    if parameter == "alpha":
        link = LinkSpec(link.name, link.alpha * factor, link.beta,
                        link.nominal_gbps)
    elif parameter == "beta":
        link = LinkSpec(link.name, link.alpha, link.beta * factor,
                        link.nominal_gbps)
    elif parameter == "gpu_efficiency":
        gpu = sim.gpu
        scaled = {kind: value * factor for kind, value in gpu.efficiency.items()}
        sim = replace(sim, gpu=GPUSpec(gpu.name, gpu.peak_flops, scaled,
                                       gpu.kernel_launch, gpu.memory_bandwidth))
    elif parameter == "contention_rate":
        sim = replace(sim, contention_rate=min(1.0, sim.contention_rate * factor))
    elif parameter == "qr_launch":
        sim = replace(sim, qr_launch=sim.qr_launch * factor)
    else:
        raise ValueError(f"unknown parameter {parameter!r}")
    return sim, link


def _check_claims(
    times: Dict[str, Dict[str, float]], tie_tolerance: float = 0.02
) -> Dict[str, bool]:
    """Evaluate the ordering claims, treating <=2% gaps as ties.

    The simulated Table III has genuine near-ties on ResNet-50 (ACP-SGD
    wins by ~2%, vs the paper's 13% margin); counting a 2% band as a tie
    keeps the sensitivity verdict about *orderings*, not about which side
    of a coin-flip cell a perturbation lands on.
    """
    claims = {}
    claims["acp_fastest_everywhere"] = all(
        times[model]["acpsgd"]
        <= (1.0 + tie_tolerance) * min(times[model].values())
        for model in times
    )
    claims["ssgd_slowest_on_berts"] = all(
        times[bert]["ssgd"] >= max(times[bert].values()) - 1e-9
        for bert in ("BERT-Base", "BERT-Large")
    )
    claims["contention_flip"] = (
        times["ResNet-152"]["powersgd_star"]
        <= (1.0 + tie_tolerance) * times["ResNet-152"]["powersgd"]
        and times["BERT-Base"]["powersgd_star"]
        >= (1.0 - tie_tolerance) * times["BERT-Base"]["powersgd"]
        and times["BERT-Large"]["powersgd_star"]
        >= (1.0 - tie_tolerance) * times["BERT-Large"]["powersgd"]
    )
    return claims


def run_sensitivity(
    parameters: Tuple[str, ...] = (
        "alpha", "beta", "gpu_efficiency", "contention_rate", "qr_launch",
    ),
    factors: Tuple[float, ...] = (0.5, 0.75, 1.0, 1.5, 2.0),
) -> List[SensitivityPoint]:
    """Sweep perturbations and evaluate the ordering claims at each."""
    specs = timing_specs()
    points = []
    for parameter in parameters:
        for factor in factors:
            sim, link = _perturbed_config(parameter, factor)
            cluster = ClusterSpec(32, link)
            times: Dict[str, Dict[str, float]] = {}
            for name, spec in specs.items():
                times[name] = {
                    method: simulate_iteration(
                        method, spec, cluster=cluster, sim=sim,
                        rank=paper_rank(name),
                    ).total
                    for method in TABLE3_METHODS
                }
            points.append(
                SensitivityPoint(parameter, factor, _check_claims(times))
            )
    return points


def render(points: List[SensitivityPoint]) -> str:
    headers = ["parameter", "factor", "ACP fastest", "S-SGD slowest (BERTs)",
               "contention flip", "all"]
    body = []
    for point in points:
        body.append([
            point.parameter, f"x{point.factor:g}",
            "y" if point.claims_held["acp_fastest_everywhere"] else "N",
            "y" if point.claims_held["ssgd_slowest_on_berts"] else "N",
            "y" if point.claims_held["contention_flip"] else "N",
            "HOLDS" if point.all_held else "breaks",
        ])
    held = sum(1 for p in points if p.all_held)
    footer = f"\nall three claims hold at {held}/{len(points)} perturbation points"
    return format_rows(headers, body) + footer
