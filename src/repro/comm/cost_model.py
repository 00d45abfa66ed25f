"""Alpha-beta analytical cost model for collectives.

The performance simulator needs wall-clock estimates for collectives on links
we do not have. We use the standard alpha-beta model (Thakur et al., the
paper's [10]):

- point-to-point: ``t(n) = alpha + n / beta`` for an ``n``-byte message,
- ring all-reduce of ``n`` bytes over ``p`` ranks:
  ``t = 2 (p - 1) alpha + 2 n (p - 1) / (p beta)``,
- ring all-gather where each rank contributes ``n`` bytes:
  ``t = (p - 1) alpha + (p - 1) n / beta``.

``alpha`` is the per-message start-up latency including the collective's
software launch overhead; it is what tensor fusion amortizes. ``beta`` is the
achievable (not nominal) bandwidth of the slowest link on the ring — for the
paper's clusters the cross-node Ethernet/InfiniBand, since 4 GPUs share each
node's NIC.

Calibration: the 10GbE preset is pinned to the micro-measurements the paper
reports for its own testbed (§II-A.3: one 64KB against two 32KB all-reduces
on 32 ranks; §IV-B: ResNet-50's 97.49 MiB of gradients all-reduced
tensor-by-tensor and fused). They are the ``"calibration"`` rows of
``repro.experiments.claims``, which ``tests/test_paper_reproduction.py``
checks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkSpec:
    """A network preset.

    Attributes:
        name: human-readable name used in experiment output.
        alpha: per-message start-up latency in seconds (one collective step).
        beta: achievable bandwidth in bytes/second on the bottleneck link.
        nominal_gbps: nominal line rate, for display only.
    """

    name: str
    alpha: float
    beta: float
    nominal_gbps: float

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


def point_to_point_time(nbytes: float, link: LinkSpec) -> float:
    """Time to move one ``nbytes`` message over one hop."""
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if nbytes == 0:
        return 0.0
    return link.alpha + nbytes / link.beta


def allreduce_time(nbytes: float, world_size: int, link: LinkSpec) -> float:
    """Ring all-reduce time for an ``nbytes`` buffer over ``world_size`` ranks.

    ``2(p-1)`` start-up latencies (the reduce-scatter and all-gather phases
    each take ``p-1`` pipelined steps) plus the bandwidth term
    ``2 n (p-1) / (p beta)``. This is the Table II "S-SGD communicate"
    complexity, ``2(p-1)/p * N``, turned into seconds.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if world_size == 1 or nbytes == 0:
        return 0.0
    p = world_size
    startup = 2 * (p - 1) * link.alpha
    transfer = 2 * nbytes * (p - 1) / (p * link.beta)
    return startup + transfer


def allgather_time(nbytes_per_rank: float, world_size: int, link: LinkSpec) -> float:
    """Ring all-gather time when each rank contributes ``nbytes_per_rank``.

    Every rank receives ``(p-1) * n`` bytes, so the bandwidth term is linear
    in ``p`` — the Table II complexity ``(p-1) * N/32`` (Sign-SGD) and
    ``(p-1) * 2k`` (Top-k SGD) that makes all-gather-based compression scale
    poorly with worker count.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if nbytes_per_rank < 0:
        raise ValueError(f"nbytes_per_rank must be >= 0, got {nbytes_per_rank}")
    if world_size == 1 or nbytes_per_rank == 0:
        return 0.0
    p = world_size
    startup = (p - 1) * link.alpha
    transfer = (p - 1) * nbytes_per_rank / link.beta
    return startup + transfer


# ---------------------------------------------------------------------------
# Presets (single source of truth; `repro.sim.calibration` re-exports them
# and keys them by name in `SIM_LINKS`).
#
# 10GbE calibration compromise, over-determined by the paper's anchors:
# beta = 1.15 GB/s (92% of line rate) reproduces the fused ResNet-50
# all-reduce of §IV-B (ResNet-50's 97.49 MiB at 32 ranks); alpha = 13us splits
# the difference between what the §II-A.3 64KB all-reduce implies (~19us)
# and what §IV-B's per-tensor-vs-fused gap over 161 tensors implies (~8us).
# The anchors are the "calibration" rows of repro.experiments.claims.
#
# 1GbE keeps similar software overhead with 10x less bandwidth. 100Gb IB:
# low RDMA latency, but 4 GPUs share each node's HCA in a flat ring, so
# achievable per-rank bandwidth sits well below line rate (reproduces the
# paper's Fig. 13 finding that ACP-SGD still wins on IB).
# ---------------------------------------------------------------------------
ETHERNET_10G = LinkSpec(name="10GbE", alpha=13e-6, beta=1.15e9, nominal_gbps=10.0)
ETHERNET_1G = LinkSpec(name="1GbE", alpha=40e-6, beta=0.115e9, nominal_gbps=1.0)
INFINIBAND_100G = LinkSpec(
    name="100GbIB", alpha=5e-6, beta=4.5e9, nominal_gbps=100.0
)
