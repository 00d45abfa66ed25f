"""Calibration constants for the performance simulator.

Every constant is pinned, where possible, to a number the paper itself
reports about its testbed (8 nodes x 4 RTX 2080 Ti, PCIe3 x16, 10GbE,
PyTorch 1.12 + NCCL 2.10). Those numbers and their bounds are the rows of
:mod:`repro.experiments.claims` whose role is ``"calibration"``, checked
with every other claim by ``tests/test_paper_reproduction.py``:

- §IV-B's fused all-reduce of ResNet-50's 97.49 MiB of gradients on
  10GbE/32 ranks fixes ``beta`` near 1.15GB/s;
- §II-A.3's one 64KB vs two 32KB all-reduces and §IV-B's 161
  tensor-by-tensor all-reduces of the same gradients jointly fix ``alpha``
  near 13us (they over-determine it; we take the compromise);
- FF&BP wall times inferred from Table III / Fig. 3 (ResNet-50 bs64
  ~ 235ms, BERT-Base bs32 ~ 180ms) fix the per-kind GPU efficiency
  factors;
- §III-C's single-GPU slowdown of Power-SGD* against Power-SGD fixes
  ``contention_rate``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.comm.cost_model import (
    ETHERNET_1G as LINK_1GBE,
    ETHERNET_10G as LINK_10GBE,
    INFINIBAND_100G as LINK_100GBIB,
    LinkSpec,
)


@dataclass(frozen=True)
class GPUSpec:
    """Compute-side cost model of one accelerator.

    Attributes:
        name: device name.
        peak_flops: fp32 peak, FLOP/s.
        efficiency: achieved fraction of peak by op kind. Convolutions on
            2080 Ti reach ~25% of peak through cuDNN at these sizes; large
            GEMMs ~45%; normalization / elementwise ops are memory-bound
            (expressed here as a low FLOP efficiency on their small FLOP
            counts).
        kernel_launch: fixed per-kernel overhead (s); matters for the very
            deep ResNet-152 (~500 kernels per pass).
        memory_bandwidth: effective DRAM bandwidth (B/s) for memory-bound
            passes (packing, sign/top-k scans).
    """

    name: str
    peak_flops: float
    efficiency: Dict[str, float]
    kernel_launch: float
    memory_bandwidth: float

    def flops_rate(self, kind: str) -> float:
        """Achieved FLOP/s for an op kind (falls back to 'elementwise')."""
        eff = self.efficiency.get(kind, self.efficiency["elementwise"])
        return self.peak_flops * eff


RTX2080TI = GPUSpec(
    name="RTX 2080 Ti",
    peak_flops=13.45e12,
    efficiency={
        # >0.4 of peak on convs: cuDNN uses Winograd for the 3x3 layers,
        # which beats the naive MAC count this spec charges.
        "conv": 0.50,
        "gemm": 0.44,
        "gemm_small": 0.08,  # skinny low-rank products (n x m @ m x r)
        "norm": 0.15,
        "elementwise": 0.15,
        "embedding": 0.10,
        "qr": 0.02,  # reduced QR of tall-skinny matrices is latency-bound
    },
    kernel_launch=8e-6,
    memory_bandwidth=450e9,  # of 616 GB/s nominal
)


@dataclass(frozen=True)
class SimConfig:
    """Simulator-wide knobs.

    Attributes:
        gpu: the accelerator cost model.
        contention_rate: progress rate of each GPU stream while both run
            *contending* (FLOP-heavy) kernels. 0.15 reproduces the paper's
            Table III ordering: Power-SGD*'s GEMM-heavy hook compression on
            the BERTs inflates back-propagation enough to lose to plain
            Power-SGD (516 vs 392ms on BERT-Large), while the ResNets'
            QR-launch-bound compression (``contends=False`` tasks) overlaps
            benignly and Power-SGD* wins there — both effects §V-C reports.
        qr_launch: fixed overhead per orthogonalization call.
            ``torch.linalg.qr`` on a tall-skinny matrix launches dozens of
            tiny kernels; ~0.2ms per matrix makes per-matrix
            orthogonalization the dominant Power-SGD compression cost on
            ResNets (53+ matrices), as the paper's breakdowns show.
        qr_contends: whether *bucketed* orthogonalization contends with BP.
            Default False (tall-skinny QR barely occupies the SMs). Fine
            grained per-tensor hooks (WFBP without TF) always contend —
            their kernel-launch storms stall the main stream, the paper's
            Fig. 9 "WFBP hurts Power-SGD" effect.
        sign_rate: elements/s for sign extraction + 1-bit packing in the
            paper's PyTorch implementation (not a fused CUDA kernel).
        topk_rate: elements/s for multi-sampling top-k selection. The paper
            reports Top-k's compression time against Sign-SGD's (Fig. 3) and
            its slowdown against S-SGD on ResNet-50 (Fig. 2); a ~0.22G elem/s
            selection rate (~4.5ns/element, dominated by the masked-gather of
            selected values) reproduces both.
        allgather_penalty: multiplier on all-gather wall time vs the ideal
            ring model. NCCL's all-gather of per-rank compressed payloads on
            Ethernet reaches far lower efficiency than ring all-reduce of
            large fused buffers; x2.5 reproduces the paper's observation
            that Sign-SGD's communication is 24% *higher* than S-SGD's on
            BERT-Base despite the 32x smaller payload (§III-C).
        bucket_copy_overhead: per-bucket fused-copy cost factor (bytes /
            memory bandwidth), the TF "copy into flat buffer" step.
    """

    gpu: GPUSpec = RTX2080TI
    contention_rate: float = 0.15
    qr_launch: float = 200e-6
    qr_contends: bool = False
    sign_rate: float = 0.9e9
    topk_rate: float = 0.22e9
    allgather_penalty: float = 2.5
    bucket_copy_overhead: float = 1.0

    def kind_time(self, kind: str, flops: float) -> float:
        """Seconds to execute ``flops`` of an op kind, plus launch overhead."""
        if flops < 0:
            raise ValueError(f"flops must be >= 0, got {flops}")
        if flops == 0:
            return 0.0
        return self.gpu.kernel_launch + flops / self.gpu.flops_rate(kind)

    def memory_pass_time(self, nbytes: float, passes: float = 1.0) -> float:
        """Seconds for ``passes`` streaming passes over ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.gpu.kernel_launch + passes * nbytes / self.gpu.memory_bandwidth


# Network presets: aliases of the canonical definitions in
# repro.comm.cost_model (see the calibration discussion there).
SIM_LINKS = {link.name: link for link in (LINK_1GBE, LINK_10GBE, LINK_100GBIB)}


class CalibrationGeneration:
    """Monotone counter stamped on every re-anchoring of the link model.

    Anything that memoizes simulator output (the :mod:`repro.serve` result
    cache, ``simulate_iteration``'s priced iterations) records the
    generation current at compute time and must treat an entry whose
    generation predates the latest
    :func:`fit_link_from_bucket_timings` as stale: a re-anchored
    ``LinkSpec`` changes every simulated duration, so results priced under
    the old calibration can never be served again.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def bump(self) -> int:
        """Advance the generation; returns the new value."""
        with self._lock:
            self._value += 1
            return self._value


#: Process-wide generation, bumped by ``fit_link_from_bucket_timings``.
CALIBRATION_GENERATION = CalibrationGeneration()


def fit_link_from_bucket_timings(
    samples: Sequence[Tuple[float, float]],
    world_size: int,
    name: str = "calibrated",
    nominal_gbps: float = 0.0,
) -> LinkSpec:
    """Fit an alpha-beta :class:`LinkSpec` to measured per-bucket timings.

    The bucketed reducer times every ``reduce_bucket`` call
    (:attr:`repro.train.reducer.BucketedReducer.last_timings`); under the
    ring model those times are linear in the bucket's byte size,
    ``t(n) = 2(p-1) alpha + 2 n (p-1) / (p beta)`` (the same formula
    :func:`repro.comm.cost_model.allreduce_time` prices), so a least
    squares line through ``(nbytes, seconds)`` samples recovers the link
    parameters the simulator should use for *this* machine. This closes
    the loop the paper draws between measurement and simulation: the
    simulator's network model can be re-anchored to real per-bucket
    timings instead of the testbed constants above.

    Every successful fit bumps :data:`CALIBRATION_GENERATION`, which
    invalidates memoized simulator results (the planning service's cache
    and ``simulate_iteration``'s priced iterations) computed under the
    previous calibration.

    Args:
        samples: ``(nbytes, seconds)`` pairs, e.g. one per fired bucket
            per step. Needs at least two distinct sizes.
        world_size: ring size ``p`` the timings were measured at; must be
            >= 2 (a single rank performs no communication to fit).
        name/nominal_gbps: passed through to the returned spec.

    Raises:
        ValueError: on ``world_size < 2``, too few distinct sizes, or a
            non-positive fitted slope (timings not increasing with size —
            no bandwidth term can explain them).
    """
    if world_size < 2:
        raise ValueError(
            f"world_size must be >= 2 to fit a link, got {world_size}"
        )
    sizes = np.array([float(nbytes) for nbytes, _ in samples])
    times = np.array([float(seconds) for _, seconds in samples])
    if sizes.size < 2 or np.unique(sizes).size < 2:
        raise ValueError(
            "need timings at >= 2 distinct bucket sizes to fit alpha and "
            f"beta, got {np.unique(sizes).size}"
        )
    if np.any(sizes < 0) or np.any(times < 0):
        raise ValueError("bucket sizes and timings must be >= 0")
    slope, intercept = np.polyfit(sizes, times, 1)
    if slope <= 0:
        raise ValueError(
            f"fitted slope {slope:.3e} s/byte is not positive; the timings "
            "do not grow with bucket size (likely noise-dominated: use "
            "more iterations or larger buckets)"
        )
    p = world_size
    alpha = max(0.0, float(intercept)) / (2 * (p - 1))
    beta = 2 * (p - 1) / (p * float(slope))
    spec = LinkSpec(
        name=name, alpha=alpha, beta=beta, nominal_gbps=nominal_gbps
    )
    # A successful fit re-anchors the simulator's network model: invalidate
    # every memoized simulator result (see CALIBRATION_GENERATION).
    CALIBRATION_GENERATION.bump()
    return spec
