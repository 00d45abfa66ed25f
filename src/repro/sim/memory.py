"""Analytical GPU memory model.

Reproduces the paper's §III-B observation that "Sign-SGD runs out of
memory due to its increased memory requirement" on BERT-Large (11GB RTX
2080 Ti): a framework-level majority vote holds every worker's sign tensor
at once — ``p x N`` int8 bytes, ~10.7GB at 32 workers x 336M parameters —
on top of weights/gradients/momentum/EF, while the same configuration fits
comfortably for BERT-Base (3.5GB gathered) and the ResNets.

The estimates are deliberately simple (fp32 everywhere, activation memory
from layer output sizes with a re-use factor) but capture the ordering and
the OOM cliff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.compression.wire import step_wire
from repro.models.spec import FP32_BYTES, ModelSpec

GiB = 1024.0**3
RTX2080TI_MEMORY_BYTES = 11.0 * GiB


@dataclass(frozen=True)
class MemoryEstimate:
    """Peak per-GPU memory of one training iteration (bytes)."""

    weights: float
    gradients: float
    optimizer_state: float
    activations: float
    compression_buffers: float
    communication_buffers: float

    @property
    def total(self) -> float:
        return (
            self.weights + self.gradients + self.optimizer_state
            + self.activations + self.compression_buffers
            + self.communication_buffers
        )

    def fits(self, capacity_bytes: float = RTX2080TI_MEMORY_BYTES) -> bool:
        """Whether the estimate fits a card of ``capacity_bytes``."""
        return self.total <= capacity_bytes


def _activation_bytes(model: ModelSpec, batch_size: int) -> float:
    """Activation footprint: per-layer output elements x batch x fp32.

    A 1.3x factor covers the intermediates frameworks also retain (pre-
    activation values, attention probabilities, workspace).
    """
    return 1.3 * model.activation_elements(batch_size) * FP32_BYTES


#: Wire bytes per (model identity, method, rank, topk_ratio): one Top-k
#: selection, or the P and Q factors of a low-rank step. An entry holds its
#: model, so the id in its key cannot be reused while it is cached.
_WIRE_BYTES: Dict[Tuple[int, str, int, float], Tuple[ModelSpec, float]] = {}


def _wire_bytes(method: str, model: ModelSpec, rank: int, topk_ratio: float) -> float:
    """What ``estimate_memory`` reads from ``step_wire``, built once per key
    (a planner miss asks for it once per method, and its ``tune_buffer``
    twin asks again)."""
    key = (id(model), method, rank, topk_ratio)
    entry = _WIRE_BYTES.get(key)
    if entry is None:
        shapes = model.parameter_shapes()
        if method == "topk":
            (selection,) = step_wire(method, shapes, ratio=topk_ratio)
            nbytes = selection.nbytes
        else:
            wire = step_wire("powersgd", shapes, rank=rank)
            nbytes = sum(c.nbytes for c in wire if c.group in ("P", "Q"))
        if len(_WIRE_BYTES) >= 64:
            _WIRE_BYTES.clear()
        entry = _WIRE_BYTES[key] = (model, nbytes)
    return entry[1]


def estimate_memory(
    method: str,
    model: ModelSpec,
    batch_size: int,
    world_size: int,
    rank: int = 4,
    topk_ratio: float = 0.001,
) -> MemoryEstimate:
    """Peak per-GPU memory for one method/model/cluster configuration."""
    if batch_size < 1 or world_size < 1:
        raise ValueError("batch_size and world_size must be >= 1")
    n_bytes = float(model.parameter_bytes)
    n_elems = float(model.num_parameters)
    weights = n_bytes
    gradients = n_bytes
    optimizer_state = n_bytes  # SGD momentum
    activations = _activation_bytes(model, batch_size)

    compression = 0.0
    communication = 0.0
    if method == "ssgd":
        communication = n_bytes  # fused flat buffer
    elif method == "signsgd":
        # EF residual + int8 sign tensors: one local plus the all-gathered
        # copy from every worker (a framework-level majority vote holds
        # p x N int8 at once — the BERT-Large OOM), + the fp32 vote
        # accumulator.
        compression = n_bytes  # error feedback
        int8_signs = n_elems
        communication = int8_signs + world_size * int8_signs + n_bytes
    elif method == "topk":
        compression = n_bytes  # error feedback
        # Every worker's selection, all-gathered.
        selection = _wire_bytes(method, model, rank, topk_ratio)
        communication = float(world_size * selection)
    elif method in ("powersgd", "powersgd_star", "acpsgd"):
        compression = n_bytes  # error feedback
        factors = float(_wire_bytes(method, model, rank, topk_ratio))
        if method == "acpsgd":
            # One factor at a time travels, but P, Q and E are all held.
            communication = factors / 2.0
            compression += factors
        else:
            communication = factors
            compression += factors
    else:
        raise ValueError(f"unknown method {method!r}")

    return MemoryEstimate(
        weights=weights,
        gradients=gradients,
        optimizer_state=optimizer_state,
        activations=activations,
        compression_buffers=compression,
        communication_buffers=communication,
    )


def memory_report(
    model: ModelSpec, batch_size: int, world_size: int, rank: int = 4
) -> Dict[str, MemoryEstimate]:
    """Estimates for every method on one configuration."""
    return {
        method: estimate_memory(method, model, batch_size, world_size, rank)
        for method in ("ssgd", "signsgd", "topk", "powersgd", "acpsgd")
    }
