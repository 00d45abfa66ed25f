"""Shape-level model descriptions for the performance simulator.

A :class:`ModelSpec` is the paper-accurate skeleton of a DNN: an ordered
list of layers, each with its learnable tensors (exact shapes) and its
per-sample forward FLOPs. The simulator walks layers forward for FF, then
in reverse for BP, emitting each layer's gradient tensors as they become
ready — the event stream WFBP and tensor fusion schedule around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, Tuple

FP32_BYTES = 4


@dataclass(frozen=True)
class TensorSpec:
    """One learnable tensor.

    Attributes:
        name: dotted path, unique within the model.
        shape: parameter shape (conv weights keep their 4-D shape; the
            compression layer applies the §IV-C reshaping rules).
    """

    name: str
    shape: Tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of elements."""
        total = 1
        for dim in self.shape:
            total *= dim
        return total

    @property
    def nbytes(self) -> int:
        """fp32 bytes on the wire."""
        return self.size * FP32_BYTES


@dataclass(frozen=True)
class LayerSpec:
    """One layer: its tensors and compute cost.

    Attributes:
        name: layer name.
        kind: coarse op class used by the GPU cost model — ``"conv"``,
            ``"gemm"``, ``"norm"``, ``"elementwise"`` or ``"embedding"``.
            Different classes achieve different fractions of peak FLOP/s.
        params: learnable tensors of this layer (may be empty, e.g. pooling).
        forward_flops: per-sample forward FLOPs (multiply-add = 2 FLOPs).
        backward_flops_multiple: BP cost as a multiple of forward (2.0 for
            layers that compute both input and weight gradients; 1.0 for
            parameterless layers that only propagate the input gradient).
        output_elements: per-sample activation elements this layer produces
            (kept for the backward pass; drives the memory model).
    """

    name: str
    kind: str
    params: Tuple[TensorSpec, ...] = ()
    forward_flops: float = 0.0
    backward_flops_multiple: float = 2.0
    output_elements: float = 0.0

    @property
    def backward_flops(self) -> float:
        """Per-sample backward FLOPs."""
        return self.forward_flops * self.backward_flops_multiple

    @property
    def num_parameters(self) -> int:
        return sum(t.size for t in self.params)


@dataclass(frozen=True)
class ModelSpec:
    """A full model skeleton in forward order (totals computed once)."""

    name: str
    layers: Tuple[LayerSpec, ...]
    default_batch_size: int
    description: str = ""

    @cached_property
    def num_parameters(self) -> int:
        """Total learnable elements."""
        return sum(layer.num_parameters for layer in self.layers)

    @property
    def num_tensors(self) -> int:
        """Number of learnable tensors (each is one all-reduce without TF)."""
        return sum(len(layer.params) for layer in self.layers)

    @cached_property
    def parameter_bytes(self) -> int:
        """fp32 model size in bytes."""
        return self.num_parameters * FP32_BYTES

    def forward_flops(self, batch_size: int) -> float:
        """Total forward FLOPs for a batch."""
        return batch_size * sum(layer.forward_flops for layer in self.layers)

    def backward_flops(self, batch_size: int) -> float:
        """Total backward FLOPs for a batch."""
        return batch_size * sum(layer.backward_flops for layer in self.layers)

    def activation_elements(self, batch_size: int) -> float:
        """Total activation elements held for backward, for a batch."""
        return batch_size * sum(layer.output_elements for layer in self.layers)

    def parameter_shapes(self) -> List[Tuple[int, ...]]:
        """All tensor shapes, forward order (input for Table I analytics)."""
        return list(self._shapes)

    @cached_property
    def _shapes(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(t.shape for layer in self.layers for t in layer.params)

    def tensors(self) -> Iterator[TensorSpec]:
        """All tensors in forward order."""
        for layer in self.layers:
            yield from layer.params

    def backward_layers(self) -> Tuple[LayerSpec, ...]:
        """Layers in BP order (reverse of forward)."""
        return tuple(reversed(self.layers))


def conv_layer(
    name: str,
    in_channels: int,
    out_channels: int,
    kernel: int,
    out_hw: int,
    bias: bool = False,
) -> LayerSpec:
    """Build a conv LayerSpec with exact GEMM-equivalent FLOPs.

    ``flops = 2 * out_h * out_w * out_c * in_c * k * k`` per sample.
    """
    params = [TensorSpec(f"{name}.weight", (out_channels, in_channels, kernel, kernel))]
    if bias:
        params.append(TensorSpec(f"{name}.bias", (out_channels,)))
    flops = 2.0 * out_hw * out_hw * out_channels * in_channels * kernel * kernel
    return LayerSpec(name, "conv", tuple(params), flops,
                     output_elements=float(out_channels * out_hw * out_hw))


def bn_layer(name: str, channels: int, out_hw: int) -> LayerSpec:
    """BatchNorm2d LayerSpec (vector params, memory-bound compute)."""
    params = (
        TensorSpec(f"{name}.weight", (channels,)),
        TensorSpec(f"{name}.bias", (channels,)),
    )
    flops = 8.0 * channels * out_hw * out_hw  # stats + normalize + affine
    return LayerSpec(name, "norm", params, flops,
                     output_elements=float(channels * out_hw * out_hw))


def linear_layer(
    name: str, in_features: int, out_features: int, bias: bool = True,
    tokens: int = 1,
) -> LayerSpec:
    """Dense LayerSpec; ``tokens`` multiplies FLOPs for sequence models."""
    params = [TensorSpec(f"{name}.weight", (out_features, in_features))]
    if bias:
        params.append(TensorSpec(f"{name}.bias", (out_features,)))
    flops = 2.0 * in_features * out_features * tokens
    return LayerSpec(name, "gemm", tuple(params), flops,
                     output_elements=float(out_features * tokens))
