"""Name-indexed access to the paper's model specs and batch sizes.

The paper's §III-A settings: per-GPU batch sizes of 64 (ResNet-50),
32 (ResNet-152), 32 (BERT-Base), 8 (BERT-Large); 3x224x224 images and
sequence length 64.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.models.bert_specs import bert_base_spec, bert_large_spec
from repro.models.resnet_specs import resnet18_spec, resnet50_spec, resnet152_spec
from repro.models.spec import ModelSpec
from repro.models.vgg_specs import vgg16_spec

_BUILDERS: Dict[str, Callable[[], ModelSpec]] = {
    "ResNet-18": resnet18_spec,
    "ResNet-50": resnet50_spec,
    "ResNet-152": resnet152_spec,
    "VGG-16": vgg16_spec,
    "BERT-Base": bert_base_spec,
    "BERT-Large": bert_large_spec,
}

# The paper's Power-SGD rank choices: r=4 for ResNets, r=32 for BERTs.
PAPER_RANKS: Dict[str, int] = {
    "ResNet-18": 4,
    "ResNet-50": 4,
    "ResNet-152": 4,
    "VGG-16": 4,
    "BERT-Base": 32,
    "BERT-Large": 32,
}

MODEL_SPECS = tuple(_BUILDERS)
_SPECS: Dict[str, ModelSpec] = {}  # built on first use, one per name


class UnknownModelError(KeyError):
    """:func:`get_model_spec` was asked for a name not in the registry."""


def get_model_spec(name: str) -> ModelSpec:
    """The one spec of a model by its paper name (e.g. ``"ResNet-50"``):
    every caller shares it, and with it the simulator's memo."""
    spec = _SPECS.get(name)
    if spec is None:
        builder = _BUILDERS.get(name)
        if builder is None:
            raise UnknownModelError(
                f"unknown model {name!r}; available: {', '.join(sorted(_BUILDERS))}"
            )
        spec = _SPECS.setdefault(name, builder())  # racing threads keep one
    return spec
