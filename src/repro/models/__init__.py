"""Model zoo.

Two kinds of models, matching the two kinds of experiments:

- **Shape-level specs** (:mod:`repro.models.spec`,
  :mod:`repro.models.resnet_specs`, :mod:`repro.models.bert_specs`,
  :mod:`repro.models.registry`): exact per-layer parameter shapes and FLOP
  counts of ResNet-50/152, BERT-Base/Large, VGG-16 and ResNet-18 at the
  paper's input sizes. These drive the performance simulator and the
  Table I / Table II / Fig. 5 analytics. They are validated against the
  paper's reported parameter counts and compression ratios.
- **Runnable models** (:mod:`repro.models.convnets`): scaled-down
  VGG-style / ResNet-style numpy convnets plus an MLP, actually trainable
  on CPU, used for the convergence experiments (Fig. 6 / Fig. 7).
"""

from repro.models.spec import LayerSpec, ModelSpec, TensorSpec
from repro.models.registry import MODEL_SPECS, get_model_spec
from repro.models.resnet_specs import resnet18_spec, resnet50_spec, resnet152_spec
from repro.models.vgg_specs import vgg16_spec
from repro.models.bert_specs import bert_base_spec, bert_large_spec
from repro.models.convnets import (
    make_mlp,
    make_small_resnet,
    make_small_vgg,
)
from repro.models.transformer import (
    TinyBERT,
    make_sequence_dataset,
    make_tiny_bert,
)

__all__ = [
    "LayerSpec",
    "ModelSpec",
    "TensorSpec",
    "MODEL_SPECS",
    "get_model_spec",
    "resnet18_spec",
    "resnet50_spec",
    "resnet152_spec",
    "vgg16_spec",
    "bert_base_spec",
    "bert_large_spec",
    "make_mlp",
    "make_small_resnet",
    "make_small_vgg",
    "TinyBERT",
    "make_sequence_dataset",
    "make_tiny_bert",
]
