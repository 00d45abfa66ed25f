"""A from-scratch numpy neural-network framework.

This plays the role PyTorch plays in the paper: it provides the layers,
explicit forward/backward passes, and — crucially for the paper's system
story — *per-parameter gradient hooks* that fire the moment a parameter's
gradient becomes available during back-propagation. The distributed
optimizers register hooks exactly the way ACP-SGD's implementation registers
them on PyTorch tensors (§IV-C), which is what makes wait-free
back-propagation and tensor fusion expressible here.

Design notes:

- Modules implement explicit ``forward``/``backward`` rather than taped
  autodiff; every layer's backward is hand-derived and unit-tested against
  numerical finite differences.
- Backward proceeds output-to-input, so hooks observe gradients in reverse
  layer order — the same "last layer's gradient is ready first" ordering
  that WFBP exploits.
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Module
from repro.nn.container import Sequential
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.norm import BatchNorm2d, LayerNorm
from repro.nn.activation import GELU, ReLU
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.dropout import Dropout
from repro.nn.embedding import Embedding
from repro.nn.reshape import Flatten
from repro.nn.loss import CrossEntropyLoss
from repro.nn.attention import MultiHeadSelfAttention, TransformerEncoderLayer
from repro.nn import init

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "GELU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "Embedding",
    "Flatten",
    "CrossEntropyLoss",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "init",
]
