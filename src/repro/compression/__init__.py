"""Gradient compression algorithms.

The methods evaluated and proposed by the paper:

- :mod:`repro.compression.signsgd` — Sign-SGD with majority vote [17] and
  1-bit packing (quantization family, <=32x ratio, all-gather aggregation).
- :mod:`repro.compression.topk` — Top-k sparsification [21] with both exact
  selection and the paper's "multiple sampling" binary-search threshold
  estimation (all-gather aggregation of values+indices).
- :mod:`repro.compression.randomk` — Random-k sparsification with a shared
  selection seed, which (unlike Top-k) *is* additive and all-reducible.
- :mod:`repro.compression.qsgd` — QSGD stochastic quantization [16]
  (background method, implemented as an extension).
- :mod:`repro.compression.lowrank` — Power-SGD [24] and **ACP-SGD**, the
  paper's contribution, as one state: rank-r power-iteration low-rank
  compression with query reuse and error feedback (Algorithms 1-2). A
  step runs one *half* — project on the carried factor, aggregate the
  local factor, adopt it — or two: Power-SGD computes P then Q, ACP-SGD
  only P (odd steps) or only Q (even steps), so its per-iteration
  communication is a single, additive, non-blocking all-reduce.

Shared infrastructure:

- :mod:`repro.compression.reshaping` — which parameters get compressed and
  how gradients are viewed as matrices (§IV-C: vector-shaped parameters are
  sent uncompressed).
- :mod:`repro.compression.orthogonalize` — reduced-QR orthogonalization with
  a Gram-Schmidt fallback for degenerate inputs.
- :mod:`repro.compression.wire` — each method's wire, declared once: the
  §IV-C factoring rule, the sparsifiers' ``k`` and the collectives one step
  issues, read by the aggregators, the simulator and Tables I and II.
- :mod:`repro.compression.payload` — self-describing, CRC-stamped
  pack/unpack of compressed updates for store-mediated exchange between
  untrusted peers (:mod:`repro.gossip`).
"""

from repro.compression.orthogonalize import orthogonalize
from repro.compression.reshaping import (
    grad_to_matrix,
    matrix_view_shape,
    should_compress,
)
from repro.compression.signsgd import (
    SignCompressor,
    SignPayload,
    majority_vote_aggregate,
)
from repro.compression.topk import (
    SparsePayload,
    TopkCompressor,
    exact_topk_mask,
    sampled_threshold_topk_mask,
    sparse_aggregate,
    topk_select,
)
from repro.compression.randomk import RandomKCompressor, RandomKPayload
from repro.compression.qsgd import QSGDCompressor, QSGDPayload
from repro.compression.lowrank import LowRankState, init_low_rank
from repro.compression.wire import (
    communicate_elements,
    compression_ratio,
    low_rank_split,
    select_count,
    step_wire,
)
from repro.compression.terngrad import TernGradCompressor, TernPayload
from repro.compression.payload import (
    PAYLOAD_MAGIC,
    PayloadFormatError,
    pack_payload,
    unpack_payload,
)

__all__ = [
    "orthogonalize",
    "grad_to_matrix",
    "matrix_view_shape",
    "should_compress",
    "SignCompressor",
    "SignPayload",
    "majority_vote_aggregate",
    "TopkCompressor",
    "SparsePayload",
    "exact_topk_mask",
    "sampled_threshold_topk_mask",
    "sparse_aggregate",
    "topk_select",
    "RandomKCompressor",
    "RandomKPayload",
    "QSGDCompressor",
    "QSGDPayload",
    "LowRankState",
    "init_low_rank",
    "communicate_elements",
    "compression_ratio",
    "low_rank_split",
    "select_count",
    "step_wire",
    "TernGradCompressor",
    "TernPayload",
    "PAYLOAD_MAGIC",
    "PayloadFormatError",
    "pack_payload",
    "unpack_payload",
]
