"""Communication substrate: in-process collectives and network cost models.

This package plays the role NCCL/Gloo play in the paper's testbed:

- :mod:`repro.comm.collectives` implements the collective algorithms
  themselves (chunked ring all-reduce as reduce-scatter + all-gather and
  the one in-place kernel every group all-reduce runs, ring all-gather,
  broadcast) operating on one buffer per rank.
  They are *numerically real*: data actually moves chunk by chunk between
  per-rank buffers, and every call records how many bytes each rank sent,
  so Table II's communication complexity can be verified by measurement.
- :mod:`repro.comm.process_group` wraps the collectives in a
  ``ProcessGroup`` object mirroring the ``torch.distributed`` API shape used
  by the distributed optimizers.
- :mod:`repro.comm.cost_model` provides the alpha-beta timing model and the
  paper's three network presets (1GbE, 10GbE, 100Gb InfiniBand), used by the
  performance simulator.
"""

from repro.comm.collectives import (
    CollectiveStats,
    all_gather,
    all_reduce_inplace,
    all_reduce_naive,
    all_reduce_ring,
    broadcast,
)
from repro.comm.hierarchical import hierarchical_steps, hierarchical_traffic
from repro.comm.process_group import ProcessGroup
from repro.comm.cost_model import (
    LinkSpec,
    ETHERNET_1G,
    ETHERNET_10G,
    INFINIBAND_100G,
    allgather_time,
    allreduce_time,
    point_to_point_time,
)
from repro.comm.topology import (
    ClusterTopology,
    NVLINK2,
    PCIE3_X16,
    best_allreduce_time,
    crossover_bytes,
    flat_allreduce_time,
    hierarchical_allreduce_time,
)

__all__ = [
    "CollectiveStats",
    "all_gather",
    "all_reduce_inplace",
    "all_reduce_naive",
    "all_reduce_ring",
    "broadcast",
    "hierarchical_steps",
    "hierarchical_traffic",
    "ProcessGroup",
    "LinkSpec",
    "ETHERNET_1G",
    "ETHERNET_10G",
    "INFINIBAND_100G",
    "allgather_time",
    "allreduce_time",
    "point_to_point_time",
    "ClusterTopology",
    "NVLINK2",
    "PCIE3_X16",
    "best_allreduce_time",
    "crossover_bytes",
    "flat_allreduce_time",
    "hierarchical_allreduce_time",
]
