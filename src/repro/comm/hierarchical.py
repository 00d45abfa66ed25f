"""Wire accounting of the two-level (hierarchical) all-reduce.

The schedule is the one :func:`repro.comm.topology
.hierarchical_allreduce_time` prices in closed form (the simulator's
``best_allreduce_time``): an intra-node ring reduce-scatter over each
node's GPUs (fast link), an inter-node ring all-reduce over the node
leaders — all local shards crossing in parallel but sharing each node's
NIC — and an intra-node all-gather broadcasting the result back down. Traffic and step accounting follow that two-level route:
``2 (g - 1)`` intra steps plus ``2 (nodes - 1)`` inter steps versus the
flat ring's ``2 (p - 1)``.

There is no hierarchical *reduction* here: a topology changes what
:func:`repro.comm.collectives.all_reduce_inplace` charges for a call, never
the association it sums in, so ``topology=`` on a group or trainer cannot
change a training trajectory (the seventh ``scripts/check_determinism.py``
check).
"""

from __future__ import annotations

from typing import List

from repro.comm.topology import ClusterTopology


def hierarchical_steps(topology: ClusterTopology) -> int:
    """Communication rounds of the two-level schedule."""
    return 2 * (topology.gpus_per_node - 1) + 2 * (topology.num_nodes - 1)


def hierarchical_traffic(
    elems: int, topology: ClusterTopology, elem_bytes: int
) -> List[int]:
    """Per-rank bytes of the two-level schedule for ``elems`` elements.

    Intra reduce-scatter and all-gather each move ``(g-1)/g`` of the
    buffer per rank on the fast link; the inter ring moves
    ``2 (nodes-1)/nodes`` of each rank's ``1/g`` shard. The schedule is
    symmetric (every rank drives its own shard through the inter ring),
    so all ranks send the same amount.
    """
    p = topology.world_size
    if p == 1 or elems == 0:
        return [0] * p
    g = topology.gpus_per_node
    nodes = topology.num_nodes
    intra = 2.0 * elems * (g - 1) / g
    inter = 2.0 * (elems / g) * (nodes - 1) / nodes
    per_rank = int(round((intra + inter) * elem_bytes))
    return [per_rank] * p
