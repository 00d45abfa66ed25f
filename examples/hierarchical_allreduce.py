"""Topology-aware hierarchical all-reduce: identical math, cheaper wire.

Two demonstrations on one 2-node x 2-GPU cluster:

1. **Training bit-identity** — the same ACP-SGD job trained with the flat
   ring and with ``ProcessGroup(world, topology=...)`` (two-level
   hierarchical all-reduce) must produce byte-identical weights: the
   hierarchical collective replays the canonical flat-ring fold and only
   *accounts* the two-level schedule, so the wire layout can never fork
   a trajectory.
2. **Analytic crossover** — where the alpha-beta cost model says each
   schedule wins, via ``crossover_bytes``.

Run:
    python examples/hierarchical_allreduce.py
"""

import numpy as np

from repro.comm import ProcessGroup
from repro.comm.cost_model import INFINIBAND_100G
from repro.comm.topology import (
    PCIE3_X16,
    ClusterTopology,
    crossover_bytes,
    flat_allreduce_time,
    hierarchical_allreduce_time,
)
from repro.models import make_small_vgg
from repro.optim import SGD, make_aggregator
from repro.train import DataParallelTrainer, make_cifar_like
from repro.utils import format_bytes

TOPOLOGY = ClusterTopology(
    num_nodes=2, gpus_per_node=2,
    intra_link=PCIE3_X16, inter_link=INFINIBAND_100G,
)
# A bigger modeled cluster for the analytic section: at 4x4 the two
# schedules genuinely cross (at 2x2 hierarchical wins the whole range).
MODEL_TOPOLOGY = ClusterTopology(
    num_nodes=4, gpus_per_node=4,
    intra_link=PCIE3_X16, inter_link=INFINIBAND_100G,
)
STEPS = 6


def train(topology):
    """Train a few steps; returns (final weights, wire bytes, steps)."""
    train_data, test_data = make_cifar_like(num_train=64, num_test=8, seed=3)
    model = make_small_vgg(base_width=2, rng=np.random.default_rng(7))
    group = ProcessGroup(TOPOLOGY.world_size, topology=topology)
    trainer = DataParallelTrainer(
        model, SGD(model, lr=0.05, momentum=0.9),
        make_aggregator("acpsgd", group, rank=4),
        train_data, test_data,
        batch_size_per_worker=4, seed=11,
    )
    losses = [trainer.train_step() for _ in range(STEPS)]
    weights = np.concatenate(
        [param.data.ravel() for _, param in model.named_parameters()]
    )
    comm_steps = sum(stats.steps for stats in group.history)
    return weights, group.total_bytes(), comm_steps, losses


def main() -> None:
    print(f"cluster: {TOPOLOGY.num_nodes} nodes x "
          f"{TOPOLOGY.gpus_per_node} GPUs "
          f"({TOPOLOGY.intra_link.name} intra, "
          f"{TOPOLOGY.inter_link.name} inter)\n")

    # 1. Flat vs hierarchical training: identical weights, fewer rounds.
    flat_w, flat_bytes, flat_steps, flat_losses = train(None)
    hier_w, hier_bytes, hier_steps, hier_losses = train(TOPOLOGY)
    identical = (flat_w.tobytes() == hier_w.tobytes()
                 and flat_losses == hier_losses)
    print(f"[1] ACP-SGD x{STEPS} steps, flat ring:     "
          f"{format_bytes(flat_bytes)} on the wire, {flat_steps} rounds")
    print(f"    ACP-SGD x{STEPS} steps, hierarchical: "
          f"{format_bytes(hier_bytes)} on the wire, {hier_steps} rounds")
    print("    weights and losses "
          + ("MATCH bit-exactly" if identical else "DIVERGED (bug!)"))
    if not identical:
        raise SystemExit(1)

    # 2. Where each schedule wins, per the alpha-beta model.
    crossover = crossover_bytes(MODEL_TOPOLOGY)
    print(f"\n[2] analytic crossover on "
          f"{MODEL_TOPOLOGY.num_nodes}x{MODEL_TOPOLOGY.gpus_per_node}: "
          f"{format_bytes(int(crossover))} "
          "(hierarchical wins below - start-up bound - flat above)")
    for nbytes in (int(crossover / 8), int(crossover * 8)):
        flat_t = flat_allreduce_time(nbytes, MODEL_TOPOLOGY)
        hier_t = hierarchical_allreduce_time(nbytes, MODEL_TOPOLOGY)
        winner = "hierarchical" if hier_t < flat_t else "flat"
        print(f"    {format_bytes(nbytes):>10}: flat {flat_t * 1e3:7.3f}ms  "
              f"hier {hier_t * 1e3:7.3f}ms  -> {winner}")


if __name__ == "__main__":
    main()
