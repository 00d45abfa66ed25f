"""Elastic membership: training through eject -> rejoin -> scale-up churn.

Part 1 trains a small convnet on three simulated workers with ACP-SGD
while the cluster churns: one rank dies permanently mid-run, is later
readmitted, and then a brand-new fourth rank joins. The
:class:`ResilientProcessGroup` commits each change of its fault plan at a
step boundary and re-chunks the ring for the new world size; the trainer
broadcasts model + optimizer state from a surviving donor, warm-starts the
joiner's compressor state, and re-shards the dataset — so training just
keeps going. Replaying the
identical schedule produces bit-identical weights, which Part 1 asserts.

Part 2 asks the performance question on the simulator: what does the same
churn trajectory cost in wall-clock, and how much of it is admission
state-sync overhead?

Run:
    python examples/elastic_training.py [--epochs 2] [--steps 12]
"""

import argparse

import numpy as np

from repro.faults import (
    FaultInjector,
    FaultPlan,
    Join,
    PermanentFailure,
    Recovery,
    ResilientProcessGroup,
)
from repro.models import get_model_spec, make_small_vgg
from repro.optim import SGD, make_aggregator
from repro.sim.faults import ChurnEvent, simulate_elastic_trace
from repro.sim.strategies import ClusterSpec
from repro.train import DataParallelTrainer, ResilienceConfig, make_cifar_like

WORLD_SIZE = 3


def train(epochs: int, steps: int):
    """One elastic run; returns (history, group, model)."""
    plan = FaultPlan(
        seed=2,
        permanent=(PermanentFailure(rank=2, call_index=4),),
        recoveries=(Recovery(rank=2, call_index=10),),
        joins=(Join(call_index=16),),
    )
    train_data, test_data = make_cifar_like(num_train=512, num_test=200, seed=3)
    model = make_small_vgg(base_width=8, rng=np.random.default_rng(7))
    group = ResilientProcessGroup(WORLD_SIZE, injector=FaultInjector(plan))
    aggregator = make_aggregator("acpsgd", group, rank=4)
    trainer = DataParallelTrainer(
        model, SGD(model, lr=0.06, momentum=0.9), aggregator,
        train_data, test_data, batch_size_per_worker=16, seed=11,
        resilience=ResilienceConfig(),
    )
    history = trainer.run(epochs, steps, method_label="acpsgd")
    return history, group, model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--steps", type=int, default=12)
    args = parser.parse_args()

    print("=== Part 1: training through membership churn ===")
    history, group, model = train(args.epochs, args.steps)
    print(history.render())
    print("\n--- membership and resilience report ---")
    print(group.resilience_report())

    _, _, replay = train(args.epochs, args.steps)
    max_diff = float(np.abs(
        model.state_vector() - replay.state_vector()
    ).max())
    print(f"\nmax |run - replay| weight difference: {max_diff:g}")
    print("identical churn schedule replayed -> weights "
          + ("MATCH bit-exactly" if max_diff == 0.0 else "DIVERGED"))

    print("\n=== Part 2: wall-clock cost of the same churn trajectory ===")
    spec = get_model_spec("ResNet-50")
    cluster = ClusterSpec(world_size=4)
    trace = simulate_elastic_trace(
        "acpsgd", spec,
        schedule=[ChurnEvent(iteration=30, world_size=3),
                  ChurnEvent(iteration=60, world_size=4),
                  ChurnEvent(iteration=80, world_size=5)],
        iterations=100, cluster=cluster, batch_size=16,
    )
    print(trace.render())
    print("\nShrinking is free (the survivors already hold the state); every "
          "admitted rank pays one model+optimizer broadcast before its first "
          "step.")


if __name__ == "__main__":
    main()
