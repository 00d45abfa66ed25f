#!/usr/bin/env python
"""Verify fault-injected, elastic-churn, bucketed, gossip,
process-worker, worker-crash-recovery, and topology-aware training are
bit-deterministic.

Seven checks, all diffing final weights bit-exactly:

1. the same fault-injected resilient training job run twice — identical
   FaultPlan, identical seeds — must produce identical weights (hidden
   wall-clock or unseeded randomness in the fault/recovery path shows up
   here);
2. the same elastic-churn job — a rank ejected, readmitted, then a
   brand-new rank joined mid-run — replayed twice must produce identical
   weights (unseeded state in the admission protocol: warm-start, rng
   allocation, re-sharding, ring re-chunk, shows up here);
3. the same clean training job run monolithically (``buffer_bytes=None``,
   the one-bucket case of the staged protocol) and through the N-bucket
   WFBP reducer pipeline must produce identical weights for all nine
   methods (any dependence of the segmented collectives / staged
   compression on the bucket partition or on eager firing shows up
   here);
4. the same open-membership gossip run — adversarial peers (sign-flip +
   corrupt-payload) plus churn (departure, return, fresh join via store
   replay) — replayed twice must produce identical honest weights and the
   identical quarantine record (unseeded state in the publish path, the
   peer scorer, or the donor-less admission replay shows up here);
5. the same clean training job run sequentially and with process workers
   (``workers="process"``: child processes writing gradients into
   shared-memory arena slabs) must produce identical weights for all
   nine methods — including a BatchNorm model and an elastic
   eject -> rejoin -> scale-up churn replay (cross-process rng-stream,
   shard, weight-broadcast, or BatchNorm-replay drift shows up here);
6. a supervised run whose worker child is SIGKILLed mid-step must
   recover bit-identically: under the ``"restart"`` policy the child is
   respawned and the task retried with the rank's stream as the trainer
   held it before the step (the task carries it; the child keeps none) —
   the weights must match the fault-free run exactly; under the ``"eject"``
   policy the rank is ejected at the boundary and later readmitted — the
   process-worker run must match a sequential run of the same
   WorkerFault schedule, and both must log the same eject -> rejoin
   membership record (respawn-state, retry-replay, or stale-slab drift
   shows up here);
7. the same clean training job run over the flat ring and over the
   topology-aware hierarchical all-reduce
   (``ProcessGroup(world, topology=...)``) must produce identical
   weights for all nine methods, monolithic and bucketed, on
   a degenerate single-node topology and a 2-node x 2-GPU one (any
   re-association of the reduction in the two-level schedule shows up
   here).

Usage:
    python scripts/check_determinism.py [--steps 6]
Exit code 0 when all seven PASS, 1 otherwise.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.faults import (
    FaultInjector,
    FaultPlan,
    ResilientProcessGroup,
    TransientFailure,
)
from repro.models import make_small_vgg
from repro.optim import SGD, make_aggregator
from repro.train import DataParallelTrainer, ResilienceConfig, make_cifar_like


def run_once(steps: int) -> np.ndarray:
    plan = FaultPlan(
        seed=7,
        drop_rate=0.05,
        corrupt_rate=0.05,
        corrupt_mode="bitflip",
        straggler_rate=0.1,
        transient=(TransientFailure(rank=0, call_index=3, attempts=1),),
    )
    train_data, test_data = make_cifar_like(num_train=256, num_test=64, seed=3)
    model = make_small_vgg(base_width=4, rng=np.random.default_rng(5))
    group = ResilientProcessGroup(2, injector=FaultInjector(plan))
    aggregator = make_aggregator("acpsgd", group, rank=2)
    trainer = DataParallelTrainer(
        model, SGD(model, lr=0.05, momentum=0.9), aggregator,
        train_data, test_data, batch_size_per_worker=8, seed=13,
        resilience=ResilienceConfig(),
    )
    trainer.run(epochs=1, steps_per_epoch=steps, method_label="acpsgd")
    return model.state_vector()


def run_churn(steps: int, workers: str = "seq") -> np.ndarray:
    """An elastic run: eject -> rejoin -> scale-up, all within ``steps``."""
    from repro.faults import Join, PermanentFailure, Recovery

    plan = FaultPlan(
        seed=7,
        permanent=(PermanentFailure(rank=2, call_index=2),),
        recoveries=(Recovery(rank=2, call_index=5),),
        joins=(Join(call_index=8),),
    )
    train_data, test_data = make_cifar_like(num_train=256, num_test=64, seed=3)
    model = make_small_vgg(base_width=4, rng=np.random.default_rng(5))
    group = ResilientProcessGroup(3, injector=FaultInjector(plan))
    aggregator = make_aggregator("acpsgd", group, rank=2)
    trainer = DataParallelTrainer(
        model, SGD(model, lr=0.05, momentum=0.9), aggregator,
        train_data, test_data, batch_size_per_worker=8, seed=13,
        resilience=ResilienceConfig(), workers=workers,
    )
    with trainer:
        trainer.run(epochs=1, steps_per_epoch=steps, method_label="acpsgd")
    changes = [change.kind for change in group.changes]
    if changes != ["eject", "rejoin", "join"]:
        raise RuntimeError(
            f"churn schedule did not play out as planned: {changes}"
        )
    return model.state_vector()


def run_bucketed(
    steps: int, method: str, buffer_bytes, workers: str = "seq",
    world: int = 2, topology=None,
) -> np.ndarray:
    """A clean run: monolithic (buffer_bytes=None) or bucketed, any backend,
    flat ring or (with ``topology``) hierarchical two-level all-reduce."""
    from repro.comm import ProcessGroup

    train_data, test_data = make_cifar_like(num_train=256, num_test=64, seed=3)
    model = make_small_vgg(base_width=4, rng=np.random.default_rng(5))
    kwargs = {"rank": 2} if method in ("powersgd", "acpsgd") else {}
    aggregator = make_aggregator(
        method, ProcessGroup(world, topology=topology), **kwargs
    )
    trainer = DataParallelTrainer(
        model, SGD(model, lr=0.05, momentum=0.9), aggregator,
        train_data, test_data, batch_size_per_worker=8, seed=13,
        buffer_bytes=buffer_bytes, workers=workers,
    )
    with trainer:
        trainer.run(epochs=1, steps_per_epoch=steps, method_label=method)
    return model.state_vector()


def run_gossip(windows: int):
    """A seeded gossip run with attackers and churn; returns
    (honest weights, quarantine record)."""
    from repro.faults import Join, PeerFault, PermanentFailure, Recovery
    from repro.gossip import GossipCluster, GossipConfig
    from repro.models import make_mlp
    from repro.train import ArrayDataset

    rng = np.random.default_rng(3)
    weights = rng.normal(size=(6, 3))
    inputs = rng.normal(size=(320, 6))
    labels = (inputs @ weights).argmax(axis=1)
    train_data = ArrayDataset(inputs[:256], labels[:256])
    test_data = ArrayDataset(inputs[256:], labels[256:])

    def factory():
        return make_mlp(6, 16, 3, rng=np.random.default_rng(5))

    plan = FaultPlan(
        seed=7,
        peer_faults=(
            PeerFault("sign-flip", rank=4, start_window=0),
            PeerFault("corrupt-payload", rank=3, start_window=1),
        ),
        permanent=(PermanentFailure(rank=1, call_index=3),),
        recoveries=(Recovery(rank=1, call_index=6),),
        joins=(Join(call_index=5),),
    )
    cluster = GossipCluster(
        factory, train_data, test_data,
        GossipConfig(local_steps=2, lr=0.1, compression_ratio=0.2),
        plan=plan, peers=5, seed=13,
    )
    report = cluster.run(windows)
    return cluster.honest_peers()[0].state_vector(), dict(report.quarantined)


def run_supervised(steps: int, workers: str, on_failure):
    """A supervised run with a worker child SIGKILLed mid-step (rank 1,
    step 1). Returns (weights, kinds of the group's roster changes)."""
    from repro.faults import SupervisionPolicy, WorkerFault

    plan = (
        FaultPlan(seed=7, worker_faults=(WorkerFault("crash", rank=1, step=1),))
        if on_failure is not None else FaultPlan(seed=7)
    )
    train_data, test_data = make_cifar_like(num_train=256, num_test=64, seed=3)
    model = make_small_vgg(base_width=4, rng=np.random.default_rng(5))
    group = ResilientProcessGroup(2, injector=FaultInjector(plan))
    policy = (
        SupervisionPolicy(on_failure=on_failure, respawn_delay_steps=2)
        if on_failure is not None else None
    )
    trainer = DataParallelTrainer(
        model, SGD(model, lr=0.05, momentum=0.9),
        make_aggregator("ssgd", group),
        train_data, test_data, batch_size_per_worker=8, seed=13,
        workers=workers, supervision=policy, worker_step_timeout=30.0,
    )
    with trainer:
        trainer.run(epochs=1, steps_per_epoch=steps, method_label="ssgd")
    return model.state_vector(), [change.kind for change in group.changes]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=6)
    args = parser.parse_args()

    failures = 0
    first = run_once(args.steps)
    second = run_once(args.steps)
    if np.array_equal(first, second):
        print(f"PASS: two fault-injected runs of {args.steps} steps produced "
              "bit-identical weights")
    else:
        diff = float(np.abs(first - second).max())
        print(f"FAIL: weight mismatch between identical runs "
              f"(max |diff| = {diff:g})")
        failures += 1

    churn_steps = max(args.steps, 6)  # the schedule needs room to play out
    churn_first = run_churn(churn_steps)
    churn_second = run_churn(churn_steps)
    if np.array_equal(churn_first, churn_second):
        print(f"PASS: two elastic-churn runs (eject -> rejoin -> scale-up, "
              f"{churn_steps} steps) produced bit-identical weights")
    else:
        diff = float(np.abs(churn_first - churn_second).max())
        print(f"FAIL: elastic-churn replay diverged "
              f"(max |diff| = {diff:g})")
        failures += 1

    # Every name ``make_aggregator`` accepts: all of them stage.
    bucketed_methods = (
        "ssgd", "signsgd", "topk", "randomk", "qsgd", "terngrad",
        "powersgd", "acpsgd", "dgc",
    )
    mismatched = []
    sequential_monolithic = {}
    for method in bucketed_methods:
        monolithic = run_bucketed(args.steps, method, buffer_bytes=None)
        sequential_monolithic[method] = monolithic
        bucketed = run_bucketed(args.steps, method, buffer_bytes=64 * 1024)
        if not np.array_equal(monolithic, bucketed):
            diff = float(np.abs(monolithic - bucketed).max())
            mismatched.append(f"{method} (max |diff| = {diff:g})")
    if not mismatched:
        print(f"PASS: bucketed (WFBP reducer) and monolithic runs of "
              f"{args.steps} steps produced bit-identical weights for "
              f"{', '.join(bucketed_methods)}")
    else:
        print(f"FAIL: bucketed weights diverge from monolithic for "
              f"{'; '.join(mismatched)}")
        failures += 1

    gossip_windows = max(args.steps, 8)  # attackers + churn need room
    gossip_first, quarantine_first = run_gossip(gossip_windows)
    gossip_second, quarantine_second = run_gossip(gossip_windows)
    if (np.array_equal(gossip_first, gossip_second)
            and quarantine_first == quarantine_second
            and set(quarantine_first) == {"peer-003", "peer-004"}):
        print(f"PASS: two adversarial gossip runs ({gossip_windows} windows, "
              "sign-flip + corrupt-payload + churn) produced bit-identical "
              "honest weights and quarantine records")
    else:
        diff = float(np.abs(gossip_first - gossip_second).max())
        print(f"FAIL: gossip replay diverged (max weight |diff| = {diff:g}; "
              f"quarantined {quarantine_first} vs {quarantine_second})")
        failures += 1

    # Check 5: process workers (shared-memory slabs) vs the sequential
    # path — per method (reusing check 3's sequential baselines; the
    # small-VGG model exercises BatchNorm stat replay across processes)
    # and through the elastic churn schedule (reusing check 2's
    # sequential-churn baseline).
    process_mismatched = []
    for method in bucketed_methods:
        process = run_bucketed(
            args.steps, method, buffer_bytes=None, workers="process"
        )
        baseline = sequential_monolithic[method]
        if not np.array_equal(baseline, process):
            diff = float(np.abs(baseline - process).max())
            process_mismatched.append(f"{method} (max |diff| = {diff:g})")
    churn_process = run_churn(churn_steps, workers="process")
    if not np.array_equal(churn_first, churn_process):
        diff = float(np.abs(churn_first - churn_process).max())
        process_mismatched.append(f"elastic churn (max |diff| = {diff:g})")
    if not process_mismatched:
        print(f"PASS: process-worker runs of {args.steps} steps (incl. "
              f"BatchNorm replay and an eject -> rejoin -> scale-up churn "
              f"replay over {churn_steps} steps) are bit-identical to "
              f"sequential for {', '.join(bucketed_methods)}")
    else:
        print(f"FAIL: process-worker weights diverge from sequential for "
              f"{'; '.join(process_mismatched)}")
        failures += 1

    # Check 6: a worker child SIGKILLed mid-step (crash WorkerFault at
    # rank 1, step 1) must recover bit-identically under both
    # supervision rungs.
    supervision_failed = []
    clean, _ = run_supervised(args.steps, "process", None)
    restarted, _ = run_supervised(args.steps, "process", "restart")
    if not np.array_equal(clean, restarted):
        diff = float(np.abs(clean - restarted).max())
        supervision_failed.append(
            f"restart diverged from fault-free (max |diff| = {diff:g})"
        )
    eject_steps = max(args.steps, 5)  # eject + scheduled rejoin need room
    ejected, eject_log = run_supervised(eject_steps, "process", "eject")
    twin, twin_log = run_supervised(eject_steps, "seq", "eject")
    if not np.array_equal(ejected, twin):
        diff = float(np.abs(ejected - twin).max())
        supervision_failed.append(
            f"eject diverged from sequential twin (max |diff| = {diff:g})"
        )
    if not eject_log == twin_log == ["eject", "rejoin"]:
        supervision_failed.append(
            f"eject -> rejoin record wrong: {eject_log} vs {twin_log}"
        )
    if not supervision_failed:
        print(f"PASS: worker-crash recovery over {args.steps} steps (child "
              "SIGKILLed mid-step) is bit-identical — restart matches the "
              "fault-free run, eject -> respawn -> rejoin matches the "
              "sequential twin")
    else:
        print(f"FAIL: worker-crash recovery drifted: "
              f"{'; '.join(supervision_failed)}")
        failures += 1

    # Check 7: the topology-aware hierarchical all-reduce must be
    # bit-identical to the flat ring — monolithic and bucketed — for all
    # nine methods, on a single 2-GPU node (degenerate hierarchy)
    # and on 2 nodes x 2 GPUs (real two-level schedule). The canonical-fold
    # contract of repro.comm.hierarchical is what this enforces.
    from repro.comm import ClusterTopology
    from repro.comm.cost_model import ETHERNET_10G
    from repro.comm.topology import NVLINK2

    topology_mismatched = []
    for world, nodes in ((2, 1), (4, 2)):
        topology = ClusterTopology(
            num_nodes=nodes, gpus_per_node=world // nodes,
            intra_link=NVLINK2, inter_link=ETHERNET_10G,
        )
        for method in bucketed_methods:
            if world == 2:
                flat = sequential_monolithic[method]
            else:
                flat = run_bucketed(
                    args.steps, method, buffer_bytes=None, world=world
                )
            for buffer_bytes, label in ((None, "monolithic"),
                                        (64 * 1024, "bucketed")):
                hier = run_bucketed(
                    args.steps, method, buffer_bytes=buffer_bytes,
                    world=world, topology=topology,
                )
                if not np.array_equal(flat, hier):
                    diff = float(np.abs(flat - hier).max())
                    topology_mismatched.append(
                        f"{method} {label} {nodes}x{world // nodes} "
                        f"(max |diff| = {diff:g})"
                    )
    if not topology_mismatched:
        print(f"PASS: hierarchical (topology-aware) all-reduce runs of "
              f"{args.steps} steps are bit-identical to the flat ring for "
              f"{', '.join(bucketed_methods)} (monolithic + bucketed, "
              "1x2 and 2x2 topologies)")
    else:
        print(f"FAIL: hierarchical all-reduce diverges from the flat ring "
              f"for {'; '.join(topology_mismatched)}")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
