"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

- ``simulate`` — one iteration of a method on a simulated cluster, with an
  optional Chrome-trace export of the timeline;
- ``autotune`` — search the fusion buffer size minimizing iteration time;
- ``train`` — a small data-parallel convergence run on synthetic data;
  ``--resilient`` arms the fault-tolerance stack (injected communication
  faults + self-healing collectives + trainer recovery ladder);
- ``elastic`` — elastic-membership demo: a rank dies mid-run, later
  rejoins, and a brand-new rank joins, all committed at step boundaries
  with state warm-start and dataset re-sharding;
- ``gossip`` — open-membership gossip training demo: peers exchange
  compressed updates through a shared store, a configurable fraction of
  them is adversarial, and the peer scorer quarantines every attacker;
- ``faults`` — straggler/drop sensitivity of each method's iteration time
  (the "what does a 3-sigma straggler do to ACP-SGD vs S-SGD" question);
- ``chaos`` — seeded randomized chaos campaigns across worker-process
  supervision, elastic eject/rejoin, and gossip-over-faulty-store runs,
  asserting bit-identity, zero shm leaks, and reconciling fault stats
  under a global deadlock timeout;
- ``plan`` — one-shot deployment recommendation (``--json`` emits the
  versioned schema the planning service serves);
- ``serve`` — capacity-planning service loop: JSONL queries on stdin (or
  ``--input``), canonical JSONL plans on stdout, backed by the
  memoized LRU result cache with single-flight de-duplication;
- ``evaluate`` — regenerate the paper's tables/figures (wraps the
  experiment drivers; ``--fast`` skips the convergence figures);
- ``bench`` — hot-path micro-benchmark: per-aggregator step time and
  fused-allocation counts on the zero-copy arena, written to JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.models import get_model_spec
from repro.models.registry import UnknownModelError
from repro.sim.calibration import SIM_LINKS
from repro.sim.strategies import ALL_METHODS, ClusterSpec, SystemConfig

MB = 1024 * 1024


_INTRA_LINKS = ("NVLink2", "PCIe3x16")


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="BERT-Base",
                        help="ResNet-50 | ResNet-152 | BERT-Base | BERT-Large | ...")
    parser.add_argument("--gpus", type=int, default=32)
    parser.add_argument("--link", default="10GbE", choices=sorted(SIM_LINKS))
    parser.add_argument("--rank", type=int, default=32,
                        help="low-rank compression rank")
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--nodes", type=int, default=0,
                        help="model a two-level topology of this many nodes "
                             "(--gpus must divide evenly; 0 = flat ring "
                             "over --link)")
    parser.add_argument("--intra-link", default="NVLink2",
                        choices=_INTRA_LINKS,
                        help="intra-node GPU link for --nodes topologies")


def _topology_from(args: argparse.Namespace):
    """The ClusterTopology requested via --nodes/--intra-link, or None."""
    if not getattr(args, "nodes", 0):
        return None
    from repro.comm.topology import NVLINK2, PCIE3_X16, ClusterTopology

    if args.gpus % args.nodes != 0:
        raise ValueError(
            f"--gpus {args.gpus} is not divisible by --nodes {args.nodes}"
        )
    intra = NVLINK2 if args.intra_link == "NVLink2" else PCIE3_X16
    return ClusterTopology(
        num_nodes=args.nodes,
        gpus_per_node=args.gpus // args.nodes,
        intra_link=intra,
        inter_link=SIM_LINKS[args.link],
    )


def _cluster_from(args: argparse.Namespace) -> ClusterSpec:
    return ClusterSpec(world_size=args.gpus, link=SIM_LINKS[args.link],
                       topology=_topology_from(args))


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.strategies import simulate_iteration, simulate_iteration_records
    from repro.sim.trace import write_chrome_trace

    spec = get_model_spec(args.model)
    system = SystemConfig(
        wfbp=not args.no_wfbp,
        tensor_fusion=not args.no_tf,
        buffer_bytes=args.buffer_mb * MB,
    )
    breakdown = simulate_iteration(
        args.method, spec, cluster=_cluster_from(args), system=system,
        rank=args.rank, batch_size=args.batch_size,
    )
    print(breakdown.render(f"{args.method} / {args.model} / "
                           f"{args.gpus}x{args.link}"))
    if args.trace:
        records = simulate_iteration_records(
            args.method, spec, cluster=_cluster_from(args), system=system,
            rank=args.rank, batch_size=args.batch_size,
        )
        write_chrome_trace(records, args.trace)
        print(f"wrote timeline to {args.trace} (open in chrome://tracing)")
    return 0


def cmd_autotune(args: argparse.Namespace) -> int:
    from repro.sim.autotune import autotune_buffer_size

    spec = get_model_spec(args.model)
    result = autotune_buffer_size(
        args.method, spec, cluster=_cluster_from(args), rank=args.rank,
        batch_size=args.batch_size,
    )
    print(f"best buffer: {result.best_buffer_mb:.2f}MB "
          f"-> {result.best_time * 1e3:.1f}ms/iteration")
    for buffer_bytes in sorted(result.evaluated):
        marker = "  <-- best" if buffer_bytes == result.best_buffer_bytes else ""
        print(f"  {buffer_bytes / MB:8.2f}MB  "
              f"{result.evaluated[buffer_bytes] * 1e3:8.1f}ms{marker}")
    return 0


def _method_trainer(args, model, group, train_data, test_data, resilience):
    """The trainer ``train`` and ``elastic`` run: ``args.method``'s
    aggregator under SGD with momentum 0.9, or none for DGC, whose
    momentum correction is the method's own."""
    from repro.optim import SGD, make_aggregator
    from repro.train import DataParallelTrainer

    kwargs = {"rank": args.rank} if args.method in ("powersgd", "acpsgd") else {}
    momentum = 0.0 if args.method == "dgc" else 0.9
    return DataParallelTrainer(
        model, SGD(model, lr=args.lr, momentum=momentum),
        make_aggregator(args.method, group, **kwargs),
        train_data, test_data, batch_size_per_worker=args.batch_size,
        seed=args.seed + 2, resilience=resilience,
    )


def cmd_train(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.comm import ProcessGroup
    from repro.models import make_small_resnet, make_small_vgg
    from repro.train import ResilienceConfig, make_cifar_like

    train_data, test_data = make_cifar_like(
        num_train=args.samples, num_test=max(100, args.samples // 4),
        seed=args.seed,
    )
    rng = np.random.default_rng(args.seed + 1)
    if args.arch == "vgg":
        model = make_small_vgg(rng=rng)
    else:
        model = make_small_resnet(rng=rng)
    resilience = None
    if args.resilient:
        from repro.faults import FaultInjector, FaultPlan, ResilientProcessGroup

        injector = None
        if args.drop_rate > 0 or args.corrupt_rate > 0 or args.straggler_rate > 0:
            injector = FaultInjector(FaultPlan(
                seed=args.fault_seed,
                drop_rate=args.drop_rate,
                corrupt_rate=args.corrupt_rate,
                straggler_rate=args.straggler_rate,
            ))
        group = ResilientProcessGroup(args.workers, injector=injector)
        resilience = ResilienceConfig()
    else:
        group = ProcessGroup(args.workers)
    trainer = _method_trainer(
        args, model, group, train_data, test_data, resilience
    )
    history = trainer.run(args.epochs, args.steps_per_epoch,
                          method_label=args.method)
    print(history.render())
    print(f"final accuracy {history.final_accuracy:.1%}; "
          f"wire traffic {group.total_bytes() / MB:.1f}MB")
    if args.resilient:
        print("--- communication resilience ---")
        print(group.resilience_report())
        if trainer.resilience_log is not None:
            print("--- trainer resilience ---")
            print(trainer.resilience_log.render())
    return 0


def cmd_elastic(args: argparse.Namespace) -> int:
    """Elastic-membership demo: a rank dies, rejoins, and a new one joins."""
    import numpy as np

    from repro.faults import (
        FaultInjector, FaultPlan, Join, PermanentFailure, Recovery,
        ResilientProcessGroup,
    )
    from repro.models import make_small_resnet
    from repro.train import ResilienceConfig, make_cifar_like

    if args.workers < 2:
        raise ValueError(
            f"--workers must be >= 2, got {args.workers}: the demo ejects "
            f"rank {args.workers - 1} and needs a survivor"
        )
    train_data, test_data = make_cifar_like(
        num_train=args.samples, num_test=max(100, args.samples // 4),
        seed=args.seed,
    )
    model = make_small_resnet(rng=np.random.default_rng(args.seed + 1))
    plan = FaultPlan(
        seed=args.fault_seed,
        permanent=(PermanentFailure(rank=args.workers - 1,
                                    call_index=args.fail_call),),
        recoveries=(Recovery(rank=args.workers - 1,
                             call_index=args.rejoin_call),),
        joins=(Join(call_index=args.join_call),),
    )
    group = ResilientProcessGroup(args.workers, injector=FaultInjector(plan))
    trainer = _method_trainer(
        args, model, group, train_data, test_data, ResilienceConfig()
    )
    history = trainer.run(args.epochs, args.steps_per_epoch,
                          method_label=args.method)
    print(history.render())
    print(f"final accuracy {history.final_accuracy:.1%}; "
          f"wire traffic {group.total_bytes() / MB:.1f}MB")
    print("--- membership and communication resilience ---")
    print(group.resilience_report())
    return 0


def cmd_gossip(args: argparse.Namespace) -> int:
    """Open-membership gossip demo: adversarial peers get quarantined."""
    import numpy as np

    from repro.faults import FaultPlan, PeerFault
    from repro.gossip import (
        FilesystemStore, GossipCluster, GossipConfig, InMemoryStore,
    )
    from repro.models import make_mlp
    from repro.sim.gossip import GossipWindowSpec, render_window_sweep
    from repro.train import ArrayDataset, make_cifar_like

    if args.adversaries >= args.peers / 2:
        raise ValueError(
            f"--adversaries {args.adversaries} is not an honest-majority "
            f"roster at --peers {args.peers}"
        )
    train_images, test_images = make_cifar_like(
        num_train=args.samples, num_test=max(100, args.samples // 4),
        image_size=8, seed=args.seed,
    )
    train_data = ArrayDataset(
        train_images.inputs.reshape(len(train_images), -1),
        train_images.labels,
    )
    test_data = ArrayDataset(
        test_images.inputs.reshape(len(test_images), -1),
        test_images.labels,
    )
    in_features = train_data.inputs.shape[1]
    num_classes = train_data.num_classes

    def factory():
        return make_mlp(
            in_features, args.hidden, num_classes,
            rng=np.random.default_rng(args.seed + 1),
        )

    kinds = [k.strip() for k in args.adversary_kinds.split(",") if k.strip()]
    peer_faults = tuple(
        PeerFault(kinds[i % len(kinds)], rank=args.peers - 1 - i)
        for i in range(args.adversaries)
    )
    plan = FaultPlan(seed=args.fault_seed, peer_faults=peer_faults)
    store = FilesystemStore(args.store_dir) if args.store_dir else InMemoryStore()
    config = GossipConfig(
        local_steps=args.local_steps,
        batch_size=args.batch_size,
        lr=args.lr,
        compression_ratio=args.compression_ratio,
        store_retention=args.retention if args.retention > 0 else None,
    )
    cluster = GossipCluster(
        factory, train_data, test_data, config, plan=plan,
        peers=args.peers, store=store, seed=args.seed + 2,
    )
    report = cluster.run(args.windows)
    print(report.render())
    print("--- peer trust (reference peer's view) ---")
    print(cluster.reference_peer().scorer.render())
    if args.window_sweep:
        update_bytes = len(
            cluster.reference_peer().make_update(args.windows)
        )
        spec = GossipWindowSpec(
            peers=args.peers,
            update_bytes=update_bytes,
            step_time_s=args.step_time_ms * 1e-3,
            churn_per_step=args.churn_per_step,
        )
        print("--- window economy ---")
        print(render_window_sweep(spec, SIM_LINKS[args.link]))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.sim.faults import (
        FaultModel,
        compare_methods_under_faults,
        render_fault_comparison,
    )

    spec = get_model_spec(args.model)
    fault_model = FaultModel(
        straggler_prob=args.straggler_prob,
        straggler_sigma=args.straggler_sigma,
        drop_rate=args.drop_rate,
        retry_timeout_s=args.retry_timeout_ms * 1e-3,
        rank_down_s=args.rank_down_ms * 1e-3,
    )
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in ALL_METHODS:
            raise ValueError(
                f"unknown method {method!r}; available: {', '.join(ALL_METHODS)}"
            )
    traces = compare_methods_under_faults(
        methods, spec, fault_model, cluster=_cluster_from(args),
        rank=args.rank, batch_size=args.batch_size,
        iterations=args.iterations, seed=args.seed,
    )
    print(f"{args.model} on {args.gpus}x{args.link}: "
          f"straggler_prob={fault_model.straggler_prob} "
          f"sigma={fault_model.straggler_sigma} "
          f"drop_rate={fault_model.drop_rate} "
          f"({args.iterations} iterations)")
    print(render_fault_comparison(traces))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.planner import plan

    result = plan(
        args.model, gpus=args.gpus, link=args.link, rank=args.rank,
        batch_size=args.batch_size, tune_buffer=not args.no_tune,
        topology=_topology_from(args),
    )
    if args.json:
        import json

        from repro.serve.schema import plan_to_dict

        # The exact schema the planning service caches and streams — one
        # serialization, two frontends (see docs/planner_service.md).
        print(json.dumps(plan_to_dict(result), indent=2, sort_keys=True))
        return 0
    print(result.render())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """JSONL planning loop: queries in, canonical plan documents out."""
    from repro.serve import PlannerService, ResultCache, serve_jsonl

    service = PlannerService(
        cache=ResultCache(capacity=args.capacity),
        max_workers=args.workers,
    )
    try:
        if args.warm_start:
            models = None
            if args.warm_models:
                models = [m.strip() for m in args.warm_models.split(",")
                          if m.strip()]
            computed = service.warm_start(models=models)
            print(f"warm start: {computed} grid points precomputed",
                  file=sys.stderr)
        in_handle = (sys.stdin if args.input == "-"
                     else open(args.input, "r", encoding="utf-8"))
        out_handle = (sys.stdout if args.output == "-"
                      else open(args.output, "w", encoding="utf-8"))
        try:
            for line in serve_jsonl(in_handle, service,
                                    batch_size=args.batch_lines):
                out_handle.write(line + "\n")
            out_handle.flush()
        finally:
            if in_handle is not sys.stdin:
                in_handle.close()
            if out_handle is not sys.stdout:
                out_handle.close()
        stats = service.stats()
        cache = stats["cache"]
        print(f"served: {cache['hits'] + cache['misses']} lookups, "
              f"{stats['computes']} simulator runs, "
              f"hit rate {cache['hit_rate']:.1%}, "
              f"generation {stats['generation']}", file=sys.stderr)
    finally:
        service.close()
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.json:
        from repro.experiments.export import export_json

        export_json(args.json, fast=args.fast)
        print(f"wrote structured results to {args.json}")
        return 0
    from repro.experiments.report import render_full_report

    render_full_report(fast=args.fast)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import signal

    from repro.chaos import SCENARIOS, run_campaigns

    scenarios = (
        [s.strip() for s in args.scenarios.split(",") if s.strip()]
        if args.scenarios
        else list(SCENARIOS)
    )

    def on_timeout(signum, frame):
        raise TimeoutError(
            f"chaos run exceeded the global {args.timeout}s budget — "
            f"a campaign deadlocked"
        )

    armed = hasattr(signal, "SIGALRM") and args.timeout > 0
    if armed:
        previous = signal.signal(signal.SIGALRM, on_timeout)
        signal.alarm(args.timeout)
    try:
        report = run_campaigns(
            scenarios=scenarios,
            campaigns=args.campaigns,
            seed=args.seed,
            log=print,
        )
    finally:
        if armed:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    print(report.render().splitlines()[-1])
    return 0 if report.passed else 1


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    # Imported lazily: bench pulls in the aggregators, which import the
    # perf counters — keeping this out of module scope avoids the cycle.
    from repro.perf.bench import run_hot_path_bench

    methods = None
    if args.methods:
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    buffer_sizes_mb = None
    if args.buffer_sizes:
        buffer_sizes_mb = [
            float(s.strip()) for s in args.buffer_sizes.split(",") if s.strip()
        ]
    elif args.no_buffer_sweep:
        buffer_sizes_mb = []
    worker_modes = None
    if args.workers:
        worker_modes = [
            m.strip() for m in args.workers.split(",")
            if m.strip() and m.strip() != "none"
        ]
        for mode in worker_modes:
            if mode not in ("seq", "process"):
                raise ValueError(f"unknown worker backend {mode!r} "
                                 "(expected seq, process, or none)")
        if "process" in worker_modes and "seq" not in worker_modes:
            # The acceptance criterion is process-vs-seq: measuring
            # process alone would record a speedup over nothing.
            worker_modes.insert(worker_modes.index("process"), "seq")
    report = run_hot_path_bench(
        world_size=args.world_size,
        base_width=args.base_width,
        iters=args.iters,
        warmup=args.warmup,
        seed=args.seed,
        methods=methods,
        buffer_sizes_mb=buffer_sizes_mb,
        worker_modes=worker_modes,
    )
    config = report["config"]
    print(f"hot-path bench: {config['model_parameters']} params, "
          f"{config['world_size']} workers, best of {config['iters']}")
    print(f"{'method':>10}  {'best ms':>10}  {'mean ms':>10}  {'fused allocs':>12}")
    for method, row in report["aggregate_step"].items():
        print(f"{method:>10}  {row['best_s'] * 1e3:>10.2f}  "
              f"{row['mean_s'] * 1e3:>10.2f}  "
              f"{row['fused_allocs_per_step']:>12.0f}")
    print("fused allocs/step, worst method: "
          f"{report['criteria']['arena_fused_allocs_per_step']:.0f}")
    if "buffer_sweep" in report:
        print(f"{'buffer MB':>10}  {'buckets':>8}  {'step ms':>8}")
        for row in report["buffer_sweep"]:
            print(f"{row['buffer_mbytes']:>10.2f}  {row['num_buckets']:>8}  "
                  f"{row['best_s'] * 1e3:>8.2f}")
    if "worker_modes" in report:
        print(f"worker backends ({config['cpu_count']} cpu):")
        print(f"{'method':>10}  {'backend':>8}  {'step ms':>8}  "
              f"{'worker ms':>9}  {'aggregate ms':>12}  {'bcast ms':>8}")
        for method, rows in report["worker_modes"].items():
            for mode, row in rows.items():
                if mode == "process_vs_seq_speedup":
                    continue
                print(f"{method:>10}  {mode:>8}  {row['best_s'] * 1e3:>8.2f}  "
                      f"{row['worker_mean_s'] * 1e3:>9.2f}  "
                      f"{row['aggregate_mean_s'] * 1e3:>12.2f}  "
                      f"{row['broadcast_mean_s'] * 1e3:>8.2f}")
            speedup = rows.get("process_vs_seq_speedup")
            if speedup is not None:
                print(f"{method:>10}  process vs seq: {speedup:.2f}x")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote report to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ACP-SGD gradient-compression reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one training iteration")
    p_sim.add_argument("--method", default="acpsgd", choices=ALL_METHODS)
    _add_cluster_args(p_sim)
    p_sim.add_argument("--buffer-mb", type=float, default=25.0)
    p_sim.add_argument("--no-wfbp", action="store_true")
    p_sim.add_argument("--no-tf", action="store_true")
    p_sim.add_argument("--trace", default="",
                       help="write a chrome://tracing JSON timeline here")
    p_sim.set_defaults(func=cmd_simulate)

    p_tune = sub.add_parser("autotune", help="tune the fusion buffer size")
    p_tune.add_argument("--method", default="acpsgd", choices=ALL_METHODS)
    _add_cluster_args(p_tune)
    p_tune.set_defaults(func=cmd_autotune)

    p_train = sub.add_parser("train", help="small data-parallel training run")
    p_train.add_argument("--method", default="acpsgd")
    p_train.add_argument("--arch", default="vgg", choices=("vgg", "resnet"))
    p_train.add_argument("--workers", type=int, default=4)
    p_train.add_argument("--epochs", type=int, default=5)
    p_train.add_argument("--steps-per-epoch", type=int, default=12)
    p_train.add_argument("--batch-size", type=int, default=32)
    p_train.add_argument("--samples", type=int, default=1600)
    p_train.add_argument("--lr", type=float, default=0.08)
    p_train.add_argument("--rank", type=int, default=4)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--resilient", action="store_true",
                         help="use ResilientProcessGroup + trainer recovery "
                              "ladder (arm the fault-tolerance stack)")
    p_train.add_argument("--drop-rate", type=float, default=0.0,
                         help="injected per-rank payload drop probability")
    p_train.add_argument("--corrupt-rate", type=float, default=0.0,
                         help="injected per-rank payload corruption probability")
    p_train.add_argument("--straggler-rate", type=float, default=0.0,
                         help="injected per-rank straggler probability")
    p_train.add_argument("--fault-seed", type=int, default=0,
                         help="seed for the deterministic fault plan")
    p_train.set_defaults(func=cmd_train)

    p_elastic = sub.add_parser(
        "elastic", help="elastic-membership demo: eject, rejoin, scale up"
    )
    p_elastic.add_argument("--method", default="acpsgd")
    p_elastic.add_argument("--workers", type=int, default=3)
    p_elastic.add_argument("--epochs", type=int, default=4)
    p_elastic.add_argument("--steps-per-epoch", type=int, default=10)
    p_elastic.add_argument("--batch-size", type=int, default=32)
    p_elastic.add_argument("--samples", type=int, default=1200)
    p_elastic.add_argument("--lr", type=float, default=0.08)
    p_elastic.add_argument("--rank", type=int, default=4)
    p_elastic.add_argument("--seed", type=int, default=0)
    p_elastic.add_argument("--fault-seed", type=int, default=0)
    p_elastic.add_argument("--fail-call", type=int, default=6,
                           help="collective call at which the last rank dies")
    p_elastic.add_argument("--rejoin-call", type=int, default=14,
                           help="collective call at which it recovers")
    p_elastic.add_argument("--join-call", type=int, default=22,
                           help="collective call at which a new rank joins")
    p_elastic.set_defaults(func=cmd_elastic)

    p_gossip = sub.add_parser(
        "gossip",
        help="open-membership gossip training with Byzantine peers",
    )
    p_gossip.add_argument("--peers", type=int, default=5)
    p_gossip.add_argument("--windows", type=int, default=20)
    p_gossip.add_argument("--local-steps", type=int, default=3)
    p_gossip.add_argument("--batch-size", type=int, default=16)
    p_gossip.add_argument("--samples", type=int, default=800)
    p_gossip.add_argument("--hidden", type=int, default=24)
    p_gossip.add_argument("--lr", type=float, default=0.3)
    p_gossip.add_argument("--compression-ratio", type=float, default=0.3,
                          help="fraction of momentum coordinates published")
    p_gossip.add_argument("--retention", type=int, default=0,
                          help="store windows kept (0 = keep all, which "
                               "lets joiners replay to bit-identity)")
    p_gossip.add_argument("--adversaries", type=int, default=2,
                          help="number of adversarial peers (must stay a "
                               "minority)")
    p_gossip.add_argument("--adversary-kinds",
                          default="sign-flip,corrupt-payload,free-rider,lagging",
                          help="comma-separated peer-fault kinds, assigned "
                               "round-robin to the adversaries")
    p_gossip.add_argument("--store-dir", default="",
                          help="back the update store with this directory "
                               "(default: in-memory)")
    p_gossip.add_argument("--seed", type=int, default=0)
    p_gossip.add_argument("--fault-seed", type=int, default=0)
    p_gossip.add_argument("--window-sweep", action="store_true",
                          help="also print the window-length economy table")
    p_gossip.add_argument("--link", default="10GbE", choices=sorted(SIM_LINKS))
    p_gossip.add_argument("--step-time-ms", type=float, default=50.0,
                          help="assumed local step time for the sweep")
    p_gossip.add_argument("--churn-per-step", type=float, default=0.002,
                          help="per-step departure probability for the sweep")
    p_gossip.set_defaults(func=cmd_gossip)

    p_faults = sub.add_parser(
        "faults", help="iteration-time sensitivity to stragglers/drops"
    )
    p_faults.add_argument("--methods", default="acpsgd,ssgd",
                          help="comma-separated method list")
    _add_cluster_args(p_faults)
    p_faults.add_argument("--straggler-prob", type=float, default=0.05,
                          help="per-rank per-iteration straggling probability")
    p_faults.add_argument("--straggler-sigma", type=float, default=3.0,
                          help="straggler severity (slowdown 1 + sigma*|z|)")
    p_faults.add_argument("--drop-rate", type=float, default=0.01,
                          help="per-transfer retransmission probability")
    p_faults.add_argument("--retry-timeout-ms", type=float, default=10.0,
                          help="detection timeout per retransmission")
    p_faults.add_argument("--rank-down-ms", type=float, default=0.0,
                          help="rank downtime at iteration start")
    p_faults.add_argument("--iterations", type=int, default=100)
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.set_defaults(func=cmd_faults)

    p_plan = sub.add_parser("plan", help="recommend a method for a deployment")
    _add_cluster_args(p_plan)
    p_plan.add_argument("--no-tune", action="store_true",
                        help="skip the fusion-buffer autotuner")
    p_plan.add_argument("--json", action="store_true",
                        help="emit the plan in the versioned schema the "
                             "planning service uses (repro.serve.schema)")
    p_plan.set_defaults(func=cmd_plan)

    p_serve = sub.add_parser(
        "serve",
        help="capacity-planning service loop: JSONL queries in, plans out",
    )
    p_serve.add_argument("--input", default="-",
                         help="JSONL query file ('-' = stdin); one "
                              "PlanQuery document per line")
    p_serve.add_argument("--output", default="-",
                         help="JSONL plan file ('-' = stdout)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="thread-pool width for uncached queries")
    p_serve.add_argument("--capacity", type=int, default=32768,
                         help="LRU bound on result-cache entries")
    p_serve.add_argument("--batch-lines", type=int, default=64,
                         help="input lines answered per submit_batch")
    p_serve.add_argument("--warm-start", action="store_true",
                         help="precompute the registry-model grid before "
                              "serving")
    p_serve.add_argument("--warm-models", default="",
                         help="comma-separated models for --warm-start "
                              "(default: every registry model)")
    p_serve.set_defaults(func=cmd_serve)

    p_eval = sub.add_parser("evaluate", help="regenerate the paper evaluation")
    p_eval.add_argument("--fast", action="store_true",
                        help="skip the (slow) convergence figures")
    p_eval.add_argument("--json", default="",
                        help="write structured results to this JSON file "
                             "instead of printing tables")
    p_eval.set_defaults(func=cmd_evaluate)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded chaos campaigns across the robustness subsystems",
    )
    p_chaos.add_argument("--campaigns", type=int, default=2,
                         help="campaigns per scenario (each draws its own "
                              "config from the seed)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="root seed; campaign k derives from (seed, k)")
    p_chaos.add_argument("--scenarios", default="",
                         help="comma-separated subset of: workers, elastic, "
                              "gossip (default: all)")
    p_chaos.add_argument("--timeout", type=int, default=600,
                         help="global SIGALRM budget in seconds — a hang "
                              "anywhere fails loudly instead of deadlocking "
                              "(0 disables)")
    p_chaos.set_defaults(func=cmd_chaos)

    p_bench = sub.add_parser(
        "bench", help="hot-path benchmark: aggregation on the zero-copy arena"
    )
    p_bench.add_argument("--world-size", type=int, default=4,
                         help="simulated data-parallel worker count")
    p_bench.add_argument("--workers", default="",
                         help="comma-separated backprop backends to compare "
                              "end-to-end: seq, process (default: both; "
                              "'process' pulls in the seq baseline its "
                              "speedup is measured against; 'none' skips "
                              "the comparison)")
    p_bench.add_argument("--base-width", type=int, default=32,
                         help="VGG width multiplier (model size knob)")
    p_bench.add_argument("--iters", type=int, default=7,
                         help="timed iterations per method/mode (best-of)")
    p_bench.add_argument("--warmup", type=int, default=2)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--methods", default="",
                         help="comma-separated subset (default: all)")
    p_bench.add_argument("--buffer-sizes", default="",
                         help="comma-separated fusion buffer sizes in MB for "
                              "the bucketed S-SGD sweep (default: "
                              "0.25,1,4,16)")
    p_bench.add_argument("--no-buffer-sweep", action="store_true",
                         help="skip the fusion buffer-size sweep")
    p_bench.add_argument("--output", default="BENCH_hotpath.json",
                         help="JSON report path ('' to skip writing)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, UnknownModelError) as exc:
        # Values argparse cannot vet fail the library's own validation.
        message = exc.args[0] if exc.args else repr(exc)
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
