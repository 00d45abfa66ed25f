"""Cross-subsystem chaos harness: seeded campaigns, hard invariants.

Every robustness mechanism in this repo was built against a *specific*
failure injected by a *specific* test. This module composes them: one
seeded campaign draws a random scenario configuration — world size,
aggregation method, worker-fault schedule, supervision policy, store
fault rates — runs it end to end, and asserts the properties the
subsystems promise *jointly*, not one mock at a time:

- **bit-identity where guaranteed** — a ``"restart"``-supervised process
  run with injected child crashes/hangs must match the fault-free run
  bit for bit; an ``"eject"``-supervised process run must match its
  sequential twin handling the same fault schedule; a gossip run over a
  :class:`~repro.gossip.FaultyStore` must replay bit-identically under
  the same seeds;
- **zero leaked shared memory** — after every campaign the
  :mod:`repro.perf.shm` ownership registry must be empty, even though
  children were SIGKILLed mid-step and mid-admission;
- **no deadlock** — the whole run sits under a global SIGALRM budget
  (``python -m repro chaos --timeout``); a hang anywhere is a loud
  failure, never a stuck terminal;
- **accounting reconciles** — every injected fault shows up in the
  supervisor's / store's stats exactly as often as the plan scheduled it.

Scenarios (``--scenarios``): ``workers`` (process-backend training under
crash/hang/slow worker faults, restart policy), ``elastic``
(eject-and-rejoin committed by the resilient group, process vs
sequential twin), ``gossip`` (FaultyStore drops/lag/tears/outages).
Campaign ``k`` of seed ``s`` derives every draw from ``(s, k)``, so any
red campaign is rerunnable in isolation with ``--seed``/``--campaigns``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import FaultPlan, WorkerFault
from repro.faults.supervisor import SupervisionPolicy
from repro.perf import shm

SCENARIOS = ("workers", "elastic", "gossip")

#: Seed-tuple sentinel separating chaos draws from every training stream.
_CHAOS_STREAM = 2**31 - 21


@dataclass
class CampaignResult:
    """One campaign's verdict: which invariants failed, and the config."""

    scenario: str
    index: int
    config: str
    failures: List[str] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        lines = [
            f"[{mark}] {self.scenario} #{self.index} "
            f"({self.duration_s:.1f}s): {self.config}"
        ]
        lines.extend(f"       - {failure}" for failure in self.failures)
        return "\n".join(lines)


@dataclass
class ChaosReport:
    """Every campaign's result plus the aggregate verdict."""

    results: List[CampaignResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> int:
        return sum(1 for result in self.results if not result.passed)

    def render(self) -> str:
        lines = [result.render() for result in self.results]
        lines.append(
            f"{len(self.results)} campaigns, {self.failures} failed"
            + ("" if self.failures else " — all invariants held")
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Shared fixtures (tiny on purpose: chaos breadth beats model depth)
# ----------------------------------------------------------------------
def _make_task(seed: int, n: int = 192, features: int = 6, classes: int = 3):
    from repro.train.datasets import ArrayDataset

    rng = np.random.default_rng((seed, _CHAOS_STREAM))
    w = rng.normal(size=(features, classes))
    x = rng.normal(size=(n, features))
    y = (x @ w).argmax(axis=1)
    split = int(n * 0.8)
    return (
        ArrayDataset(x[:split], y[:split]),
        ArrayDataset(x[split:], y[split:]),
    )


def _trainer_weights(model) -> np.ndarray:
    return np.concatenate(
        [param.data.ravel().copy() for _, param in model.named_parameters()]
    )


def _draw_worker_faults(
    rng: np.random.Generator, world: int, steps: int, kinds: Sequence[str]
) -> Tuple[WorkerFault, ...]:
    """1-2 distinct (rank, step) fault cells drawn from ``kinds``."""
    count = int(rng.integers(1, 3))
    cells: List[Tuple[int, int]] = []
    faults: List[WorkerFault] = []
    while len(faults) < count:
        cell = (int(rng.integers(0, world)), int(rng.integers(0, steps - 1)))
        if cell in cells:
            continue
        cells.append(cell)
        kind = str(rng.choice(list(kinds)))
        faults.append(
            WorkerFault(kind, rank=cell[0], step=cell[1], delay_s=0.01)
        )
    return tuple(faults)


def _run_supervised(
    seed: int,
    workers: str,
    world: int,
    steps: int,
    method: str,
    plan: Optional[FaultPlan],
    policy: Optional[SupervisionPolicy],
):
    """One short supervised training run; returns (losses, weights, trainer)."""
    from repro.comm.process_group import ProcessGroup
    from repro.faults.plan import FaultInjector
    from repro.faults.resilient import ResilientProcessGroup
    from repro.models.convnets import make_mlp
    from repro.optim.aggregators import make_aggregator
    from repro.optim.sgd import SGD
    from repro.train.trainer import DataParallelTrainer

    train_data, test_data = _make_task(seed)
    model = make_mlp(6, 10, 3, rng=np.random.default_rng((seed, 1)))
    if policy is not None:
        group = ResilientProcessGroup(
            world, injector=FaultInjector(plan or FaultPlan(seed=seed))
        )
    else:
        group = ProcessGroup(world)
    trainer = DataParallelTrainer(
        model,
        SGD(model, lr=0.05, momentum=0.9),
        make_aggregator(method, group),
        train_data,
        test_data,
        batch_size_per_worker=4,
        seed=seed,
        workers=workers,
        supervision=policy,
        # Short on purpose: a scheduled hang costs one full timeout to
        # detect, and these models step in milliseconds — 10s is still a
        # two-orders-of-magnitude margin on a loaded CI box.
        worker_step_timeout=10.0,
    )
    with trainer:
        losses = [trainer.train_step() for _ in range(steps)]
    return losses, _trainer_weights(model), trainer


# ----------------------------------------------------------------------
# Scenario campaigns
# ----------------------------------------------------------------------
def _campaign_workers(seed: int, rng: np.random.Generator) -> Tuple[str, List[str]]:
    """Restart-supervised process training vs the fault-free run."""
    world = int(rng.integers(2, 4))
    steps = int(rng.integers(3, 6))
    method = str(rng.choice(["ssgd", "topk", "signsgd"]))
    plan = FaultPlan(
        seed=seed,
        worker_faults=_draw_worker_faults(
            rng, world, steps, ("crash", "hang", "slow")
        ),
    )
    config = (
        f"world={world} steps={steps} method={method} "
        f"faults={[(f.kind, f.rank, f.step) for f in plan.worker_faults]}"
    )
    policy = SupervisionPolicy(on_failure="restart")
    failures: List[str] = []

    clean_losses, clean_weights, _ = _run_supervised(
        seed, "process", world, steps, method, None, None
    )
    losses, weights, trainer = _run_supervised(
        seed, "process", world, steps, method, plan, policy
    )
    if losses != clean_losses or not np.array_equal(weights, clean_weights):
        failures.append(
            "restart-supervised run is not bit-identical to fault-free"
        )
    seq_losses, seq_weights, seq_trainer = _run_supervised(
        seed, "seq", world, steps, method, plan, policy
    )
    if losses != seq_losses or not np.array_equal(weights, seq_weights):
        failures.append("process run diverged from its sequential twin")
    stats = trainer.supervisor.stats
    injected = sum(
        1 for fault in plan.worker_faults if fault.kind in ("crash", "hang")
    )
    detected = stats.worker_crashes + stats.worker_timeouts
    if detected != injected:
        failures.append(
            f"stats do not reconcile: {injected} faults injected, "
            f"{detected} detected"
        )
    if stats.worker_restarts != injected:
        failures.append(
            f"{injected} failures should cost {injected} restarts, "
            f"stats say {stats.worker_restarts}"
        )
    return config, failures


def _campaign_elastic(seed: int, rng: np.random.Generator) -> Tuple[str, List[str]]:
    """Eject-and-rejoin through the resilient group, twin-checked."""
    world = int(rng.integers(2, 4))
    steps = int(rng.integers(5, 8))
    method = str(rng.choice(["ssgd", "acpsgd"]))
    delay = int(rng.integers(1, 3))
    # One crash or hang: eject mode degrades the step, so every injected
    # cell must also be survivable by the *group* (never kill rank 0's
    # whole roster at once).
    fault = WorkerFault(
        str(rng.choice(["crash", "hang"])),
        rank=int(rng.integers(0, world)),
        step=int(rng.integers(1, steps - 2)),
    )
    plan = FaultPlan(seed=seed, worker_faults=(fault,))
    policy = SupervisionPolicy(
        on_failure="eject", respawn_delay_steps=delay
    )
    config = (
        f"world={world} steps={steps} method={method} "
        f"fault=({fault.kind},{fault.rank},{fault.step}) rejoin_after={delay}"
    )
    failures: List[str] = []

    p_losses, p_weights, p_trainer = _run_supervised(
        seed, "process", world, steps, method, plan, policy
    )
    s_losses, s_weights, s_trainer = _run_supervised(
        seed, "seq", world, steps, method, plan, policy
    )
    if p_losses != s_losses or not np.array_equal(p_weights, s_weights):
        failures.append(
            "eject-supervised process run diverged from its sequential twin"
        )
    for label, trainer in (("process", p_trainer), ("seq", s_trainer)):
        group = trainer.aggregator.group
        changes = [change.render() for change in group.changes]
        if group.ranks_of("eject") != [fault.rank]:
            failures.append(f"{label}: ejection of rank {fault.rank} "
                            f"not committed ({changes})")
        if group.ranks_of("rejoin") != [fault.rank]:
            failures.append(f"{label}: rejoin of rank {fault.rank} "
                            f"not committed ({changes})")
        stats = trainer.supervisor.stats
        if stats.worker_crashes + stats.worker_timeouts != 1:
            failures.append(f"{label}: stats do not reconcile")
    return config, failures


def _campaign_gossip(seed: int, rng: np.random.Generator) -> Tuple[str, List[str]]:
    """Gossip over a FaultyStore: replayable, finite, accounted for."""
    from repro.gossip import (
        FaultyStore,
        GossipCluster,
        GossipConfig,
        InMemoryStore,
        StoreFaultConfig,
    )
    from repro.models.convnets import make_mlp

    peers = int(rng.integers(3, 6))
    windows = int(rng.integers(6, 10))
    store_config = StoreFaultConfig(
        seed=seed,
        drop_publish_rate=float(rng.uniform(0.05, 0.25)),
        delay_publish_rate=float(rng.uniform(0.05, 0.25)),
        delay_windows=int(rng.integers(1, 3)),
        torn_fetch_rate=float(rng.uniform(0.05, 0.3)),
        outage_windows=(int(rng.integers(1, windows)),),
    )
    config = (
        f"peers={peers} windows={windows} drop={store_config.drop_publish_rate:.2f} "
        f"delay={store_config.delay_publish_rate:.2f} "
        f"torn={store_config.torn_fetch_rate:.2f} "
        f"outage={store_config.outage_windows}"
    )
    failures: List[str] = []

    def run():
        train_data, test_data = _make_task(seed)
        store = FaultyStore(InMemoryStore(), store_config)
        cluster = GossipCluster(
            lambda: make_mlp(6, 12, 3, rng=np.random.default_rng((seed, 2))),
            train_data,
            test_data,
            GossipConfig(local_steps=2, lr=0.1, compression_ratio=0.25),
            peers=peers,
            store=store,
            seed=seed,
        )
        cluster.run(windows)
        first = cluster.peers[sorted(cluster.peers)[0]]
        return _trainer_weights(first.model), store.stats

    weights_a, stats_a = run()
    weights_b, stats_b = run()
    if not np.array_equal(weights_a, weights_b):
        failures.append("faulty gossip run is not replayable bit-identically")
    if stats_a != stats_b:
        failures.append("store fault stats differ between identical replays")
    if not np.isfinite(weights_a).all():
        failures.append("gossip weights went non-finite under store faults")
    if stats_a.unavailable_ops == 0:
        failures.append("scheduled outage window never fired")
    if stats_a.delivered_late > stats_a.delayed_publishes:
        failures.append("more late deliveries than delayed publishes")
    return config, failures


_CAMPAIGNS: Dict[str, Callable[[int, np.random.Generator], Tuple[str, List[str]]]] = {
    "workers": _campaign_workers,
    "elastic": _campaign_elastic,
    "gossip": _campaign_gossip,
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_campaigns(
    scenarios: Sequence[str] = SCENARIOS,
    campaigns: int = 2,
    seed: int = 0,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run ``campaigns`` seeded campaigns of each scenario.

    Campaign ``k`` derives its entire configuration from ``(seed, k)``;
    an invariant violation is recorded, never raised, so one red
    campaign cannot mask another. After every campaign the shm ownership
    registry must be empty — a leak anywhere fails that campaign even if
    its trajectory checks passed.
    """
    if campaigns < 1:
        raise ValueError(f"campaigns must be >= 1, got {campaigns}")
    unknown = [s for s in scenarios if s not in _CAMPAIGNS]
    if unknown:
        raise ValueError(
            f"unknown scenarios {unknown}; choose from {sorted(_CAMPAIGNS)}"
        )
    report = ChaosReport()
    for scenario in scenarios:
        campaign = _CAMPAIGNS[scenario]
        for index in range(campaigns):
            campaign_seed = seed + index
            rng = np.random.default_rng((seed, index, _CHAOS_STREAM))
            start = time.perf_counter()
            try:
                config, failures = campaign(campaign_seed, rng)
            except BaseException as exc:  # noqa: BLE001 — a crash is a verdict
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                config = "crashed before reporting a config"
                failures = [f"campaign raised {type(exc).__name__}: {exc}"]
            leaked = shm.live_segment_names()
            if leaked:
                failures.append(f"leaked shm segments: {sorted(leaked)}")
                shm.force_release_all()  # contain the blast radius
            result = CampaignResult(
                scenario=scenario,
                index=index,
                config=config,
                failures=failures,
                duration_s=time.perf_counter() - start,
            )
            report.results.append(result)
            if log is not None:
                log(result.render())
    return report
