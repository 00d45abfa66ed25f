"""A degraded collective's missing payload stays out of the aggregate.

Rank 2 of a three-rank :class:`~repro.faults.resilient.ResilientProcessGroup`
fails for good at the step's first collective, so every collective of the
run goes ahead without it. Each method, monolithic and bucketed, must then
return, bit for bit, what a plain two-rank group returns for ranks 0 and 1:
a degraded all-reduce averages the survivors, and a degraded all-gather
leaves the failed slot empty, so its decoder averages over the slots that
were delivered (Top-k's sparse sum, Sign-SGD's vote and scale, the
quantizers' dequantized mean).
"""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.faults import FaultInjector, FaultPlan, PermanentFailure
from repro.faults.resilient import ResilientProcessGroup
from repro.optim.aggregators import make_aggregator
from repro.perf.arena import GradientArena

pytestmark = pytest.mark.faults

# 2 933 float32 elements; 6 200-byte buckets split them into three, the
# first of 45 elements (not a multiple of 8, so sign bits end mid-byte).
SHAPES = {"bias": (45,), "fc": (48, 32), "conv": (16, 8, 3, 3), "thin": (2, 100)}
BUCKETING = {"monolithic": None, "bucketed": 6200}
METHOD_KWARGS = {
    "ssgd": {},
    "signsgd": {},
    "topk": {"ratio": 0.01},
    "dgc": {"ratio": 0.01},
    "randomk": {"ratio": 0.01},
    "qsgd": {},
    "terngrad": {},
    "powersgd": {"rank": 4},
    "acpsgd": {"rank": 4},
}
STEPS = 2  # both ACP-SGD halves


def _gradients():
    rng = np.random.default_rng(0)
    return [
        [
            {name: rng.normal(size=shape).astype(np.float32)
             for name, shape in SHAPES.items()}
            for _ in range(3)
        ]
        for _ in range(STEPS)
    ]


def _run(method, group, steps, bucket_bytes):
    """Every step's aggregate, as bytes per tensor."""
    world = len(steps[0])
    arena = GradientArena(
        [(name, grad) for name, grad in steps[0][0].items()], world,
        bucket_bytes=bucket_bytes,
    )
    aggregator = make_aggregator(method, group, **METHOD_KWARGS[method])
    aggregator.attach(arena)
    results = []
    for grads in steps:
        aggregated = aggregator.aggregate(
            [arena.load(slot, rank_grads) for slot, rank_grads in enumerate(grads)]
        )
        results.append({name: aggregated[name].tobytes() for name in SHAPES})
    return results


@pytest.mark.parametrize("bucketing", list(BUCKETING))
@pytest.mark.parametrize("method", sorted(METHOD_KWARGS))
def test_degraded_result_is_the_survivors_aggregate(method, bucketing):
    steps = _gradients()
    plan = FaultPlan(seed=0, permanent=(PermanentFailure(rank=2, call_index=0),))
    degraded = ResilientProcessGroup(3, injector=FaultInjector(plan))
    got = _run(method, degraded, steps, BUCKETING[bucketing])
    # The first call excludes rank 2; every later one skips it as dead.
    assert degraded.stats.degraded_calls == 1
    survivors = [grads[:2] for grads in steps]
    want = _run(method, ProcessGroup(2), survivors, BUCKETING[bucketing])
    assert got == want
