"""The trainer's wire equals its declaration, collective by collective.

Every method aggregates one monolithic step on a
:class:`~repro.comm.process_group.ProcessGroup`; the collectives the group
recorded must be :func:`~repro.compression.wire.step_wire`'s at its
default width — FP32, the trainer's with ``repro.nn``'s float32
parameters and the simulator's — in order, with the same kind and
traffic. Bucketed, each group ships at the cadence
:data:`~repro.compression.wire.WIRE_GROUPS` declares.
"""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.compression.wire import (
    ALL_GATHER,
    ALL_REDUCE,
    AS_LANDED,
    PER_BUCKET,
    WIRE_GROUPS,
    step_wire,
)
from repro.optim.aggregators import make_aggregator
from repro.perf.arena import GradientArena

# A bias, a factored matrix, a conv kernel and a matrix that rank 4 would
# not shrink (2 x 100 -> 204 factor elements), which travels plain; 2 933
# elements, so packed bits and 2-bit codes end in a partial byte.
SHAPES = {"bias": (45,), "fc": (48, 32), "conv": (16, 8, 3, 3), "thin": (2, 100)}
RANK, RATIO = 4, 0.01
# 6 200-byte buckets split SHAPES into three: bias (45 elements, not a
# multiple of 8), fc, and conv + thin (a factored and a plain tensor).
BUCKET_BYTES = 6200
METHOD_KWARGS = {
    "ssgd": {},
    "signsgd": {},
    "topk": {"ratio": RATIO},
    "dgc": {"ratio": RATIO},
    "randomk": {"ratio": RATIO},
    "qsgd": {},
    "terngrad": {},
    "powersgd": {"rank": RANK},
    "acpsgd": {"rank": RANK},
}
KINDS = {"allreduce_ring": ALL_REDUCE, "all_gather": ALL_GATHER}

# Total bytes of each step's collectives at world 4, measured on the
# trainer: first in float64, before the declaration existed; the float
# figures halved when the trainer moved to float32, the packed sign bits,
# QSGD levels and TernGrad codes did not.
MEASURED_AT_4 = {
    "ssgd": [70392],
    "signsgd": [4404],
    "topk": [2784],
    "dgc": [2784],
    "randomk": [696],
    "qsgd": [39600],
    "terngrad": [8808],
    "powersgd": [5880, 6144, 9984],
    "acpsgd": [5880, 6144],  # step 2 sends Q: 5 880, 9 984
}


def _measured_steps(method, world):
    """``(kind, total_bytes)`` of every collective of two steps."""
    rng = np.random.default_rng(0)
    group = ProcessGroup(world)
    aggregator = make_aggregator(method, group, **METHOD_KWARGS[method])
    steps = []
    for _ in range(2):
        group.reset_stats()
        aggregator.aggregate([
            {
                name: rng.normal(size=shape).astype(np.float32)
                for name, shape in SHAPES.items()
            }
            for _ in range(world)
        ])
        steps.append([(KINDS[s.algorithm], s.total_bytes) for s in group.history])
    return steps


def _declared_total(collective, world):
    """Every rank's traffic: a ring all-reduce sends ``2 (p-1) B`` in all,
    an all-gather each rank's ``B`` to ``p - 1`` others."""
    if collective.kind == ALL_REDUCE:
        return 2 * (world - 1) * collective.nbytes
    return (world - 1) * world * collective.nbytes


@pytest.mark.parametrize("world", [2, 3, 4])
@pytest.mark.parametrize("method", sorted(METHOD_KWARGS))
def test_trainer_wire_is_declared(method, world):
    for step, measured in enumerate(_measured_steps(method, world), start=1):
        declared = step_wire(
            method, SHAPES.values(), rank=RANK, ratio=RATIO, half=step
        )
        assert measured == [
            (c.kind, _declared_total(c, world)) for c in declared
        ], f"{method} step {step}"


@pytest.mark.parametrize("method", sorted(METHOD_KWARGS))
def test_declaration_reproduces_the_measured_figures(method):
    declared = step_wire(method, SHAPES.values(), rank=RANK, ratio=RATIO)
    assert [_declared_total(c, 4) for c in declared] == MEASURED_AT_4[method]



def _bucketed_steps(method, world):
    """The arena layout and ``(kind, total_bytes)`` of every collective of
    two bucketed steps."""
    rng = np.random.default_rng(0)
    arena = GradientArena(
        [(name, np.zeros(shape, np.float32)) for name, shape in SHAPES.items()],
        world, bucket_bytes=BUCKET_BYTES,
    )
    group = ProcessGroup(world)
    aggregator = make_aggregator(method, group, **METHOD_KWARGS[method])
    aggregator.attach(arena)
    steps = []
    for _ in range(2):
        group.reset_stats()
        aggregator.aggregate([
            arena.load(slot, {
                name: rng.normal(size=shape).astype(np.float32)
                for name, shape in SHAPES.items()
            })
            for slot in range(world)
        ])
        steps.append([(KINDS[s.algorithm], s.total_bytes) for s in group.history])
    return arena.layout, steps


@pytest.mark.parametrize("world", [2, 3])
@pytest.mark.parametrize("method", sorted(METHOD_KWARGS))
def test_bucketed_wire_is_declared(method, world):
    layout, steps = _bucketed_steps(method, world)
    assert len(layout.buckets) >= 3
    assert any((hi - lo) % 8 for lo, hi in layout.buckets)
    (when,) = {when for _, _, when in WIRE_GROUPS[method]}
    for step, measured in enumerate(steps, start=1):
        monolithic = step_wire(
            method, SHAPES.values(), rank=RANK, ratio=RATIO, half=step
        )
        if when == AS_LANDED:
            # Each bucket's groups as it lands, in aggregate's reverse order.
            declared = [
                (c.kind, _declared_total(c, world))
                for names in reversed(layout.bucket_names())
                for c in step_wire(
                    method, [SHAPES[name] for name in names],
                    rank=RANK, ratio=RATIO, half=step,
                )
            ]
            assert measured == declared, f"{method} step {step}"
        elif when == PER_BUCKET:
            # One gather per non-empty bucket, the monolithic bytes in all.
            assert [kind for kind, _ in measured] == [ALL_GATHER] * len(layout.buckets)
            (selection,) = monolithic
            assert sum(nbytes for _, nbytes in measured) == _declared_total(
                selection, world
            )
        else:
            assert measured == [
                (c.kind, _declared_total(c, world)) for c in monolithic
            ], f"{method} step {step}"
