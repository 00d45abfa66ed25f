"""DGC momentum-corrected Top-k aggregation."""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.optim.aggregators import make_aggregator
from repro.optim.dgc import DGCTopkAggregator

WORLD = 4


def _grads(rng, world=WORLD):
    return [
        {"w": rng.normal(size=(10, 12)), "b": rng.normal(size=10)}
        for _ in range(world)
    ]


class TestDGC:
    def test_output_well_formed(self, rng):
        agg = DGCTopkAggregator(ProcessGroup(WORLD), ratio=0.1)
        out = agg.aggregate(_grads(rng))
        assert set(out) == {"w", "b"}
        assert out["w"].shape == (10, 12)
        assert np.isfinite(out["w"]).all()

    def test_factory_registration(self):
        agg = make_aggregator("dgc", ProcessGroup(2), ratio=0.1)
        assert agg.method == "dgc"

    def test_momentum_correction_steady_state(self, rng):
        """With constant gradient g, ratio 0.5 and momentum m, each
        coordinate transmits on alternate steps: its velocity gains g on the
        off step and (1 + m) g on the on step, so the per-step average
        transmitted is (2 + m)/2 * g — 1.25 g for m = 0.5. Clearing u at
        transmitted coordinates (the DGC rule) is what caps it there instead
        of the uncorrected g / (1 - m)."""
        momentum = 0.5
        agg = DGCTopkAggregator(ProcessGroup(1), ratio=0.5, momentum=momentum)
        g = rng.normal(size=(6, 6))
        total = np.zeros_like(g)
        steps = 300
        for _ in range(steps):
            out = agg.aggregate([{"w": g.copy()}])
            total += out["w"]
        average = total / steps
        expected = (2 + momentum) / 2
        assert np.median(average / g) == pytest.approx(expected, rel=0.1)
        corr = np.corrcoef(average.ravel(), g.ravel())[0, 1]
        assert corr > 0.95

    def test_transmitted_coordinates_cleared(self, rng):
        agg = DGCTopkAggregator(ProcessGroup(1), ratio=0.25)
        agg.aggregate([{"w": rng.normal(size=(4, 4))}])
        state = agg.state_for(0)
        v = state.v["fused"]
        # At least k coordinates were zeroed.
        assert (v == 0.0).sum() >= 4

    def test_uses_allgather(self, rng):
        group = ProcessGroup(WORLD)
        DGCTopkAggregator(group, ratio=0.1).aggregate(_grads(rng))
        assert any(s.algorithm == "all_gather" for s in group.history)

    def test_validation(self):
        with pytest.raises(ValueError, match="ratio"):
            DGCTopkAggregator(ProcessGroup(2), ratio=0.0)
        with pytest.raises(ValueError, match="momentum"):
            DGCTopkAggregator(ProcessGroup(2), momentum=1.0)

    def test_worker_count_checked(self, rng):
        agg = DGCTopkAggregator(ProcessGroup(3))
        with pytest.raises(ValueError, match="expected"):
            agg.aggregate(_grads(rng, world=2))

    def test_gradient_names_checked(self, rng):
        """Same name-consistency check as the other eight aggregators."""
        agg = DGCTopkAggregator(ProcessGroup(2))
        per_worker = _grads(rng, world=2)
        per_worker[1] = {"w": per_worker[1]["w"], "bias": per_worker[1]["b"]}
        with pytest.raises(ValueError, match="names differ"):
            agg.aggregate(per_worker)

    def test_trains_a_model(self, rng):
        """DGC + momentum-free SGD reduces loss on a small task."""
        from repro.models.convnets import make_mlp
        from repro.nn.loss import CrossEntropyLoss
        from repro.optim.sgd import SGD

        model = make_mlp(8, 16, 3, rng=np.random.default_rng(0))
        agg = DGCTopkAggregator(ProcessGroup(2), ratio=0.25, momentum=0.9)
        opt = SGD(model, lr=0.02, momentum=0.0)  # momentum lives in DGC
        loss_fn = CrossEntropyLoss()
        centers = np.random.default_rng(5).normal(size=(3, 8)) * 3

        def batch(seed):
            r = np.random.default_rng(seed)
            y = r.integers(0, 3, size=32)
            return centers[y] + r.normal(size=(32, 8)), y

        losses = []
        for step in range(60):
            per_worker = []
            step_losses = []
            for w in range(2):
                x, y = batch(step * 2 + w)
                model.zero_grad()
                step_losses.append(loss_fn(model(x), y))
                model.backward(loss_fn.backward())
                per_worker.append({
                    n: p.grad.copy() for n, p in model.named_parameters()
                })
            opt.step(agg.aggregate(per_worker))
            losses.append(np.mean(step_losses))
        assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:10])
