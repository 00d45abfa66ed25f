"""DGC: Top-k with momentum correction (``make_aggregator("dgc")``)."""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.optim.aggregators import TopkSGDAggregator, make_aggregator
from repro.perf.arena import GradientArena

WORLD = 4


def _grads(rng, world=WORLD):
    return [
        {"w": rng.normal(size=(10, 12)), "b": rng.normal(size=10)}
        for _ in range(world)
    ]


def _attached_arena(agg, world):
    arena = GradientArena([("w", np.zeros((4, 4)))], world)
    agg.attach(arena)
    return arena


class TestDGC:
    def test_output_well_formed(self, rng):
        agg = make_aggregator("dgc", ProcessGroup(WORLD), ratio=0.1)
        out = agg.aggregate(_grads(rng))
        assert set(out) == {"w", "b"}
        assert out["w"].shape == (10, 12)
        assert np.isfinite(out["w"]).all()

    def test_factory_registration(self):
        agg = make_aggregator("dgc", ProcessGroup(2), ratio=0.1)
        assert agg.method == "dgc"
        assert isinstance(agg, TopkSGDAggregator)
        assert agg.momentum_correction == 0.9 and agg.use_error_feedback
        assert make_aggregator("topk", ProcessGroup(2)).method == "topk"

    def test_momentum_correction_steady_state(self, rng):
        """With constant gradient g, ratio 0.5 and momentum m, each
        coordinate transmits on alternate steps: its velocity gains g on the
        off step and (1 + m) g on the on step, so the per-step average
        transmitted is (2 + m)/2 * g — 1.25 g for m = 0.5. Clearing u at
        transmitted coordinates (the DGC rule) is what caps it there instead
        of the uncorrected g / (1 - m)."""
        momentum = 0.5
        agg = make_aggregator(
            "dgc", ProcessGroup(1), ratio=0.5, momentum_correction=momentum
        )
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
        agg = make_aggregator("dgc", ProcessGroup(1), ratio=0.25)
        arena = _attached_arena(agg, 1)
        arena.load(0, {"w": rng.normal(size=(4, 4))})
        out = agg.aggregate([arena.grads(0)])
        sent = out["w"].reshape(-1) != 0.0
        assert np.count_nonzero(sent) == 4
        # Velocity and carried momentum are both zero where a value was sent.
        velocity, momentum = agg.state_for(0).velocity, arena.slab(0)
        assert not velocity[sent].any() and velocity[~sent].all()
        assert not momentum[sent].any() and momentum[~sent].all()

    def test_reset_drops_velocity_and_momentum(self, rng):
        agg = make_aggregator("dgc", ProcessGroup(1), ratio=0.25)
        arena = _attached_arena(agg, 1)
        arena.load(0, {"w": rng.normal(size=(4, 4))})
        agg.aggregate([arena.grads(0)])
        agg.reset()
        assert agg.state_for(0).velocity is None
        assert not arena.slab(0).any()

    def test_uses_allgather(self, rng):
        group = ProcessGroup(WORLD)
        make_aggregator("dgc", group, ratio=0.1).aggregate(_grads(rng))
        assert any(s.algorithm == "all_gather" for s in group.history)

    def test_validation(self):
        with pytest.raises(ValueError, match="ratio"):
            make_aggregator("dgc", ProcessGroup(2), ratio=0.0)
        with pytest.raises(ValueError, match="momentum"):
            make_aggregator("dgc", ProcessGroup(2), momentum_correction=1.0)
        with pytest.raises(ValueError, match="use_error_feedback"):
            make_aggregator("dgc", ProcessGroup(2), use_error_feedback=False)

    def test_worker_count_checked(self, rng):
        agg = make_aggregator("dgc", ProcessGroup(3))
        with pytest.raises(ValueError, match="expected"):
            agg.aggregate(_grads(rng, world=2))

    def test_gradient_names_checked(self, rng):
        """Same name-consistency check as the other eight aggregators."""
        agg = make_aggregator("dgc", ProcessGroup(2))
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
        agg = make_aggregator("dgc", ProcessGroup(2), ratio=0.25)
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
