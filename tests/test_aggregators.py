"""Distributed gradient aggregators: numerics and traffic."""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.compression import (
    SignCompressor,
    TopkCompressor,
    majority_vote_aggregate,
    sparse_aggregate,
)
from repro.models.convnets import make_mlp
from repro.optim.aggregators import make_aggregator
from repro.perf.arena import GradientArena

WORLD = 4


def _worker_grads(rng, world=WORLD):
    return [
        {
            "conv.weight": rng.normal(size=(8, 4, 3, 3)),
            "fc.weight": rng.normal(size=(16, 24)),
            "fc.bias": rng.normal(size=16),
        }
        for _ in range(world)
    ]


def _mean_grads(per_worker):
    return {
        name: np.mean([g[name] for g in per_worker], axis=0)
        for name in per_worker[0]
    }


class TestAllReduce:
    def test_exact_mean(self, rng):
        per_worker = _worker_grads(rng)
        agg = make_aggregator("ssgd", ProcessGroup(WORLD))
        out = agg.aggregate(per_worker)
        mean = _mean_grads(per_worker)
        for name in mean:
            np.testing.assert_allclose(out[name], mean[name], rtol=1e-10)

    def test_shapes_preserved(self, rng):
        per_worker = _worker_grads(rng)
        out = make_aggregator("ssgd", ProcessGroup(WORLD)).aggregate(per_worker)
        for name, grad in per_worker[0].items():
            assert out[name].shape == grad.shape

    def test_worker_count_validation(self, rng):
        agg = make_aggregator("ssgd", ProcessGroup(WORLD))
        with pytest.raises(ValueError, match="expected"):
            agg.aggregate(_worker_grads(rng, world=2))

    def test_name_mismatch_rejected(self, rng):
        agg = make_aggregator("ssgd", ProcessGroup(2))
        bad = [{"a": rng.normal(size=2)}, {"b": rng.normal(size=2)}]
        with pytest.raises(ValueError, match="names differ"):
            agg.aggregate(bad)


class TestCompressionAggregators:
    @pytest.mark.parametrize(
        "method,kwargs",
        [
            ("signsgd", {}),
            ("topk", {"ratio": 0.05}),
            ("randomk", {"ratio": 0.05}),
            ("qsgd", {}),
            ("powersgd", {"rank": 2}),
            ("acpsgd", {"rank": 2}),
        ],
    )
    def test_output_well_formed(self, method, kwargs, rng):
        per_worker = _worker_grads(rng)
        agg = make_aggregator(method, ProcessGroup(WORLD), **kwargs)
        out = agg.aggregate(per_worker)
        assert set(out) == set(per_worker[0])
        for name, grad in per_worker[0].items():
            assert out[name].shape == grad.shape
            assert np.isfinite(out[name]).all()

    @pytest.mark.parametrize(
        "method,kwargs,rounds,tol",
        [
            ("topk", {"ratio": 0.25}, 60, 0.25),
            ("powersgd", {"rank": 4}, 120, 0.25),
            ("acpsgd", {"rank": 4}, 180, 0.25),
        ],
    )
    def test_ef_methods_track_cumulative_mean_gradient(
        self, method, kwargs, rounds, tol, rng
    ):
        """Over time, EF-based compressed aggregation transmits the same
        cumulative gradient mass as exact averaging would."""
        agg = make_aggregator(method, ProcessGroup(WORLD), **kwargs)
        base = {
            "fc.weight": rng.normal(size=(10, 12)),
            "fc.bias": rng.normal(size=10),
        }
        total_mean = {name: np.zeros_like(v) for name, v in base.items()}
        total_out = {name: np.zeros_like(v) for name, v in base.items()}
        for _ in range(rounds):
            per_worker = [
                {name: v + 0.1 * rng.normal(size=v.shape) for name, v in base.items()}
                for _ in range(WORLD)
            ]
            out = agg.aggregate(per_worker)
            for name in base:
                total_mean[name] += np.mean(
                    [g[name] for g in per_worker], axis=0
                )
                total_out[name] += out[name]
        for name in base:
            gap = np.linalg.norm(total_out[name] - total_mean[name]) / np.linalg.norm(
                total_mean[name]
            )
            assert gap < tol, f"{method} {name} cumulative gap {gap:.3f}"

    def test_low_rank_vector_params_exact(self, rng):
        """Bias gradients bypass compression: aggregated exactly."""
        per_worker = _worker_grads(rng)
        for method in ("powersgd", "acpsgd"):
            agg = make_aggregator(method, ProcessGroup(WORLD), rank=2)
            out = agg.aggregate([{k: v.copy() for k, v in g.items()} for g in per_worker])
            mean = _mean_grads(per_worker)
            np.testing.assert_allclose(out["fc.bias"], mean["fc.bias"], rtol=1e-10)

    def test_tiny_matrices_not_compressed(self, rng):
        """A matrix where (n+m) r >= n m travels uncompressed (exact)."""
        per_worker = [{"w": rng.normal(size=(4, 4))} for _ in range(WORLD)]
        agg = make_aggregator("powersgd", ProcessGroup(WORLD), rank=4)
        out = agg.aggregate([{k: v.copy() for k, v in g.items()} for g in per_worker])
        mean = _mean_grads(per_worker)
        np.testing.assert_allclose(out["w"], mean["w"], rtol=1e-10)

    def test_acpsgd_single_allreduce_per_step(self, rng):
        """ACP-SGD's defining property: one collective for the compressed
        factors (+ one for the vector params) per step; Power-SGD needs two."""
        per_worker = _worker_grads(rng)
        group_acp = ProcessGroup(WORLD)
        make_aggregator("acpsgd", group_acp, rank=2).aggregate(per_worker)
        group_power = ProcessGroup(WORLD)
        make_aggregator("powersgd", group_power, rank=2).aggregate(per_worker)
        # ACP: plain allreduce + factor allreduce = 2 collectives.
        assert len(group_acp.history) == 2
        # Power-SGD: plain + P + Q = 3 collectives.
        assert len(group_power.history) == 3

    def test_acpsgd_traffic_half_of_powersgd(self, rng):
        per_worker = [{"w": rng.normal(size=(32, 48))} for _ in range(WORLD)]
        group_acp = ProcessGroup(WORLD)
        acp = make_aggregator("acpsgd", group_acp, rank=4)
        group_power = ProcessGroup(WORLD)
        power = make_aggregator("powersgd", group_power, rank=4)
        for _ in range(2):  # average the P/Q parities
            acp.aggregate([{k: v.copy() for k, v in g.items()} for g in per_worker])
            power.aggregate([{k: v.copy() for k, v in g.items()} for g in per_worker])
        assert group_acp.total_bytes() == pytest.approx(
            group_power.total_bytes() / 2, rel=0.01
        )

    def test_signsgd_output_is_scaled_signs(self, rng):
        per_worker = _worker_grads(rng)
        agg = make_aggregator("signsgd", ProcessGroup(WORLD), use_error_feedback=False)
        out = agg.aggregate(per_worker)
        flat = np.concatenate([v.reshape(-1) for v in out.values()])
        magnitudes = np.unique(np.round(np.abs(flat), 12))
        assert magnitudes.size == 1  # all elements share one scale

    def test_randomk_uses_allreduce_not_allgather(self, rng):
        group = ProcessGroup(WORLD)
        make_aggregator("randomk", group, ratio=0.1).aggregate(_worker_grads(rng))
        assert all(s.algorithm == "allreduce_ring" for s in group.history)

    def test_topk_uses_allgather(self, rng):
        group = ProcessGroup(WORLD)
        make_aggregator("topk", group, ratio=0.01).aggregate(_worker_grads(rng))
        assert any(s.algorithm == "all_gather" for s in group.history)


class TestPaperPrimitiveOracle:
    """The staged Top-k / Sign-SGD bodies compress each rank's slab in
    place, where backward added the gradient onto the residual; the
    paper-level primitives in ``repro.compression`` (whole vector at once,
    on an accumulator of their own) are the independent reference they must
    match bit for bit — across EF steps, for one bucket and for many."""

    STEPS = 3

    def _slabs(self, bucket_bytes, aggregator):
        model = make_mlp(17, 9, 4, rng=np.random.default_rng(7)).astype(np.float64)
        arena = GradientArena(model, WORLD, bucket_bytes=bucket_bytes)
        aggregator.attach(arena)
        rng = np.random.default_rng(3)
        for _ in range(self.STEPS):
            flats = [
                rng.normal(size=arena.layout.total_elements)
                for _ in range(WORLD)
            ]
            yield flats, [
                arena.load(slot, arena.layout.carve(flat))
                for slot, flat in enumerate(flats)
            ]

    @staticmethod
    def _flatten(named):
        return np.concatenate([grad.ravel() for grad in named.values()])

    @staticmethod
    def _compress_all(oracle, accumulators, flats, use_ef):
        """Each rank's oracle payload (with EF: of its own accumulator)."""
        if not use_ef:
            return [comp.compress(flat) for comp, flat in zip(oracle, flats)]
        for accumulator, flat in zip(accumulators, flats):
            accumulator += flat
        return [comp.compress(acc) for comp, acc in zip(oracle, accumulators)]

    @pytest.mark.parametrize("bucket_bytes", [None, 40 * 8])
    @pytest.mark.parametrize("use_ef", [True, False])
    @pytest.mark.parametrize("selection", ["exact", "sampled"])
    def test_topk_matches_compress_plus_sparse_aggregate(
        self, selection, use_ef, bucket_bytes
    ):
        agg = make_aggregator(
            "topk", ProcessGroup(WORLD), ratio=0.1, selection=selection,
            use_error_feedback=use_ef, seed=5,
        )
        oracle = [
            TopkCompressor(
                ratio=0.1, selection=selection, use_error_feedback=use_ef,
                rng=np.random.default_rng(5 + rank),
            )
            for rank in range(WORLD)
        ]
        accumulators = None
        for flats, per_worker in self._slabs(bucket_bytes, agg):
            if accumulators is None:
                accumulators = [np.full(flat.size, -0.0) for flat in flats]
            payloads = self._compress_all(oracle, accumulators, flats, use_ef)
            want = sparse_aggregate(payloads, flats[0].shape, average=True)
            got = self._flatten(agg.aggregate(per_worker))
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bucket_bytes", [None, 40 * 8])
    @pytest.mark.parametrize("use_ef", [True, False])
    def test_signsgd_matches_compress_plus_majority_vote(
        self, use_ef, bucket_bytes
    ):
        agg = make_aggregator(
            "signsgd", ProcessGroup(WORLD), use_error_feedback=use_ef
        )
        oracle = [SignCompressor(use_ef) for _ in range(WORLD)]
        accumulators = None
        for flats, per_worker in self._slabs(bucket_bytes, agg):
            if accumulators is None:
                accumulators = [np.full(flat.size, -0.0) for flat in flats]
            payloads = self._compress_all(oracle, accumulators, flats, use_ef)
            want = majority_vote_aggregate(payloads, flats[0].shape)
            got = self._flatten(agg.aggregate(per_worker))
            np.testing.assert_array_equal(got, want)


class TestFactory:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            make_aggregator("sparse-magic", ProcessGroup(2))

    def test_all_methods_constructible(self):
        group = ProcessGroup(2)
        for method in ("ssgd", "signsgd", "topk", "randomk", "qsgd",
                       "powersgd", "acpsgd"):
            agg = make_aggregator(method, group)
            assert agg.method == method
