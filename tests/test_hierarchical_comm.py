"""Tests of the topology-aware (hierarchical) all-reduce accounting.

The load-bearing contract: a ``topology`` on the all-reduce kernel is
**bit-identical** to the flat ring (same canonical flat-ring fold; only the
two-level schedule is *accounted*), so switching ``topology=`` on a
trainer can never change a training trajectory — only the modeled wire
traffic. Traffic/step accounting follows the reduce-scatter/all-gather
decomposition at each level.
"""

import numpy as np
import pytest

from repro.comm import (
    ProcessGroup,
    all_reduce_inplace,
    all_reduce_ring,
    hierarchical_steps,
    hierarchical_traffic,
)
from repro.comm.topology import ClusterTopology

TOPO_2x2 = ClusterTopology(num_nodes=2, gpus_per_node=2)
TOPO_1x4 = ClusterTopology(num_nodes=1, gpus_per_node=4)


def _random_buffers(rng, world, length):
    return [rng.standard_normal(length) for _ in range(world)]


class TestBitIdentity:
    @pytest.mark.parametrize("topology,length", [
        (TOPO_2x2, 1),
        (TOPO_2x2, 997),
        (TOPO_1x4, 256),
        (ClusterTopology(num_nodes=2, gpus_per_node=3), 1001),
        (ClusterTopology(num_nodes=4, gpus_per_node=2), 4096),
    ])
    def test_matches_flat_ring_exactly(self, rng, topology, length):
        flat = _random_buffers(rng, topology.world_size, length)
        hier = [buf.copy() for buf in flat]
        all_reduce_inplace(flat)
        all_reduce_inplace(hier, topology=topology)
        for rank in range(topology.world_size):
            assert flat[rank].tobytes() == hier[rank].tobytes()

    def test_segment_matches_flat_segment_exactly(self, rng):
        length = 777
        flat = _random_buffers(rng, 4, length)
        hier = [buf.copy() for buf in flat]
        for start, stop in ((0, 300), (300, 777)):
            all_reduce_inplace(
                [buf[start:stop] for buf in flat], start, length
            )
            all_reduce_inplace(
                [buf[start:stop] for buf in hier], start, length, TOPO_2x2
            )
        for rank in range(4):
            assert flat[rank].tobytes() == hier[rank].tobytes()

    def test_copying_variant_preserves_inputs_and_shapes(self, rng):
        buffers = [rng.standard_normal((4, 8)) for _ in range(4)]
        originals = [buf.copy() for buf in buffers]
        group = ProcessGroup(4, topology=TOPO_2x2)
        results = group.all_reduce(buffers)
        assert group.history[-1].algorithm == "allreduce_hierarchical"
        expected, _ = all_reduce_ring([buf.reshape(-1) for buf in buffers])
        for rank in range(4):
            np.testing.assert_array_equal(buffers[rank], originals[rank])
            assert results[rank].shape == (4, 8)
            assert (results[rank].reshape(-1).tobytes()
                    == expected[rank].tobytes())

    def test_single_rank_is_identity(self):
        topology = ClusterTopology(num_nodes=1, gpus_per_node=1)
        buf = np.arange(5, dtype=np.float64)
        stats = all_reduce_inplace([buf], topology=topology)
        np.testing.assert_array_equal(buf, np.arange(5, dtype=np.float64))
        assert stats.bytes_sent_per_rank == [0]
        assert stats.steps == 0


class TestAccounting:
    def test_traffic_formula_2x2(self):
        elems, g, nodes = 1001, 2, 2
        per_rank = hierarchical_traffic(elems, TOPO_2x2, 8)
        expected = int(round(
            (2 * elems * (g - 1) / g
             + 2 * (elems / g) * (nodes - 1) / nodes) * 8
        ))
        assert per_rank == [expected] * 4

    def test_steps_formula(self):
        assert hierarchical_steps(TOPO_2x2) == 2 * (2 - 1) + 2 * (2 - 1)
        assert hierarchical_steps(TOPO_1x4) == 2 * (4 - 1)

    def test_hierarchical_takes_fewer_steps_than_flat(self, rng):
        # For divisible payloads total bytes match the flat ring exactly
        # ((g-1)/g + (1/g)(nodes-1)/nodes == (p-1)/p); the win is fewer
        # serial rounds, and only 1/g of the traffic crosses nodes.
        topology = ClusterTopology(num_nodes=2, gpus_per_node=4)
        buffers = _random_buffers(rng, 8, 4096)
        flat_stats = all_reduce_inplace([buf.copy() for buf in buffers])
        hier_stats = all_reduce_inplace(buffers, topology=topology)
        assert hier_stats.algorithm == "allreduce_hierarchical"
        assert (sum(hier_stats.bytes_sent_per_rank)
                == sum(flat_stats.bytes_sent_per_rank))
        assert hier_stats.steps < flat_stats.steps

    def test_empty_payload(self):
        per_rank = hierarchical_traffic(0, TOPO_2x2, 8)
        assert per_rank == [0, 0, 0, 0]


class TestValidation:
    def test_world_size_mismatch(self, rng):
        with pytest.raises(ValueError, match="rank buffers"):
            all_reduce_inplace(
                _random_buffers(rng, 3, 8), topology=TOPO_2x2
            )

    def test_non_float64_rejected(self):
        """Any one floating dtype sums in place; integers do not."""
        buffers = [np.zeros(4, dtype=np.int64) for _ in range(4)]
        with pytest.raises(ValueError, match="floating"):
            all_reduce_inplace(buffers, topology=TOPO_2x2)

    def test_segment_out_of_range(self, rng):
        buffers = _random_buffers(rng, 4, 10)
        with pytest.raises(ValueError, match="out of range"):
            all_reduce_inplace(buffers, 8, 10, TOPO_2x2)


class TestProcessGroupDispatch:
    def test_topology_routes_to_hierarchical(self, rng):
        group = ProcessGroup(4, topology=TOPO_2x2)
        buffers = _random_buffers(rng, 4, 257)
        expected, _ = all_reduce_ring([buf.copy() for buf in buffers])
        group.all_reduce_(buffers)
        assert group.history[-1].algorithm == "allreduce_hierarchical"
        for rank in range(4):
            assert buffers[rank].tobytes() == expected[rank].tobytes()

    def test_set_topology_validates_world_size(self):
        group = ProcessGroup(4)
        with pytest.raises(ValueError, match="world size"):
            group.set_topology(ClusterTopology(num_nodes=3,
                                               gpus_per_node=2))

    @staticmethod
    def _trainer_parts(group, seed=7):
        from repro.models.convnets import make_small_vgg
        from repro.optim.aggregators import make_aggregator
        from repro.optim.sgd import SGD
        from repro.train.datasets import make_cifar_like

        train_data, test_data = make_cifar_like(
            num_train=8, num_test=4, seed=seed
        )
        model = make_small_vgg(base_width=2,
                               rng=np.random.default_rng(seed))
        return (
            model, SGD(model, lr=0.05),
            make_aggregator("ssgd", group),
            train_data, test_data,
        )

    def test_trainer_wires_topology_onto_group(self):
        """The group is the one entrance: a trainer over a group built with
        a topology accounts the two-level schedule."""
        from repro.train.trainer import DataParallelTrainer

        group = ProcessGroup(4, topology=TOPO_2x2)
        trainer = DataParallelTrainer(
            *self._trainer_parts(group), batch_size_per_worker=2
        )
        trainer.train_step()
        assert group.history[-1].algorithm == "allreduce_hierarchical"

    def test_trainer_rejects_topology_world_mismatch(self):
        with pytest.raises(ValueError, match="world size"):
            ProcessGroup(3, topology=TOPO_2x2)

    def test_trainer_rejects_group_topology_with_membership(self):
        """A plan that grows the roster cannot run over a node topology,
        whichever way the topology reached the group."""
        from repro.faults import (
            FaultInjector, FaultPlan, Join, ResilientProcessGroup,
            SupervisionPolicy,
        )
        from repro.train.trainer import DataParallelTrainer

        plan = FaultPlan(joins=(Join(call_index=4),))
        group = ResilientProcessGroup(4, injector=FaultInjector(plan))
        group.set_topology(TOPO_2x2)
        with pytest.raises(ValueError, match="mutually exclusive"):
            DataParallelTrainer(
                *self._trainer_parts(group), batch_size_per_worker=2,
            )
        # A supervisor that readmits ejected workers grows it too ...
        group = ResilientProcessGroup(4, injector=FaultInjector(FaultPlan()))
        group.set_topology(TOPO_2x2)
        with pytest.raises(ValueError, match="mutually exclusive"):
            DataParallelTrainer(
                *self._trainer_parts(group), batch_size_per_worker=2,
                supervision=SupervisionPolicy(on_failure="eject"),
            )
        # ... while a roster that can only shrink is accepted.
        DataParallelTrainer(
            *self._trainer_parts(group), batch_size_per_worker=2,
            supervision=SupervisionPolicy(
                on_failure="eject", respawn_delay_steps=None
            ),
        ).close()
