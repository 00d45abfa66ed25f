"""ClusterSpec communication models: flat and topology-aware."""

import pytest

from repro.comm.cost_model import allreduce_time
from repro.comm.topology import ClusterTopology
from repro.models import get_model_spec
from repro.sim.calibration import LINK_10GBE
from repro.sim.strategies import ClusterSpec, simulate_iteration


@pytest.fixture(scope="module")
def resnet18():
    return get_model_spec("ResNet-18")


class TestAllreduceCost:
    def test_default_matches_flat_ring(self):
        cluster = ClusterSpec(32)
        nbytes = 25e6
        assert cluster.allreduce_cost(nbytes) == pytest.approx(
            allreduce_time(nbytes, 32, LINK_10GBE)
        )

    def test_topology_never_worse_than_flat(self):
        topo = ClusterSpec(32, topology=ClusterTopology(8, 4))
        flat = ClusterSpec(32)
        for nbytes in (1e4, 1e6, 1e8):
            assert topo.allreduce_cost(nbytes) <= flat.allreduce_cost(nbytes) + 1e-12

    def test_topology_world_size_must_match(self):
        with pytest.raises(ValueError, match="topology world size"):
            ClusterSpec(16, topology=ClusterTopology(8, 4))


class TestSimulationWithCommModels:
    def test_topology_speeds_up_comm_bound_iteration(self, resnet18):
        """Small fused compressed buckets are startup-bound: the two-level
        schedule with fewer slow-link steps shaves exposed comm."""
        flat = simulate_iteration(
            "ssgd", resnet18, cluster=ClusterSpec(32), batch_size=16,
        )
        topo = simulate_iteration(
            "ssgd", resnet18,
            cluster=ClusterSpec(32, topology=ClusterTopology(8, 4)),
            batch_size=16,
        )
        assert topo.total <= flat.total + 1e-9

    def test_all_methods_run_with_topology(self, resnet18):
        cluster = ClusterSpec(8, topology=ClusterTopology(2, 4))
        for method in ("ssgd", "acpsgd", "powersgd_star", "randomk"):
            bd = simulate_iteration(method, resnet18, cluster=cluster,
                                    batch_size=16, rank=4)
            assert bd.total > 0
