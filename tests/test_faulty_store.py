"""Seeded store-level fault injection and torn-write hygiene.

:class:`FaultyStore` wraps any :class:`UpdateStore` with seeded drops,
replication lag, torn (prefix-truncated) fetches, and outage windows.
Because every draw is keyed by ``(seed, window, peer, stream)`` rather
than call order, the injected chaos is bit-reproducible: replaying a
campaign replays the exact same faults. The tests here pin each fault
kind with rate-1.0 configs, the keyed-draw determinism, and the
end-to-end cluster replay; the :class:`FilesystemStore` tests cover the
torn-*write* side (a publisher crashing between ``mkstemp`` and
``os.replace`` leaves a stray ``.tmp`` that must never be served).
"""

import os

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.gossip import (
    FaultyStore,
    FilesystemStore,
    GossipCluster,
    GossipConfig,
    InMemoryStore,
    StoreFaultConfig,
    StoreUnavailableError,
)
from repro.models.convnets import make_mlp
from repro.train.datasets import ArrayDataset

pytestmark = [pytest.mark.faults, pytest.mark.gossip]


def make_task(seed=0, n=192, features=6, classes=3):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(features, classes))
    x = rng.normal(size=(n, features))
    y = (x @ w).argmax(axis=1)
    split = int(n * 0.8)
    return (ArrayDataset(x[:split], y[:split]),
            ArrayDataset(x[split:], y[split:]))


def faulty(inner=None, **kwargs):
    return FaultyStore(inner or InMemoryStore(), StoreFaultConfig(**kwargs))


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"drop_publish_rate": -0.1},
        {"drop_publish_rate": 1.5},
        {"torn_fetch_rate": 2.0},
        {"delay_windows": 0},
        {"drop_publish_rate": 0.7, "delay_publish_rate": 0.7},
        {"outage_windows": (-1,)},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            StoreFaultConfig(**kwargs)

    def test_outage_windows_coerced_to_tuple(self):
        config = StoreFaultConfig(outage_windows=[3, 1])
        assert config.outage_windows == (3, 1)


class TestFaultKinds:
    def test_dropped_publish_never_lands(self):
        store = faulty(drop_publish_rate=1.0)
        store.publish(0, "alice", b"payload")
        assert store.fetch(0) == {}
        assert store.stats.dropped_publishes == 1
        assert store.stats.delayed_publishes == 0

    def test_delayed_publish_becomes_visible_one_window_late(self):
        store = faulty(delay_publish_rate=1.0, delay_windows=1)
        store.publish(0, "alice", b"payload")
        # Not yet replicated: a window-0 reader sees nothing.
        assert store.fetch(0) == {}
        assert store.stats.delayed_publishes == 1
        assert store.stats.delivered_late == 0
        # The first operation referencing window 1 advances the visibility
        # clock and flushes the buffered blob into the inner store.
        assert store.fetch(1) == {}
        assert store.fetch(0) == {"alice": b"payload"}
        assert store.stats.delivered_late == 1

    def test_torn_fetch_returns_strict_prefix(self):
        store = faulty(torn_fetch_rate=1.0)
        blob = bytes(range(64))
        store.publish(0, "alice", blob)
        fetched = store.fetch(0)["alice"]
        assert len(fetched) < len(blob)
        assert blob.startswith(fetched)
        assert store.stats.torn_fetches == 1
        # The inner store is untouched: tearing happens on the read path.
        assert store.inner.fetch(0)["alice"] == blob

    def test_outage_window_raises_typed_error(self):
        store = faulty(outage_windows=(2,))
        store.publish(0, "alice", b"payload")
        with pytest.raises(StoreUnavailableError) as excinfo:
            store.publish(2, "alice", b"payload")
        assert excinfo.value.op == "publish" and excinfo.value.window == 2
        with pytest.raises(StoreUnavailableError):
            store.fetch(2)
        assert store.stats.unavailable_ops == 2
        # Windows outside the outage stay serviceable.
        assert store.fetch(0) == {"alice": b"payload"}

    def test_keyed_draws_are_replay_stable(self):
        # Same (seed, window, peer) => same fate, regardless of call
        # order or how many times the op is repeated.
        first = faulty(seed=9, torn_fetch_rate=1.0)
        second = faulty(seed=9, torn_fetch_rate=1.0)
        blob = bytes(range(100))
        first.publish(3, "bob", blob)
        second.publish(3, "bob", blob)
        torn = first.fetch(3)["bob"]
        assert first.fetch(3)["bob"] == torn  # repeat fetch, same tear
        assert second.fetch(3)["bob"] == torn  # fresh wrapper, same tear

    def test_different_peers_draw_independent_fates(self):
        store = faulty(seed=4, drop_publish_rate=0.5)
        for index in range(32):
            store.publish(0, f"peer-{index}", b"x")
        landed = len(store.fetch(0))
        assert 0 < landed < 32  # the fate is per-peer, not global

    def test_gc_drops_stale_delayed_entries(self):
        store = faulty(delay_publish_rate=1.0, delay_windows=5)
        store.publish(0, "alice", b"payload")
        assert store.stats.delayed_publishes == 1
        store.gc(keep_from=1)  # original window 0 aged out while buffered
        store.fetch(6)  # advance well past the release window
        assert store.fetch(0) == {}
        assert store.stats.delivered_late == 0

    def test_windows_delegates_to_inner(self):
        store = faulty()
        store.publish(2, "alice", b"a")
        store.publish(5, "bob", b"b")
        assert store.windows() == [2, 5]


class TestClusterUnderFaults:
    def _report(self, seed=13):
        train_data, test_data = make_task(seed)
        store = FaultyStore(
            InMemoryStore(),
            StoreFaultConfig(
                seed=seed,
                drop_publish_rate=0.2,
                delay_publish_rate=0.2,
                torn_fetch_rate=0.2,
                outage_windows=(3,),
            ),
        )
        cluster = GossipCluster(
            lambda: make_mlp(6, 16, 3, rng=np.random.default_rng(1234)),
            train_data,
            test_data,
            config=GossipConfig(local_steps=2, lr=0.1,
                                compression_ratio=0.2),
            plan=FaultPlan(seed=seed),
            peers=4,
            store=store,
            seed=seed,
        )
        report = cluster.run(windows=6)
        peer = cluster.peers[sorted(cluster.peers)[0]]
        weights = np.concatenate(
            [p.data.ravel() for _, p in peer.model.named_parameters()]
        )
        return report, weights, store.stats

    def test_replay_is_bit_identical_and_chaos_fired(self):
        first_report, first_weights, first_stats = self._report()
        second_report, second_weights, second_stats = self._report()
        assert np.array_equal(first_weights, second_weights)
        assert first_report.final_accuracy == second_report.final_accuracy
        assert first_stats == second_stats
        assert np.all(np.isfinite(first_weights))
        # The campaign actually exercised the chaos paths.
        assert first_stats.unavailable_ops > 0
        assert first_stats.dropped_publishes > 0
        assert first_stats.torn_fetches > 0
        assert first_stats.delivered_late <= first_stats.delayed_publishes


class TestFetchOrder:
    @pytest.mark.parametrize("backend", ["memory", "filesystem", "faulty"])
    def test_prefix_related_ids_come_back_in_id_order(self, backend, tmp_path):
        # "a.bin" sorts after "a-b.bin" and "a.b.bin": a store that sorted
        # file names would hand the weighted mean another summation order.
        store = {
            "memory": InMemoryStore,
            "filesystem": lambda: FilesystemStore(str(tmp_path)),
            "faulty": lambda: faulty(FilesystemStore(str(tmp_path))),
        }[backend]()
        for peer_id in ("a_b", "a.b", "a", "a-b"):
            store.publish(0, peer_id, peer_id.encode())
        fetched = store.fetch(0)
        assert list(fetched) == ["a", "a-b", "a.b", "a_b"]
        assert all(blob == peer_id.encode() for peer_id, blob in fetched.items())


class TestFilesystemTornWrites:
    def _window_dir(self, store, window):
        return os.path.join(store.root, f"window-{window:08d}")

    def test_fetch_ignores_stray_tmp_files(self, tmp_path):
        store = FilesystemStore(str(tmp_path))
        store.publish(0, "alice", b"real")
        with open(os.path.join(self._window_dir(store, 0),
                               "crashed-writer.tmp"), "wb") as handle:
            handle.write(b"half a blo")
        assert store.fetch(0) == {"alice": b"real"}

    def test_gc_removes_stray_tmp_and_keeps_blobs(self, tmp_path):
        store = FilesystemStore(str(tmp_path))
        store.publish(1, "alice", b"real")
        stray = os.path.join(self._window_dir(store, 1), "dead.tmp")
        with open(stray, "wb") as handle:
            handle.write(b"partial")
        store.gc(keep_from=0)  # window 1 is kept, the stray is not
        assert not os.path.exists(stray)
        assert store.fetch(1) == {"alice": b"real"}

    def test_gc_still_drops_expired_windows(self, tmp_path):
        store = FilesystemStore(str(tmp_path))
        store.publish(0, "alice", b"old")
        store.publish(4, "alice", b"new")
        store.gc(keep_from=3)
        assert store.windows() == [4]
        assert store.fetch(0) == {}
