"""Open-membership gossip training: store, payload, scorer, cluster.

The acceptance contract this file gates:

- every payload corruption mode is caught and typed;
- a seeded run with >= 30% adversarial peers quarantines every bad peer
  within the scorer's bounded window count, converges within tolerance of
  the honest-only run, and replays bit-identically;
- joiners and returning peers land bit-identical to the veterans via
  store replay alone (no donor broadcast).
"""

import numpy as np
import pytest

from repro.compression.payload import (
    PayloadFormatError,
    pack_payload,
    unpack_payload,
)
from repro.faults.plan import (
    FaultPlan,
    Join,
    PeerFault,
    PermanentFailure,
    Recovery,
)
from repro.gossip import (
    Contribution,
    FilesystemStore,
    GossipCluster,
    GossipConfig,
    InMemoryStore,
    PeerScorer,
    ScorerConfig,
)
from repro.gossip.trainer import decode_update
from repro.models.convnets import make_mlp
from repro.sim.calibration import SIM_LINKS
from repro.sim.gossip import (
    GossipWindowSpec,
    recommend_window_steps,
    window_survival_probability,
    window_utility_rate,
)
from repro.train.datasets import ArrayDataset

pytestmark = pytest.mark.gossip


# ----------------------------------------------------------------------
# Payload wire format
# ----------------------------------------------------------------------
class TestPayload:
    def make_blob(self):
        return pack_payload(
            {
                "indices": np.arange(12, dtype=np.int64),
                "values": np.linspace(-1.0, 1.0, 12),
            },
            {"peer": "peer-000", "window": 4, "num_elements": 64},
        )

    def test_round_trip(self):
        blob = self.make_blob()
        arrays, meta = unpack_payload(blob)
        assert np.array_equal(arrays["indices"], np.arange(12))
        assert np.allclose(arrays["values"], np.linspace(-1.0, 1.0, 12))
        assert meta == {"peer": "peer-000", "window": 4, "num_elements": 64}

    def test_returned_arrays_are_writable_copies(self):
        arrays, _ = unpack_payload(self.make_blob())
        arrays["values"][0] = 99.0  # must not raise

    def test_pack_is_deterministic(self):
        assert self.make_blob() == self.make_blob()

    def test_every_single_bit_flip_is_caught(self):
        blob = self.make_blob()
        for bit in range(len(blob) * 8):
            raw = bytearray(blob)
            raw[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(PayloadFormatError):
                unpack_payload(bytes(raw))

    def test_every_truncation_is_caught(self):
        blob = self.make_blob()
        for cut in range(len(blob)):
            with pytest.raises(PayloadFormatError):
                unpack_payload(blob[:cut])

    def test_foreign_blob_rejected_by_magic(self):
        with pytest.raises(PayloadFormatError, match="magic"):
            unpack_payload(b"PKZIP-definitely-not-ours" + b"\x00" * 64)

    def test_absurd_header_length_rejected_without_allocation(self):
        from repro.compression.payload import PAYLOAD_MAGIC

        evil = PAYLOAD_MAGIC + (2**31 - 1).to_bytes(4, "little") * 2
        with pytest.raises(PayloadFormatError, match="header size"):
            unpack_payload(evil)


# ----------------------------------------------------------------------
# Update stores
# ----------------------------------------------------------------------
@pytest.fixture(params=["memory", "filesystem"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryStore()
    return FilesystemStore(str(tmp_path / "store"))


class TestStores:
    def test_publish_fetch_ordered_by_peer(self, store):
        store.publish(0, "peer-002", b"c")
        store.publish(0, "peer-000", b"a")
        store.publish(0, "peer-001", b"b")
        fetched = store.fetch(0)
        assert list(fetched) == ["peer-000", "peer-001", "peer-002"]
        assert fetched["peer-000"] == b"a"

    def test_fetch_missing_window_is_empty(self, store):
        assert store.fetch(7) == {}

    def test_republish_overwrites(self, store):
        store.publish(0, "peer-000", b"old")
        store.publish(0, "peer-000", b"new")
        assert store.fetch(0)["peer-000"] == b"new"

    def test_windows_ascending(self, store):
        for window in (5, 1, 3):
            store.publish(window, "peer-000", b"x")
        assert store.windows() == [1, 3, 5]

    def test_gc_drops_old_windows(self, store):
        for window in range(5):
            store.publish(window, "peer-000", b"x")
        assert store.gc(3) == 3
        assert store.windows() == [3, 4]
        assert store.fetch(1) == {}

    def test_publish_validation(self, store):
        with pytest.raises(ValueError, match="window"):
            store.publish(-1, "peer-000", b"x")
        with pytest.raises(ValueError, match="peer_id"):
            store.publish(0, "", b"x")
        with pytest.raises(TypeError, match="bytes"):
            store.publish(0, "peer-000", "not bytes")

    def test_filesystem_rejects_hostile_peer_ids(self, tmp_path):
        fs = FilesystemStore(str(tmp_path / "store"))
        for evil in ("../escape", "a/b", "a\x00b", ".."):
            with pytest.raises(ValueError, match="filesystem-safe"):
                fs.publish(0, evil, b"x")

    def test_filesystem_survives_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        FilesystemStore(root).publish(2, "peer-000", b"payload")
        reopened = FilesystemStore(root)
        assert reopened.windows() == [2]
        assert reopened.fetch(2)["peer-000"] == b"payload"


# ----------------------------------------------------------------------
# Peer scorer
# ----------------------------------------------------------------------
def dense(values):
    return np.asarray(values, dtype=np.float64)


def honest_window(window, n=4, scale=1.0):
    rng = np.random.default_rng(window)
    return [
        Contribution(f"peer-{i:03d}",
                     update=scale * (dense([1.0, 1.0, 1.0, 1.0])
                                     + 0.05 * rng.normal(size=4)),
                     stamped_window=window)
        for i in range(n)
    ]


class TestScorer:
    def test_clean_window_full_weight(self):
        scorer = PeerScorer()
        weights = scorer.weigh_window(0, honest_window(0))
        assert all(w == pytest.approx(1.0) for w in weights.values())

    def test_decode_error_books_typed_offence(self):
        scorer = PeerScorer()
        contributions = honest_window(0)[:3] + [
            Contribution("peer-bad", decode_error="corrupt-payload: crc")
        ]
        weights = scorer.weigh_window(0, contributions)
        assert weights["peer-bad"] == 0.0
        assert scorer.offences_of_kind("corrupt-payload")[0].peer_id == "peer-bad"

    def test_non_finite_update_excluded(self):
        scorer = PeerScorer()
        contributions = honest_window(0)[:3] + [
            Contribution("peer-bad", update=dense([1.0, np.nan, 1.0, 1.0]),
                         stamped_window=0)
        ]
        weights = scorer.weigh_window(0, contributions)
        assert weights["peer-bad"] == 0.0
        assert scorer.offences_of_kind("non-finite")

    def test_staleness_decays_weight(self):
        config = ScorerConfig(staleness_half_life=2.0, max_lag=3)
        scorer = PeerScorer(config)
        contributions = honest_window(6)[:3]
        contributions.append(Contribution(
            "peer-stale", update=contributions[0].update.copy(),
            stamped_window=4))  # lag 2 = one half-life
        weights = scorer.weigh_window(6, contributions)
        assert weights["peer-stale"] == pytest.approx(0.5)

    def test_lag_beyond_max_is_an_offence(self):
        scorer = PeerScorer(ScorerConfig(max_lag=3))
        contributions = honest_window(9)[:3]
        contributions.append(Contribution(
            "peer-old", update=contributions[0].update.copy(),
            stamped_window=5))  # lag 4 > max_lag 3
        weights = scorer.weigh_window(9, contributions)
        assert weights["peer-old"] == 0.0
        assert scorer.offences_of_kind("lagging")

    def test_future_stamp_is_time_travel(self):
        scorer = PeerScorer()
        contributions = honest_window(2)[:3]
        contributions.append(Contribution(
            "peer-oracle", update=contributions[0].update.copy(),
            stamped_window=5))
        scorer.weigh_window(2, contributions)
        assert scorer.offences_of_kind("time-travel")

    def test_free_rider_and_blowup_excluded_by_norm(self):
        scorer = PeerScorer()
        contributions = honest_window(0)[:3] + [
            Contribution("peer-zero", update=dense([0, 0, 0, 0]),
                         stamped_window=0),
            Contribution("peer-huge", update=dense([1e6, 1e6, 1e6, 1e6]),
                         stamped_window=0),
        ]
        weights = scorer.weigh_window(0, contributions)
        assert weights["peer-zero"] == 0.0
        assert weights["peer-huge"] == 0.0
        assert scorer.offences_of_kind("free-rider")
        assert scorer.offences_of_kind("norm-blowup")

    def test_sign_flip_minority_excluded(self):
        scorer = PeerScorer()
        contributions = honest_window(0)
        flipped = -contributions[0].update
        contributions.append(Contribution("peer-flip", update=flipped,
                                          stamped_window=0))
        weights = scorer.weigh_window(0, contributions)
        assert weights["peer-flip"] == 0.0
        assert scorer.offences_of_kind("sign-flip")
        for i in range(4):
            assert weights[f"peer-{i:03d}"] > 0.0

    def test_adversarial_majority_cannot_eject_honest_peers(self):
        # 3 flipped vs 2 honest: the "dissenters" are not a minority, so
        # the direction screen must abstain rather than hand the attackers
        # an ejection lever.
        scorer = PeerScorer()
        honest = honest_window(0, n=2)
        flipped = [
            Contribution(f"peer-flip-{i}", update=-honest[0].update,
                         stamped_window=0)
            for i in range(3)
        ]
        weights = scorer.weigh_window(0, honest + flipped)
        assert all(weights[c.peer_id] > 0.0 for c in honest)
        assert not scorer.offences_of_kind("sign-flip")

    def test_persistent_offender_quarantined_within_bound(self):
        config = ScorerConfig()
        scorer = PeerScorer(config)
        bound = config.quarantine_windows_bound
        for window in range(bound + 2):
            contributions = honest_window(window)[:3] + [
                Contribution("peer-bad", decode_error="corrupt-payload: crc")
            ]
            scorer.weigh_window(window, contributions)
            if scorer.is_quarantined("peer-bad"):
                break
        assert scorer.is_quarantined("peer-bad")
        assert scorer.records["peer-bad"].quarantined_window < bound

    def test_quarantine_is_permanent_even_for_clean_updates(self):
        scorer = PeerScorer()
        for window in range(5):
            contributions = honest_window(window)[:3] + [
                Contribution("peer-bad", decode_error="corrupt-payload: crc")
            ]
            scorer.weigh_window(window, contributions)
        assert scorer.is_quarantined("peer-bad")
        clean = honest_window(5)[:3] + [
            Contribution("peer-bad", update=honest_window(5)[0].update,
                         stamped_window=5)
        ]
        weights = scorer.weigh_window(5, clean)
        assert weights["peer-bad"] == 0.0

    def test_clean_windows_recover_a_slipping_score(self):
        scorer = PeerScorer()
        one_bad = honest_window(0)[:3] + [
            Contribution("peer-shaky", decode_error="corrupt-payload: crc")
        ]
        scorer.weigh_window(0, one_bad)
        low = scorer.records["peer-shaky"].score
        for window in range(1, 4):
            contributions = honest_window(window)[:3]
            contributions.append(Contribution(
                "peer-shaky", update=contributions[0].update.copy(),
                stamped_window=window))
            scorer.weigh_window(window, contributions)
        assert scorer.records["peer-shaky"].score > low
        assert not scorer.is_quarantined("peer-shaky")

    def test_weights_deterministic_across_scorers(self):
        a, b = PeerScorer(), PeerScorer()
        for window in range(3):
            contributions = honest_window(window)
            wa = a.weigh_window(window, contributions)
            wb = b.weigh_window(window, list(reversed(contributions)))
            assert wa == wb  # order of arrival must not matter

    def test_render_mentions_quarantine(self):
        scorer = PeerScorer()
        for window in range(5):
            scorer.weigh_window(window, honest_window(window)[:3] + [
                Contribution("peer-bad", decode_error="corrupt-payload: x")
            ])
        assert "QUARANTINED" in scorer.render()


# ----------------------------------------------------------------------
# Cluster harness
# ----------------------------------------------------------------------
def make_task(seed=0, n=320, features=6, classes=3):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(features, classes))
    x = rng.normal(size=(n, features))
    y = (x @ w).argmax(axis=1)
    split = int(n * 0.8)
    return (ArrayDataset(x[:split], y[:split]),
            ArrayDataset(x[split:], y[split:]))


def mlp_factory(features=6, classes=3):
    def factory():
        return make_mlp(features, 16, classes,
                        rng=np.random.default_rng(1234))
    return factory


def make_cluster(plan=None, peers=5, config=None, store=None, seed=7):
    train, test = make_task()
    config = config or GossipConfig(local_steps=2, lr=0.1,
                                    compression_ratio=0.2)
    return GossipCluster(mlp_factory(), train, test, config, plan=plan,
                         peers=peers, store=store, seed=seed)


ADVERSARIAL_PLAN = FaultPlan(seed=7, peer_faults=(
    PeerFault("sign-flip", rank=3, start_window=0),
    PeerFault("corrupt-payload", rank=4, start_window=0),
))  # 2 adversaries of 5 peers = 40% >= the 30% acceptance floor


class TestClusterAdversarial:
    def test_every_adversary_quarantined_within_bound(self):
        cluster = make_cluster(plan=ADVERSARIAL_PLAN)
        report = cluster.run(8)
        bound = cluster.config.scorer.quarantine_windows_bound
        assert set(report.quarantined) == {"peer-003", "peer-004"}
        # Offences start at window 0, so quarantine must land within the
        # EMA bound plus the direction screen's one-window warm-up.
        for window in report.quarantined.values():
            assert window <= bound + 1

    def test_honest_peers_stay_bit_identical(self):
        cluster = make_cluster(plan=ADVERSARIAL_PLAN)
        cluster.run(6)
        honest = cluster.honest_peers()
        reference = honest[0].state_vector()
        for peer in honest[1:]:
            assert np.array_equal(reference, peer.state_vector())

    def test_converges_within_tolerance_of_honest_only_run(self):
        adversarial = make_cluster(plan=ADVERSARIAL_PLAN)
        honest_only = make_cluster(plan=FaultPlan(seed=7))
        r_adv = adversarial.run(8)
        r_hon = honest_only.run(8)
        # Same seeded task: the defended run must land in the same loss
        # basin as the run with no attackers at all.
        assert r_adv.window_losses[-1] == pytest.approx(
            r_hon.window_losses[-1], abs=0.1)
        assert r_adv.final_accuracy >= r_hon.final_accuracy - 0.1
        state_adv = adversarial.honest_peers()[0].state_vector()
        state_hon = honest_only.honest_peers()[0].state_vector()
        assert float(np.abs(state_adv - state_hon).max()) < 0.1

    def test_seeded_replay_is_bit_identical(self):
        first = make_cluster(plan=ADVERSARIAL_PLAN)
        second = make_cluster(plan=ADVERSARIAL_PLAN)
        r1 = first.run(6)
        r2 = second.run(6)
        assert r1.window_losses == r2.window_losses
        assert r1.quarantined == r2.quarantined
        assert np.array_equal(first.honest_peers()[0].state_vector(),
                              second.honest_peers()[0].state_vector())

    def test_free_rider_and_lagging_also_quarantined(self):
        plan = FaultPlan(seed=7, peer_faults=(
            PeerFault("free-rider", rank=3, start_window=0),
            PeerFault("lagging", rank=4, start_window=0, lag=5),
        ))
        cluster = make_cluster(plan=plan)
        report = cluster.run(10)
        assert set(report.quarantined) == {"peer-003", "peer-004"}
        assert report.offence_counts.get("free-rider", 0) > 0
        assert report.offence_counts.get("lagging", 0) > 0

    def test_filesystem_store_matches_memory_store(self, tmp_path):
        mem = make_cluster(plan=ADVERSARIAL_PLAN, store=InMemoryStore())
        fs = make_cluster(
            plan=ADVERSARIAL_PLAN,
            store=FilesystemStore(str(tmp_path / "store")),
        )
        r_mem = mem.run(4)
        r_fs = fs.run(4)
        assert r_mem.window_losses == r_fs.window_losses
        assert np.array_equal(mem.honest_peers()[0].state_vector(),
                              fs.honest_peers()[0].state_vector())

    def test_faults_outside_roster_rejected(self):
        plan = FaultPlan(seed=7, peer_faults=(
            PeerFault("sign-flip", rank=9, start_window=0),
        ))
        with pytest.raises(ValueError, match="outside the founding roster"):
            make_cluster(plan=plan, peers=5)


class TestClusterMembership:
    CHURN_PLAN = FaultPlan(
        seed=7,
        permanent=(PermanentFailure(rank=1, call_index=2),),
        recoveries=(Recovery(rank=1, call_index=5),),
        joins=(Join(call_index=4),),
    )

    def test_joiner_lands_bit_identical_via_store_replay(self):
        cluster = make_cluster(plan=self.CHURN_PLAN)
        report = cluster.run(8)
        assert any("peer-005 joined (complete store replay)" in line
                   for line in report.membership)
        reference = cluster.peers["peer-000"].state_vector()
        assert np.array_equal(reference,
                              cluster.peers["peer-005"].state_vector())

    def test_returning_peer_catches_up_bit_identical(self):
        cluster = make_cluster(plan=self.CHURN_PLAN)
        report = cluster.run(8)
        assert any("peer-001 departed" in line for line in report.membership)
        assert any("peer-001 returned" in line for line in report.membership)
        reference = cluster.peers["peer-000"].state_vector()
        assert np.array_equal(reference,
                              cluster.peers["peer-001"].state_vector())

    def test_departed_peer_stops_publishing(self):
        cluster = make_cluster(plan=FaultPlan(
            seed=7, permanent=(PermanentFailure(rank=1, call_index=2),),
        ))
        cluster.run(4)
        assert "peer-001" in cluster.store.peers(1)
        assert "peer-001" not in cluster.store.peers(2)
        assert "peer-001" not in cluster.store.peers(3)

    def test_gc_makes_late_join_partial_but_still_converging(self):
        config = GossipConfig(local_steps=2, lr=0.1, compression_ratio=0.2,
                              store_retention=2)
        plan = FaultPlan(seed=7, joins=(Join(call_index=6),))
        cluster = make_cluster(plan=plan, config=config)
        report = cluster.run(10)
        assert any("peer-005 joined (partial store replay)" in line
                   for line in report.membership)
        # The joiner is live and close to the veterans, not equal.
        veteran = cluster.peers["peer-000"].state_vector()
        joiner = cluster.peers["peer-005"].state_vector()
        assert not np.array_equal(veteran, joiner)
        assert float(np.abs(veteran - joiner).max()) < 1.0

    def test_retention_bounds_the_store(self):
        config = GossipConfig(local_steps=1, lr=0.1, compression_ratio=0.2,
                              store_retention=3)
        cluster = make_cluster(plan=FaultPlan(seed=7), config=config)
        cluster.run(9)
        assert cluster.store.windows() == [6, 7, 8]


class TestFlatLayoutAndDecode:
    def test_decode_classifies_geometry_lie_as_metadata(self):
        blob = pack_payload(
            {"indices": np.arange(3, dtype=np.int64),
             "values": np.ones(3)},
            {"peer": "p", "window": 0, "num_elements": 999},
        )
        contribution = decode_update("p", blob, 64)
        assert contribution.update is None
        assert contribution.decode_error.startswith("metadata")

    def test_decode_classifies_corruption_as_corrupt_payload(self):
        blob = pack_payload(
            {"indices": np.arange(3, dtype=np.int64),
             "values": np.ones(3)},
            {"peer": "p", "window": 0, "num_elements": 64},
        )
        raw = bytearray(blob)
        raw[len(raw) // 2] ^= 0x10
        contribution = decode_update("p", bytes(raw), 64)
        assert contribution.update is None
        assert contribution.decode_error.startswith("corrupt-payload")

    def test_decode_rejects_out_of_range_indices(self):
        blob = pack_payload(
            {"indices": np.array([0, 70], dtype=np.int64),
             "values": np.ones(2)},
            {"peer": "p", "window": 0, "num_elements": 64},
        )
        contribution = decode_update("p", blob, 64)
        assert contribution.decode_error.startswith("metadata")

    def test_decode_densifies_sparse_update(self):
        blob = pack_payload(
            {"indices": np.array([1, 5], dtype=np.int64),
             "values": np.array([2.0, -3.0])},
            {"peer": "p", "window": 2, "num_elements": 8},
        )
        contribution = decode_update("p", blob, 8)
        expected = np.zeros(8)
        expected[1], expected[5] = 2.0, -3.0
        assert np.array_equal(contribution.update, expected)
        assert contribution.stamped_window == 2


# ----------------------------------------------------------------------
# Window economy (sim)
# ----------------------------------------------------------------------
class TestWindowEconomy:
    SPEC = GossipWindowSpec(peers=8, update_bytes=512 * 1024,
                            step_time_s=0.05, churn_per_step=0.01)

    def test_survival_decays_with_window_length(self):
        assert (window_survival_probability(self.SPEC, 1)
                > window_survival_probability(self.SPEC, 10))

    def test_higher_churn_prefers_shorter_windows(self):
        link = SIM_LINKS["1GbE"]
        calm = GossipWindowSpec(peers=8, update_bytes=512 * 1024,
                                step_time_s=0.05, churn_per_step=0.0005)
        stormy = GossipWindowSpec(peers=8, update_bytes=512 * 1024,
                                  step_time_s=0.05, churn_per_step=0.05)
        assert (recommend_window_steps(stormy, link)
                <= recommend_window_steps(calm, link))

    def test_slower_link_prefers_longer_windows(self):
        fast = SIM_LINKS["100GbIB"]
        slow = SIM_LINKS["1GbE"]
        assert (recommend_window_steps(self.SPEC, slow)
                >= recommend_window_steps(self.SPEC, fast))

    def test_utility_rate_positive_and_finite(self):
        link = SIM_LINKS["10GbE"]
        for steps in (1, 4, 16):
            rate = window_utility_rate(self.SPEC, link, steps)
            assert rate > 0.0
            assert np.isfinite(rate)

    def test_validation(self):
        with pytest.raises(ValueError, match="peers"):
            GossipWindowSpec(peers=1, update_bytes=1, step_time_s=0.1)
        with pytest.raises(ValueError, match="churn"):
            GossipWindowSpec(peers=2, update_bytes=1, step_time_s=0.1,
                             churn_per_step=1.0)
        with pytest.raises(ValueError, match="local_steps"):
            window_utility_rate(self.SPEC, SIM_LINKS["10GbE"], 0)


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
class TestCli:
    def test_gossip_subcommand_runs(self, capsys):
        from repro.cli import main

        code = main([
            "gossip", "--peers", "4", "--windows", "4", "--samples", "200",
            "--local-steps", "1", "--adversaries", "1", "--hidden", "8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "quarantined" in out
        assert "peer trust" in out

    def test_gossip_rejects_adversarial_majority(self, capsys):
        from repro.cli import main

        assert main(["gossip", "--peers", "4", "--adversaries", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro gossip: error: --adversaries 2 is not")
        assert "honest-majority" in err
