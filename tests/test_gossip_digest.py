"""Pinned outputs of four seeded gossip runs.

Every active peer's final ``state_vector()`` is pinned by its SHA-256
digest, and the report's quarantine, offence and membership lines are
pinned as text. ``scripts/check_determinism.py`` compares two runs of the
same code; these digests compare the code against its own past, so a
refactor of the peer (its gradient storage, selection, decode or descent)
must reproduce every byte a peer publishes and every weight it ends with.

The scenarios:

- ``cli``: ``python -m repro gossip`` with its defaults (the printout is
  pinned as well);
- ``churn``: ``check_determinism.py``'s adversarial run — sign-flip and
  corrupt-payload attackers, a departure, a return and a join;
- ``faulty``: a :class:`FaultyStore` over a :class:`FilesystemStore`
  (drops, delays, torn fetches, an outage) with free-rider and lagging
  peers and a join;
- ``wide``: an ~80k-parameter MLP, large enough that Top-k selection
  takes the sampled-bound path.
"""

import hashlib

import numpy as np
import pytest

from repro.faults.plan import (
    FaultPlan,
    Join,
    PeerFault,
    PermanentFailure,
    Recovery,
)
from repro.gossip import (
    FaultyStore,
    FilesystemStore,
    GossipCluster,
    GossipConfig,
    StoreFaultConfig,
)
from repro.models.convnets import make_mlp
from repro.train.datasets import ArrayDataset

pytestmark = pytest.mark.gossip

_PINNED_PREFIXES = ("quarantined ", "offences ", "membership ")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outcome(cluster, report, store=None):
    """Digest per active peer, of every blob ``store`` (default: the
    cluster's) holds, and the report's pinned lines."""
    store = cluster.store if store is None else store
    weights = {
        peer.peer_id: _sha(peer.state_vector().tobytes())
        for peer in cluster.active_peers()
    }
    published = hashlib.sha256()
    for window in store.windows():
        for peer_id, blob in store.fetch(window).items():
            published.update(f"{window}:{peer_id}:{len(blob)}:".encode() + blob)
    lines = [
        line for line in report.render().splitlines()
        if line.startswith(_PINNED_PREFIXES)
    ]
    return weights, published.hexdigest(), lines


def _task(seed, samples, features, classes):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(features, classes))
    inputs = rng.normal(size=(samples, features))
    labels = (inputs @ weights).argmax(axis=1)
    split = int(samples * 0.8)
    return (ArrayDataset(inputs[:split], labels[:split]),
            ArrayDataset(inputs[split:], labels[split:]))


def run_cli(monkeypatch, capsys):
    from repro.cli import main

    captured = []
    run = GossipCluster.run

    def capturing_run(self, windows):
        report = run(self, windows)
        captured.append((self, report))
        return report

    monkeypatch.setattr(GossipCluster, "run", capturing_run)
    assert main(["gossip"]) == 0
    printout = capsys.readouterr().out
    [(cluster, report)] = captured
    return _outcome(cluster, report), _sha(printout.encode())


def run_churn():
    rng = np.random.default_rng(3)
    weights = rng.normal(size=(6, 3))
    inputs = rng.normal(size=(320, 6))
    labels = (inputs @ weights).argmax(axis=1)
    train_data = ArrayDataset(inputs[:256], labels[:256])
    test_data = ArrayDataset(inputs[256:], labels[256:])
    plan = FaultPlan(
        seed=7,
        peer_faults=(
            PeerFault("sign-flip", rank=4, start_window=0),
            PeerFault("corrupt-payload", rank=3, start_window=1),
        ),
        permanent=(PermanentFailure(rank=1, call_index=3),),
        recoveries=(Recovery(rank=1, call_index=6),),
        joins=(Join(call_index=5),),
    )
    cluster = GossipCluster(
        lambda: make_mlp(6, 16, 3, rng=np.random.default_rng(5)),
        train_data, test_data,
        GossipConfig(local_steps=2, lr=0.1, compression_ratio=0.2),
        plan=plan, peers=5, seed=13,
    )
    return _outcome(cluster, cluster.run(8))


def run_faulty(root):
    train_data, test_data = _task(11, 240, 6, 3)
    store = FaultyStore(
        FilesystemStore(root),
        StoreFaultConfig(
            seed=11,
            drop_publish_rate=0.15,
            delay_publish_rate=0.2,
            delay_windows=1,
            torn_fetch_rate=0.2,
            outage_windows=(4,),
        ),
    )
    plan = FaultPlan(
        seed=11,
        peer_faults=(
            PeerFault("free-rider", rank=5, start_window=1),
            PeerFault("lagging", rank=4, lag=2),
        ),
        joins=(Join(call_index=3),),
    )
    cluster = GossipCluster(
        lambda: make_mlp(6, 12, 3, rng=np.random.default_rng(21)),
        train_data, test_data,
        GossipConfig(local_steps=2, lr=0.1, compression_ratio=0.25),
        plan=plan, peers=6, store=store, seed=11,
    )
    outcome = _outcome(cluster, cluster.run(8), store.inner)
    assert store.stats.unavailable_ops > 0
    assert store.stats.dropped_publishes > 0
    assert store.stats.delayed_publishes > 0
    assert store.stats.torn_fetches > 0
    return outcome


def run_wide():
    train_data, test_data = _task(17, 160, 64, 10)
    model = lambda: make_mlp(64, 256, 10, rng=np.random.default_rng(23))
    assert model().num_parameters() > 65536
    cluster = GossipCluster(
        model, train_data, test_data,
        GossipConfig(local_steps=2, lr=0.05, compression_ratio=0.02),
        plan=FaultPlan(seed=17, peer_faults=(PeerFault("sign-flip", rank=2),)),
        peers=3, seed=17,
    )
    return _outcome(cluster, cluster.run(3))


def _peers(count):
    return [f"peer-{index:03d}" for index in range(count)]


#: scenario -> (peer ids and their common weights digest, published-blob
#: digest, report lines). Honest and adversarial peers alike apply the
#: window's one screened mean, so every active peer ends on the same weights.
PINNED = {
    "cli": (
        _peers(5),
        "103d684273f2f29582094336f60552687c714954551208a961101a70571081e8",
        "b4cac6973ecd7ea74101870a3aa2d4e2fb6ef572a29afa8046bac622fcb7e6fe",
        ["quarantined           peer-003@w2, peer-004@w2",
         "offences              corrupt-payload:3, sign-flip:3"],
    ),
    "churn": (
        _peers(6),
        "78673ba743b9057f1acfbc729f4bda3bf3890cfa9a64d03be79b49f2d718ebe2",
        "81f0cca47301ea8535595e54029576bf603169b4fb75af99863ca0d1435857cb",
        ["quarantined           peer-003@w3, peer-004@w2",
         "offences              corrupt-payload:3, sign-flip:3",
         "membership            window 3: peer-001 departed",
         "membership            window 5: peer-005 joined (complete store replay)",
         "membership            window 6: peer-001 returned (complete store replay)"],
    ),
    "faulty": (
        _peers(7),
        "4461de3c767d004ce49b1e019be71357313ec149a14826201df88d87f91c4122",
        "d8bbfab3833e10a0a51449ce16727854e9cbca1226a0b7d56dd73c663a0cbcda",
        ["quarantined           peer-005@w5",
         "offences              corrupt-payload:6, free-rider:2",
         "membership            window 3: peer-006 joined (complete store replay)"],
    ),
    "wide": (
        _peers(3),
        "558125482f0bceb58c3741fa5803365c20f17d8658c94c84b8f6949d3dfd1f50",
        "06b4e99428075316bafc052e52a3c6ee65bb83b3565bb4a3ecd1d7fd0f527dab",
        ["quarantined           none",
         "offences              sign-flip:2"],
    ),
}

CLI_PRINTOUT = "c0c0fda96dc3164bd922f85a14594e0db0e6680c65bce53b6b14ab0742ad7dae"


def _assert_pinned(scenario, outcome):
    peers, weights, published, lines = PINNED[scenario]
    assert outcome == (dict.fromkeys(peers, weights), published, lines)


def test_cli_run_is_pinned(monkeypatch, capsys):
    outcome, printout = run_cli(monkeypatch, capsys)
    _assert_pinned("cli", outcome)
    assert printout == CLI_PRINTOUT


def test_churn_run_is_pinned():
    _assert_pinned("churn", run_churn())


def test_faulty_store_run_is_pinned(tmp_path):
    _assert_pinned("faulty", run_faulty(str(tmp_path)))


def test_wide_model_run_is_pinned():
    _assert_pinned("wide", run_wide())
