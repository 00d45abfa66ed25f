"""Pinned bits of the error-feedback methods across the composition matrix.

One SHA-256 per cell over every step's loss and the final weights, for
Top-k, Sign-SGD, ACP-SGD, Power-SGD and Random-k, each with error feedback
on and off, monolithic and in 512 KiB buckets (the float32 model is
0.67 MB: two buckets), under three scenarios:

- ``static``: a plain group of three ranks (sequential steps fire their
  buckets eagerly from the gradient hooks);
- ``elastic``: rank 1 is ejected, rejoins, then a fourth rank joins — every
  survivor changes slot twice and two ranks start with an empty residual;
- ``resilient``: one step is skipped for a non-finite local gradient and a
  later one for a non-finite aggregate; each skip resets the compressor
  state and opens a two-step uncompressed fallback window.

DGC (Top-k with momentum correction, whose velocity the Top-k selection
reads) is pinned in the six error-feedback cells under ``SGD(momentum=0)``:
its momentum lives in the aggregator, so the optimizer applies none.

ACP-SGD and Power-SGD with error feedback are also pinned with query reuse
off (``no-reuse`` cells: the Fig. 7 "w/o reuse" ablation), where every
step's carried factor is a fresh draw from a per-tensor stream that an
admitted rank clones from its donor.

The digest of a cell does not depend on the worker backend: sequential and
process workers must both reproduce it. Re-capture (only when the bits are
*meant* to move) with ``PYTHONPATH=src python tests/test_ef_digest_matrix.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.faults import (
    FaultInjector,
    FaultPlan,
    Join,
    PermanentFailure,
    Recovery,
    ResilientProcessGroup,
)
from repro.models.convnets import make_mlp
from repro.optim.aggregators import make_aggregator
from repro.optim.sgd import SGD
from repro.train.datasets import ArrayDataset
from repro.train.resilience import ResilienceConfig
from repro.train.trainer import DataParallelTrainer

METHODS = ("topk", "signsgd", "acpsgd", "powersgd", "randomk")
NO_REUSE_METHODS = ("acpsgd", "powersgd")
#: Methods pinned with error feedback on only (their default).
EF_ONLY_METHODS = ("dgc",)
BUCKETING = {"monolithic": None, "bucketed": 1 << 19}
SCENARIOS = ("static", "elastic", "resilient")
STEPS = 10
WORLD = 3
#: Steps (1-based, as counted by the trainer) whose local gradients /
#: aggregate are made non-finite in the ``resilient`` scenario.
LOCAL_NAN_STEP, AGGREGATE_INF_STEP = 3, 6
#: Collective call indices of the ``elastic`` scenario's eject, rejoin and
#: join (a fault plan counts collectives, not steps).
ELASTIC_CALLS = (1, 3, 5)


def cell_key(method, ef, bucketing, scenario, reuse_query=True):
    mode = ("ef" if ef else "no-ef") + ("" if reuse_query else "-no-reuse")
    return f"{method}/{mode}/{bucketing}/{scenario}"


def _trainer(method, ef, bucketing, scenario, workers, reuse_query=True,
             elastic_calls=ELASTIC_CALLS):
    rng = np.random.default_rng(0)
    data = ArrayDataset(
        rng.standard_normal((96, 128)), rng.integers(0, 10, size=96)
    )
    model = make_mlp(128, 256, 10, depth=3, rng=rng)
    resilience = None
    if scenario == "elastic":
        eject, rejoin, join = elastic_calls
        plan = FaultPlan(
            seed=7,
            permanent=(PermanentFailure(rank=1, call_index=eject),),
            recoveries=(Recovery(rank=1, call_index=rejoin),),
            joins=(Join(call_index=join),),
        )
        group = ResilientProcessGroup(WORLD, injector=FaultInjector(plan))
    else:
        group = ProcessGroup(WORLD)
    if scenario == "resilient":
        resilience = ResilienceConfig(fallback_steps=2, checkpoint_interval=0)
    kwargs = {"rank": 2} if method in ("acpsgd", "powersgd") else {}
    if not reuse_query:
        kwargs["reuse_query"] = False
    aggregator = make_aggregator(
        method, group, use_error_feedback=ef, **kwargs
    )
    momentum = 0.0 if method == "dgc" else 0.9
    trainer = DataParallelTrainer(
        model, SGD(model, lr=0.05, momentum=momentum), aggregator, data, data,
        batch_size_per_worker=4, seed=1, buffer_bytes=BUCKETING[bucketing],
        workers=workers, resilience=resilience,
    )
    if scenario == "resilient":
        _force_skips(trainer)
    return trainer


def _force_skips(trainer):
    """Poison one step's local gradient and a later step's aggregate.

    Both happen in the parent, after the workers wrote their slabs, so the
    two backends see the same fault.
    """
    apply, finish = trainer._resilient_apply, trainer.reducer.finish_step

    def poisoned_apply(mean_loss, per_worker):
        if trainer._step_count == LOCAL_NAN_STEP:
            per_worker[1].slab[0] = np.nan
        return apply(mean_loss, per_worker)

    def poisoned_finish(aggregator=None):
        aggregated = finish(aggregator)
        if trainer._step_count == AGGREGATE_INF_STEP:
            name = next(iter(aggregated))
            aggregated = dict(aggregated)
            aggregated[name] = np.full(aggregated[name].shape, np.inf)
        return aggregated

    trainer._resilient_apply = poisoned_apply
    trainer.reducer.finish_step = poisoned_finish


def run_cell(method, ef, bucketing, scenario, workers="seq", reuse_query=True,
             elastic_calls=ELASTIC_CALLS):
    """Digest of one cell's trajectory (asserting the scenario played out)."""
    trainer = _trainer(
        method, ef, bucketing, scenario, workers, reuse_query, elastic_calls
    )
    with trainer:
        losses = [trainer.train_step() for _ in range(STEPS)]
    if scenario == "elastic":
        kinds = [change.kind for change in trainer.aggregator.group.changes]
        assert kinds == ["eject", "rejoin", "join"], kinds
    if trainer.resilience_log is not None:
        log = trainer.resilience_log
        assert (log.skipped_steps, log.fallback_steps_run) == (2, 4)
    digest = hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes())
    digest.update(trainer.model.state_vector().tobytes())
    return digest.hexdigest()


PINNED = {
    "topk/ef/monolithic/static":
        "16adca699be8fd38b0f07b0fb41d86196a75b2f33fb0c54c935b30eba17b0e8f",
    "topk/ef/monolithic/elastic":
        "ab8c06fbf9b7ae19346edc60deb94c4b0dd20db0435b2408f527907b66b49997",
    "topk/ef/monolithic/resilient":
        "356a2261d095ec1b65a16259717955de8b18d87da34d77ddffc6d7e11054311e",
    "topk/ef/bucketed/static":
        "16adca699be8fd38b0f07b0fb41d86196a75b2f33fb0c54c935b30eba17b0e8f",
    "topk/ef/bucketed/elastic":
        "943bc358a816bd4b765ed05f0377bb3ec7ad95219f684b8a37aea9cf9d65682d",
    "topk/ef/bucketed/resilient":
        "356a2261d095ec1b65a16259717955de8b18d87da34d77ddffc6d7e11054311e",
    "topk/no-ef/monolithic/static":
        "6d2d74cc960a9931e8ebf9442436c8f9dd08abca16638907dd86a38bc5fc4c8a",
    "topk/no-ef/monolithic/elastic":
        "dee4e0bd920f2f78a70bc79ed87a6d8a57ba17bfeaa4d0228ead7755268f8aaa",
    "topk/no-ef/monolithic/resilient":
        "4cb5eee553a72127285cdf1eeb620cffdd18457be1751144744ca6327fbe6ca2",
    "topk/no-ef/bucketed/static":
        "6d2d74cc960a9931e8ebf9442436c8f9dd08abca16638907dd86a38bc5fc4c8a",
    "topk/no-ef/bucketed/elastic":
        "e4b4114039c90e739631743281eeae88290e2289e0984ae0b35cf9c71cfde9b8",
    "topk/no-ef/bucketed/resilient":
        "4cb5eee553a72127285cdf1eeb620cffdd18457be1751144744ca6327fbe6ca2",
    "signsgd/ef/monolithic/static":
        "0804e8de7b3d3c123aa575b103a3666265856b2dd9a8a46ef87f981908f1db1f",
    "signsgd/ef/monolithic/elastic":
        "485a8a538782359b90e0771dce05cb05c40ece76bedfba955f826e60371ab8a0",
    "signsgd/ef/monolithic/resilient":
        "e193c00860612406d2a83c1b831fcf9bf169946335f62598ec599af71386a435",
    "signsgd/ef/bucketed/static":
        "0804e8de7b3d3c123aa575b103a3666265856b2dd9a8a46ef87f981908f1db1f",
    "signsgd/ef/bucketed/elastic":
        "84c12b65c02a80241fe5610d63896137743b5f2f7ec497d7adad843c3db5585b",
    "signsgd/ef/bucketed/resilient":
        "e193c00860612406d2a83c1b831fcf9bf169946335f62598ec599af71386a435",
    "signsgd/no-ef/monolithic/static":
        "45986786861b85473b82d51ab3ce75e2eb9cf0a6f5eadf3880cda8d67ec98972",
    "signsgd/no-ef/monolithic/elastic":
        "268d196ac58d0d109e4542a4fec0450789f552963c3f1fde671aac53f5eb5177",
    "signsgd/no-ef/monolithic/resilient":
        "2d798b040461b7c48879e3b752ed7ee9876f160d05c5a6a9f6ec719c75616a3c",
    "signsgd/no-ef/bucketed/static":
        "45986786861b85473b82d51ab3ce75e2eb9cf0a6f5eadf3880cda8d67ec98972",
    "signsgd/no-ef/bucketed/elastic":
        "8417cd0d36a9522cbc679a1baa898605660bb10320ba79fe8443605e92c9f1a8",
    "signsgd/no-ef/bucketed/resilient":
        "2d798b040461b7c48879e3b752ed7ee9876f160d05c5a6a9f6ec719c75616a3c",
    "acpsgd/ef/monolithic/static":
        "c38d1923f128ded7b9a88f9ba85cbbb61c6d0162494744b280ef46cab6e1f836",
    "acpsgd/ef/monolithic/elastic":
        "27484ea68d58166f9beeb86b22e08c9f124a050014d0318dac86ff8c7526836b",
    "acpsgd/ef/monolithic/resilient":
        "a29c84721357a2e4da4386fe960f2997ef8e155d1bb301d04ba48488a34692c7",
    "acpsgd/ef/bucketed/static":
        "c38d1923f128ded7b9a88f9ba85cbbb61c6d0162494744b280ef46cab6e1f836",
    "acpsgd/ef/bucketed/elastic":
        "94d3dda17fa34dac5974b1b559e932e06ba1cb2076f11b16850ebc6e06317852",
    "acpsgd/ef/bucketed/resilient":
        "a29c84721357a2e4da4386fe960f2997ef8e155d1bb301d04ba48488a34692c7",
    "acpsgd/no-ef/monolithic/static":
        "46eda83e5123ecb0a6a3316bab0c2e8456ad3970a9ab6c614e54ce7c6d596432",
    "acpsgd/no-ef/monolithic/elastic":
        "82adab3f21547a9c024eea0835f89d7f48174f8ad1ababeab4ca340c59501203",
    "acpsgd/no-ef/monolithic/resilient":
        "1f41ed74738ef1f7880292252600cf9d5ee16454c9ce713ba8f0112a0645948a",
    "acpsgd/no-ef/bucketed/static":
        "46eda83e5123ecb0a6a3316bab0c2e8456ad3970a9ab6c614e54ce7c6d596432",
    "acpsgd/no-ef/bucketed/elastic":
        "590b5333e434ab77a638d325cd9d0414d26968a596b6aaf5b8c681262ea02696",
    "acpsgd/no-ef/bucketed/resilient":
        "1f41ed74738ef1f7880292252600cf9d5ee16454c9ce713ba8f0112a0645948a",
    "powersgd/ef/monolithic/static":
        "e89c7a54cba79fddc18f2f540dae9780c0f88962aeebc3923b235f5c53172b84",
    "powersgd/ef/monolithic/elastic":
        "52783c878ae13181e1765911df6a2071fbffed253ffb0060f2837b91fe62b1a0",
    "powersgd/ef/monolithic/resilient":
        "185b121cefbfaa5c07e60570c39955d67678796ac978ab6f8af2b18638035cbd",
    "powersgd/ef/bucketed/static":
        "e89c7a54cba79fddc18f2f540dae9780c0f88962aeebc3923b235f5c53172b84",
    "powersgd/ef/bucketed/elastic":
        "3560fb5994866367f49274a8f009093679354a75204fd7688da1fd44335617bc",
    "powersgd/ef/bucketed/resilient":
        "185b121cefbfaa5c07e60570c39955d67678796ac978ab6f8af2b18638035cbd",
    "powersgd/no-ef/monolithic/static":
        "0d762b4c603b5268a5789ea153ca84fe14c80d78d8160f2784b1a1ca12fa7dd7",
    "powersgd/no-ef/monolithic/elastic":
        "c1145c53a7d4a90f71825cd0cb2514111289c22cec1eee7e656067f33a64537d",
    "powersgd/no-ef/monolithic/resilient":
        "6163a3369150dbfafef33a50ea395d98cd5cd66bab60f2808714d1f4f27c7221",
    "powersgd/no-ef/bucketed/static":
        "0d762b4c603b5268a5789ea153ca84fe14c80d78d8160f2784b1a1ca12fa7dd7",
    "powersgd/no-ef/bucketed/elastic":
        "6184f59e2ad471659982973ed79bceaca3f94bd5548957ba259e7540a6b34986",
    "powersgd/no-ef/bucketed/resilient":
        "6163a3369150dbfafef33a50ea395d98cd5cd66bab60f2808714d1f4f27c7221",
    "randomk/ef/monolithic/static":
        "faa3e9702922ceb887b809e3a726e68ecd9823eefcd6ce538434a0daa0db79e2",
    "randomk/ef/monolithic/elastic":
        "8cd9b6dddc653e7e82c498d76ae3c2c8dd7fa642cd290c39922b01a81915b71f",
    "randomk/ef/monolithic/resilient":
        "a02c56f6a4b6f6628a471fd1bd6f20fa67752113564605a3d0d14a483bd6c20b",
    "randomk/ef/bucketed/static":
        "faa3e9702922ceb887b809e3a726e68ecd9823eefcd6ce538434a0daa0db79e2",
    "randomk/ef/bucketed/elastic":
        "8cd9b6dddc653e7e82c498d76ae3c2c8dd7fa642cd290c39922b01a81915b71f",
    "randomk/ef/bucketed/resilient":
        "a02c56f6a4b6f6628a471fd1bd6f20fa67752113564605a3d0d14a483bd6c20b",
    "randomk/no-ef/monolithic/static":
        "977317b5d9a1d9d906f4ff152ef4fd07bb09b755288f4273cd78e6832bb829ec",
    "randomk/no-ef/monolithic/elastic":
        "8ccd5c08db00f230fee6130d39136822425b6fc2403b265c8021b10046a32d12",
    "randomk/no-ef/monolithic/resilient":
        "38f61137e2a358068d50614a0767498875738e651b6be3e249831e20027b8888",
    "randomk/no-ef/bucketed/static":
        "977317b5d9a1d9d906f4ff152ef4fd07bb09b755288f4273cd78e6832bb829ec",
    "randomk/no-ef/bucketed/elastic":
        "8ccd5c08db00f230fee6130d39136822425b6fc2403b265c8021b10046a32d12",
    "randomk/no-ef/bucketed/resilient":
        "38f61137e2a358068d50614a0767498875738e651b6be3e249831e20027b8888",
    "dgc/ef/monolithic/static":
        "b02006ea038b387d6fc19d88c57cdc293caf80933d9df1e59ac422d799c741dd",
    "dgc/ef/monolithic/elastic":
        "cb762bca203ea6e28f64ee989a9b5ea3ec166b3a0a1a1de368045071cc500985",
    "dgc/ef/monolithic/resilient":
        "5e0183e3fcadd130c925e11ef8aea8d4a58c4537ef53ce525dcc6d51138ac4e4",
    "dgc/ef/bucketed/static":
        "b02006ea038b387d6fc19d88c57cdc293caf80933d9df1e59ac422d799c741dd",
    "dgc/ef/bucketed/elastic":
        "87b12a012e1c3982d1f3d0b7c4b8f3c66955570745c43d884740af0e406c76f9",
    "dgc/ef/bucketed/resilient":
        "5e0183e3fcadd130c925e11ef8aea8d4a58c4537ef53ce525dcc6d51138ac4e4",
    "acpsgd/ef-no-reuse/monolithic/static":
        "97f989abb87e761d573a472989daf0dab6f83372f17bc4c3fbfd0b56b8d52937",
    "acpsgd/ef-no-reuse/monolithic/elastic":
        "80d28e6fab0eb3ae3b806ed89e1481dd7c415609ce8e877ae22bf3b666722cc2",
    "acpsgd/ef-no-reuse/monolithic/resilient":
        "2559da7624d9e2bdc6498f188f03c849c911ab66e10d7bbbe4c5bcd5a7e5607f",
    "acpsgd/ef-no-reuse/bucketed/static":
        "97f989abb87e761d573a472989daf0dab6f83372f17bc4c3fbfd0b56b8d52937",
    "acpsgd/ef-no-reuse/bucketed/elastic":
        "a8776b64773530660fe231a5a1788bb5a9991fc17e134fce424ddba74a11b004",
    "acpsgd/ef-no-reuse/bucketed/resilient":
        "2559da7624d9e2bdc6498f188f03c849c911ab66e10d7bbbe4c5bcd5a7e5607f",
    "powersgd/ef-no-reuse/monolithic/static":
        "de535e484e2c1e76bb1cf077429ceaa3aa41be218dcc23c19de689c276a34cfe",
    "powersgd/ef-no-reuse/monolithic/elastic":
        "ff56e4fdcef371f3150469dc0289afa45b4350dc20d98a8df1eb76a25321d3ac",
    "powersgd/ef-no-reuse/monolithic/resilient":
        "1ed505477b0c45068f32a1c40885fcf0f296ea61fa5603b07e177ae4f0701635",
    "powersgd/ef-no-reuse/bucketed/static":
        "de535e484e2c1e76bb1cf077429ceaa3aa41be218dcc23c19de689c276a34cfe",
    "powersgd/ef-no-reuse/bucketed/elastic":
        "cbb1e29210b066ecad5b58e97293b9e1b586ba824c5605d93044ed01ac1433b3",
    "powersgd/ef-no-reuse/bucketed/resilient":
        "1ed505477b0c45068f32a1c40885fcf0f296ea61fa5603b07e177ae4f0701635",
}


@pytest.mark.parametrize("workers", ["seq", "process"])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("bucketing", list(BUCKETING))
@pytest.mark.parametrize("ef", [True, False], ids=["ef", "no-ef"])
@pytest.mark.parametrize("method", METHODS)
def test_cell_reproduces_its_pinned_digest(method, ef, bucketing, scenario, workers):
    key = cell_key(method, ef, bucketing, scenario)
    assert run_cell(method, ef, bucketing, scenario, workers) == PINNED[key]


@pytest.mark.parametrize("workers", ["seq", "process"])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("bucketing", list(BUCKETING))
@pytest.mark.parametrize("method", NO_REUSE_METHODS)
def test_no_reuse_cell_reproduces_its_pinned_digest(
    method, bucketing, scenario, workers
):
    key = cell_key(method, True, bucketing, scenario, reuse_query=False)
    digest = run_cell(method, True, bucketing, scenario, workers, reuse_query=False)
    assert digest == PINNED[key]


@pytest.mark.parametrize("workers", ["seq", "process"])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("bucketing", list(BUCKETING))
@pytest.mark.parametrize("method", EF_ONLY_METHODS)
def test_ef_only_cell_reproduces_its_pinned_digest(
    method, bucketing, scenario, workers
):
    key = cell_key(method, True, bucketing, scenario)
    assert run_cell(method, True, bucketing, scenario, workers) == PINNED[key]


def test_bucketed_dgc_churn_at_the_monolithic_steps_is_the_monolithic_cell():
    """The two elastic DGC cells differ only in when the roster changes.

    A fault plan counts collective calls. Monolithic DGC issues one
    all-gather a step, bucketed DGC one per bucket (two here), so the same
    call indices commit the eject, rejoin and join at earlier steps of the
    bucketed run. Keyed to the calls that land on the monolithic run's
    steps, the bucketed run reproduces the monolithic digest.
    """
    digest = run_cell("dgc", True, "bucketed", "elastic", elastic_calls=(2, 5, 9))
    assert digest == PINNED[cell_key("dgc", True, "monolithic", "elastic")]


def _cells():
    for method in METHODS:
        for ef in (True, False):
            for bucketing in BUCKETING:
                for scenario in SCENARIOS:
                    yield method, ef, bucketing, scenario, True
    for method in EF_ONLY_METHODS:
        for bucketing in BUCKETING:
            for scenario in SCENARIOS:
                yield method, True, bucketing, scenario, True
    for method in NO_REUSE_METHODS:
        for bucketing in BUCKETING:
            for scenario in SCENARIOS:
                yield method, True, bucketing, scenario, False


if __name__ == "__main__":
    print("PINNED = {")
    for method, ef, bucketing, scenario, reuse_query in _cells():
        key = cell_key(method, ef, bucketing, scenario, reuse_query)
        digest = run_cell(method, ef, bucketing, scenario, "seq", reuse_query)
        assert run_cell(
            method, ef, bucketing, scenario, "process", reuse_query
        ) == digest, key
        print(f'    "{key}":\n        "{digest}",')
    print("}")
