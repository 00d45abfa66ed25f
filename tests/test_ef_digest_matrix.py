"""Pinned bits of the error-feedback methods across the composition matrix.

One SHA-256 per cell over every step's loss and the final weights, for
Top-k, Sign-SGD, ACP-SGD, Power-SGD and Random-k, each with error feedback
on and off, monolithic and in 1 MiB buckets (the model is 1.3 MB: two
buckets), under three scenarios:

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
BUCKETING = {"monolithic": None, "bucketed": 1 << 20}
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
        "879f9f3c556d076e1b29de6db155d16d45cfe7d708b2da98f7b3c76df0a1521d",
    "topk/ef/monolithic/elastic":
        "f3d0c5d98468b396f1a860feafea070a0e13da8defb024235a33f550bba638c6",
    "topk/ef/monolithic/resilient":
        "afae1b44ee3ebb0b30e0513575a7f4e26072e79ae59dedbd397a3f144f0aba8e",
    "topk/ef/bucketed/static":
        "879f9f3c556d076e1b29de6db155d16d45cfe7d708b2da98f7b3c76df0a1521d",
    "topk/ef/bucketed/elastic":
        "752666bdedeacaf10712d27d99c14b54f100746f5fa5bf37e2c5101579b00ed3",
    "topk/ef/bucketed/resilient":
        "afae1b44ee3ebb0b30e0513575a7f4e26072e79ae59dedbd397a3f144f0aba8e",
    "topk/no-ef/monolithic/static":
        "a209862dba215694ffc2e0214f1df348b0770bf4ae3945ba992c6bed5bc3322f",
    "topk/no-ef/monolithic/elastic":
        "deeb844befcae52d944ff19c0d1c83a25208a95a1dd3f7d91fe525590d0e096a",
    "topk/no-ef/monolithic/resilient":
        "ee7ec693e59168239c73255d665f536baffa11be43ddca6054dd2a6f674f4ea7",
    "topk/no-ef/bucketed/static":
        "a209862dba215694ffc2e0214f1df348b0770bf4ae3945ba992c6bed5bc3322f",
    "topk/no-ef/bucketed/elastic":
        "a7f542694009b2b3548142ba412096880ce74227e29bb469622a46eb38e9e64e",
    "topk/no-ef/bucketed/resilient":
        "ee7ec693e59168239c73255d665f536baffa11be43ddca6054dd2a6f674f4ea7",
    "signsgd/ef/monolithic/static":
        "1572d600abb4c0630e8e67d7f98c3532982b2001ac0a865cf82c6b0da4669ffb",
    "signsgd/ef/monolithic/elastic":
        "97c266d5f9023ffa2409702427f67f1213566075d5a7b7e36f1a17914680c4f3",
    "signsgd/ef/monolithic/resilient":
        "e8de56a3ef79c23a33a7f55102f7bf8704f3473b74f5e21edcd0912b3b549cf2",
    "signsgd/ef/bucketed/static":
        "1572d600abb4c0630e8e67d7f98c3532982b2001ac0a865cf82c6b0da4669ffb",
    "signsgd/ef/bucketed/elastic":
        "cba2195fe364fda0a8a09cda2f1198b41225bea96ba48c1e45e966f6b22cf2b2",
    "signsgd/ef/bucketed/resilient":
        "e8de56a3ef79c23a33a7f55102f7bf8704f3473b74f5e21edcd0912b3b549cf2",
    "signsgd/no-ef/monolithic/static":
        "ce8be8359fee6e98695fcdff7530c79e5ef3e30cce8b7b9d833e760ce534914b",
    "signsgd/no-ef/monolithic/elastic":
        "ac47597ac98e8452dd3e3a684be0213c5c133b7e075a5e5364b6d142d21db8f7",
    "signsgd/no-ef/monolithic/resilient":
        "bc6a08052e2576981763883c94097afebcc89c9a81f42e5f24fc5023796c34d7",
    "signsgd/no-ef/bucketed/static":
        "ce8be8359fee6e98695fcdff7530c79e5ef3e30cce8b7b9d833e760ce534914b",
    "signsgd/no-ef/bucketed/elastic":
        "c0cdea4784c63f168a9b42ec51e5be6afa5cf578bbc4a29170b46a2164497406",
    "signsgd/no-ef/bucketed/resilient":
        "bc6a08052e2576981763883c94097afebcc89c9a81f42e5f24fc5023796c34d7",
    "acpsgd/ef/monolithic/static":
        "49e406b16a2ecc645a3bc656c3f8cec7fd435abb5f86682233739ff843c298d4",
    "acpsgd/ef/monolithic/elastic":
        "f1b5c315bfce83c011e57d2e6568f7ff7d074b242600ef6f6974529fc9bcc44d",
    "acpsgd/ef/monolithic/resilient":
        "444b9f65be023d7980f9e168a112ece195542a52d7b8244ab2ebc83a4d753042",
    "acpsgd/ef/bucketed/static":
        "49e406b16a2ecc645a3bc656c3f8cec7fd435abb5f86682233739ff843c298d4",
    "acpsgd/ef/bucketed/elastic":
        "ce389eb1e61c3b42427f38a32cff12c6231d44ab423c3b04045cd06bc6d26c2a",
    "acpsgd/ef/bucketed/resilient":
        "444b9f65be023d7980f9e168a112ece195542a52d7b8244ab2ebc83a4d753042",
    "acpsgd/no-ef/monolithic/static":
        "ba7e8200475aa804bb425e99e8084afb4c4e1be147a0f0effa014fdfe0723e16",
    "acpsgd/no-ef/monolithic/elastic":
        "fa2418eb936a1bd182c16a5e6b041646fcab164e0359eb93287a45bd194a1cbd",
    "acpsgd/no-ef/monolithic/resilient":
        "e4659b380badab693b361b233d1f64c5c28b52c602c67ed7e7a6720fc741e861",
    "acpsgd/no-ef/bucketed/static":
        "ba7e8200475aa804bb425e99e8084afb4c4e1be147a0f0effa014fdfe0723e16",
    "acpsgd/no-ef/bucketed/elastic":
        "b4828da4549d17f4581b765f08fb08fdcae8f1d1f056672ee0ffc25c3b8dc5df",
    "acpsgd/no-ef/bucketed/resilient":
        "e4659b380badab693b361b233d1f64c5c28b52c602c67ed7e7a6720fc741e861",
    "powersgd/ef/monolithic/static":
        "a1451ac8df634734b1030e671ef06cb3039de01be2fd32fa43b8cabafdf18fbb",
    "powersgd/ef/monolithic/elastic":
        "0518e4c82555b2f830d1ec9736d72558bc6b60ef4af4748886f93de4f45fbc2f",
    "powersgd/ef/monolithic/resilient":
        "7c20c08d2788533f18a50dbfe5d6c08b7de61b6fed06fb5429f3bb3711f94167",
    "powersgd/ef/bucketed/static":
        "a1451ac8df634734b1030e671ef06cb3039de01be2fd32fa43b8cabafdf18fbb",
    "powersgd/ef/bucketed/elastic":
        "bf5c31efeaf14ee65f77b4979e40df4a25942be00db904eaf0ed2e70b4ca6283",
    "powersgd/ef/bucketed/resilient":
        "7c20c08d2788533f18a50dbfe5d6c08b7de61b6fed06fb5429f3bb3711f94167",
    "powersgd/no-ef/monolithic/static":
        "a862f6d2e6c3fed70358cf88dc1c6d852835a4c3ab90adf0795e125b4346d559",
    "powersgd/no-ef/monolithic/elastic":
        "2a29e2b72cf3e4180b18fda4abcdbe5144115b1f1053271fada5e6618b16cc2d",
    "powersgd/no-ef/monolithic/resilient":
        "654abf0369f7bde65e1affafc0c9bda44a64d35715692bd24c79d2acd5dfa668",
    "powersgd/no-ef/bucketed/static":
        "a862f6d2e6c3fed70358cf88dc1c6d852835a4c3ab90adf0795e125b4346d559",
    "powersgd/no-ef/bucketed/elastic":
        "67c8a6637f2592a82439b51d4e394f74b5f700b8c88d864151583c0f23ab2fdf",
    "powersgd/no-ef/bucketed/resilient":
        "654abf0369f7bde65e1affafc0c9bda44a64d35715692bd24c79d2acd5dfa668",
    "randomk/ef/monolithic/static":
        "d8f952c552ee0af718d711eb26df072f0975f87dbf6034d9bd213a0ecf41c754",
    "randomk/ef/monolithic/elastic":
        "be0ed90047a3b8d3fae023c3811d6d42db703de275c189f1e0e411a92e432d14",
    "randomk/ef/monolithic/resilient":
        "1d1ad04b8ce21852caa012bae331ad58df0eec533b700a8b1ec3108fc9684246",
    "randomk/ef/bucketed/static":
        "d8f952c552ee0af718d711eb26df072f0975f87dbf6034d9bd213a0ecf41c754",
    "randomk/ef/bucketed/elastic":
        "be0ed90047a3b8d3fae023c3811d6d42db703de275c189f1e0e411a92e432d14",
    "randomk/ef/bucketed/resilient":
        "1d1ad04b8ce21852caa012bae331ad58df0eec533b700a8b1ec3108fc9684246",
    "randomk/no-ef/monolithic/static":
        "328ae3129a9dec22859621541981c960a819c77d047af5d2946781052e63af21",
    "randomk/no-ef/monolithic/elastic":
        "8cb06cebd8f2aab6754290ed17ec6d18dcb92a9fe882098d39b489ba515e34a0",
    "randomk/no-ef/monolithic/resilient":
        "3d1f61a4b2738f5f9006f2abfad49f5c0c7ccade019b3d4adab5db5fb0334ae1",
    "randomk/no-ef/bucketed/static":
        "328ae3129a9dec22859621541981c960a819c77d047af5d2946781052e63af21",
    "randomk/no-ef/bucketed/elastic":
        "8cb06cebd8f2aab6754290ed17ec6d18dcb92a9fe882098d39b489ba515e34a0",
    "randomk/no-ef/bucketed/resilient":
        "3d1f61a4b2738f5f9006f2abfad49f5c0c7ccade019b3d4adab5db5fb0334ae1",
    "dgc/ef/monolithic/static":
        "17224e97b34c33b218a42f5df8604600fc02399660575591c1eb063bb032c9cc",
    "dgc/ef/monolithic/elastic":
        "6b86ad9924a9621277d1a60e8e1b0349d48e31d17c1f6a33e99c7bdd376df51d",
    "dgc/ef/monolithic/resilient":
        "e98349cd36b353ea9a79694ca97139e4b29b3a9fca59f3ac8e2898aa989e3546",
    "dgc/ef/bucketed/static":
        "17224e97b34c33b218a42f5df8604600fc02399660575591c1eb063bb032c9cc",
    "dgc/ef/bucketed/elastic":
        "cc8e8dd1f8d21095f0bc0a9e684a491eb3017cc94df25c0680697ba30e8bb0cd",
    "dgc/ef/bucketed/resilient":
        "e98349cd36b353ea9a79694ca97139e4b29b3a9fca59f3ac8e2898aa989e3546",
    "acpsgd/ef-no-reuse/monolithic/static":
        "8a2c13dbf2b6618843e271da70ba01079b1045340248c09cadd804150c0a8802",
    "acpsgd/ef-no-reuse/monolithic/elastic":
        "508b6a87adc98e0d50c5b36aa773363e42884020271e4011a3170bf87b04ab00",
    "acpsgd/ef-no-reuse/monolithic/resilient":
        "b01f112d648be3db5f1fc8ec95f19c7844655ec3ebf6cd3c42da0ca0b49b130b",
    "acpsgd/ef-no-reuse/bucketed/static":
        "8a2c13dbf2b6618843e271da70ba01079b1045340248c09cadd804150c0a8802",
    "acpsgd/ef-no-reuse/bucketed/elastic":
        "6e648880d864255b99ec84876519059a5f0d2edda02b5433c773f88128960c1b",
    "acpsgd/ef-no-reuse/bucketed/resilient":
        "b01f112d648be3db5f1fc8ec95f19c7844655ec3ebf6cd3c42da0ca0b49b130b",
    "powersgd/ef-no-reuse/monolithic/static":
        "280df8be4584d47d1a41b7eda5a89aa5d298a448bab267498bdc12395103c660",
    "powersgd/ef-no-reuse/monolithic/elastic":
        "8b938c3421a232272a96a553755b1306505941475d78d6fa67efad9dd54a0092",
    "powersgd/ef-no-reuse/monolithic/resilient":
        "e3a979016e554d00e3de7444e32c8ad324ea79b9bf0f211e3f54c231d2f9419e",
    "powersgd/ef-no-reuse/bucketed/static":
        "280df8be4584d47d1a41b7eda5a89aa5d298a448bab267498bdc12395103c660",
    "powersgd/ef-no-reuse/bucketed/elastic":
        "381e24a22402661728b373e92215c5861a9224ff967dc9c5f24159ca32b22ff6",
    "powersgd/ef-no-reuse/bucketed/resilient":
        "e3a979016e554d00e3de7444e32c8ad324ea79b9bf0f211e3f54c231d2f9419e",
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
