"""Shared query grid for the golden plan-payload byte-identity check.

perfbench compares ``plan_mixed`` payloads only against a fresh service of
the *same* commit; this grid pins a plan's bytes *across* commits. Each row
is one :class:`~repro.serve.query.PlanQuery` answered by
:func:`repro.serve.service.compute_plan_payload` — perfbench's four models
x two world sizes x the three ``SIM_LINKS`` presets x ``tune_buffer``
off / on, plus a two-level topology, a ``methods=`` subset and a Top-k
query at a non-default ``topk_ratio`` — once at the starting calibration
generation (``gen0/...``) and again after one ``PlannerService.recalibrate``
with fixed samples (``gen1/...``, which also prices the freshly fitted
``calibrated`` link). ``scripts/golden_trace.py plans capture`` stores one
SHA-256 per row in ``tests/data/golden_plans.json``;
``tests/test_golden_plans.py`` recomputes every row and requires the same
bytes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, Tuple

from repro.comm.cost_model import LinkSpec
from repro.comm.topology import ClusterTopology
from repro.serve.query import PlanQuery
from repro.serve.service import PlannerService, compute_plan_payload
from repro.sim.calibration import SIM_LINKS

MODELS = ("ResNet-18", "ResNet-50", "BERT-Base", "VGG-16")
GPUS = (8, 64)
#: Alpha-beta exact bucket timings at world size 8 (alpha 20 us, 1.2 GB/s).
CALIBRATION_SAMPLES = tuple(
    (nbytes, 2 * 7 * 2e-5 + 2 * nbytes * 7 / (8 * 1.2e9))
    for nbytes in (1e5, 1e6, 4e6, 1.6e7)
)


def iter_queries(links: Iterable[LinkSpec]) -> Iterator[Tuple[str, PlanQuery]]:
    """Yield ``(name, query)`` for the grid over ``links`` plus the corners."""
    for link in links:
        for model in MODELS:
            for gpus in GPUS:
                for tune in (False, True):
                    name = f"{model}/{gpus}/{link.name}/{'tuned' if tune else 'untuned'}"
                    yield name, PlanQuery(
                        model=model, gpus=gpus, link=link, tune_buffer=tune
                    )
    ten_gbe = SIM_LINKS["10GbE"]
    yield "corner/topology-2x4", PlanQuery(
        model="ResNet-50", gpus=8, link=ten_gbe,
        topology=ClusterTopology(num_nodes=2, gpus_per_node=4),
    )
    yield "corner/methods-subset", PlanQuery(
        model="BERT-Base", gpus=32, link=ten_gbe,
        methods=("powersgd", "acpsgd"),
    )
    # The autotune probes must price Top-k at the query's ratio, not 0.001.
    for tune in (False, True):
        yield f"corner/topk-ratio-0.05/{'tuned' if tune else 'untuned'}", PlanQuery(
            model="ResNet-50", gpus=32, link=ten_gbe, methods=("topk",),
            topk_ratio=0.05, tune_buffer=tune,
        )


def answers() -> Dict[str, Tuple[PlanQuery, str]]:
    """Every row's query and canonical payload, keyed ``gen0/<name>`` /
    ``gen1/<name>``."""
    presets = tuple(SIM_LINKS.values())
    out = {
        f"gen0/{name}": (query, compute_plan_payload(query))
        for name, query in iter_queries(presets)
    }
    with PlannerService() as service:
        calibrated = service.recalibrate(CALIBRATION_SAMPLES, world_size=8)
    for name, query in iter_queries(presets + (calibrated,)):
        out[f"gen1/{name}"] = (query, compute_plan_payload(query))
    return out


def payloads() -> Dict[str, str]:
    """Every row's canonical payload, keyed ``gen0/<name>`` / ``gen1/<name>``."""
    return {name: payload for name, (_, payload) in answers().items()}


def digest(payload: str) -> str:
    """SHA-256 of one canonical payload string."""
    return hashlib.sha256(payload.encode("ascii")).hexdigest()
