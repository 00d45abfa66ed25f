"""The shared iteration skeleton behind ``BuildContext.graph`` is invisible.

``repro.sim.strategies`` builds the priced, buffer- and link-independent
part of a scenario (FF + BP chain, inline-hook timelines, wire sizes) once
per (model, batch size, ``SimConfig``) and shares it between graphs. These
tests pin what that sharing must never change: a graph built from a warm
memo — whatever was built before it, on whichever thread — is ``Task`` by
``Task`` the graph built from an empty one.
"""

import random
import sys
from dataclasses import fields, replace

import pytest

from repro.models import get_model_spec
from repro.sched import Task
from repro.serve import PlannerService, PlanQuery
from repro.serve.service import compute_plan_payload
from repro.sim import strategies
from repro.sim.calibration import SIM_LINKS, SimConfig
from repro.sim.strategies import ALL_METHODS, BuildContext, ClusterSpec, SystemConfig

MB = 1024.0 * 1024.0
SYSTEMS = [
    SystemConfig(wfbp=wfbp, tensor_fusion=fusion, scale_compressed_buffer=scale)
    for wfbp in (True, False) for fusion in (True, False) for scale in (True, False)
] + [SystemConfig(buffer_bytes=0.5 * MB), SystemConfig(buffer_bytes=256 * MB)]


def canonical(tasks):
    """Every field of every task, ``work`` as IEEE-754 hex."""
    return [
        (t.task_id, t.stream, float(t.work).hex(), t.deps, t.tag, t.contends,
         t.priority, t.start_after)
        for t in tasks
    ]


def build(ctx, parity_p=True, *, cold=False):
    if cold:
        strategies._SKELETONS.clear()
    return canonical(ctx.graph(parity_p))


def one_model_at_most():
    held = strategies._SKELETONS
    return len(held) <= 4 and len({id(entry.model) for entry in held}) <= 1


@pytest.fixture(scope="module")
def models():
    return [get_model_spec("ResNet-18"), get_model_spec("VGG-16")]


def test_warm_graphs_equal_cold_graphs_in_any_order(models):
    scenarios = [
        (BuildContext.resolve(method, model, ClusterSpec(8, link), system,
                              batch_size=batch, rank=rank), parity_p)
        for method in ALL_METHODS
        for model in models
        for system in SYSTEMS
        for rank, link, batch in ((4, SIM_LINKS["10GbE"], None),
                                  (32, SIM_LINKS["1GbE"], 7))
        for parity_p in ((True, False) if method == "acpsgd" else (True,))
    ]
    cold = [build(ctx, parity_p, cold=True) for ctx, parity_p in scenarios]
    order = list(range(len(scenarios)))
    random.Random(19).shuffle(order)
    strategies._SKELETONS.clear()
    for index in order:
        ctx, parity_p = scenarios[index]
        assert build(ctx, parity_p) == cold[index], (ctx.method, ctx.system, parity_p)
        assert one_model_at_most()


def sim_variants():
    """``SimConfig()`` with each field — and each ``GPUSpec`` field, one
    ``efficiency`` entry included — replaced in turn."""
    base = SimConfig()
    for field in fields(SimConfig):
        value = getattr(base, field.name)
        if field.name == "gpu":
            for gpu_field in fields(type(value)):
                inner = getattr(value, gpu_field.name)
                if gpu_field.name == "efficiency":
                    changed = dict(inner, gemm_small=inner["gemm_small"] * 1.5)
                elif isinstance(inner, str):
                    changed = inner + "-b"
                else:
                    changed = inner * 1.5
                yield (f"gpu.{gpu_field.name}",
                       replace(base, gpu=replace(value, **{gpu_field.name: changed})))
        elif isinstance(value, bool):
            yield field.name, replace(base, **{field.name: not value})
        else:
            yield field.name, replace(base, **{field.name: value * 1.5})


def test_every_sim_field_is_part_of_the_key(models):
    model = models[0]
    methods = ("ssgd", "signsgd", "topk", "powersgd_star", "acpsgd", "randomk")

    def graphs(sim, cold):
        return [
            build(BuildContext.resolve(method, model, sim=sim), cold=cold)
            for method in methods
        ]

    base = graphs(SimConfig(), cold=True)
    moved = set()
    for name, sim in sim_variants():
        expected = graphs(sim, cold=True)
        graphs(SimConfig(), cold=False)  # the memo now holds the base config
        assert graphs(sim, cold=False) == expected, name
        assert graphs(SimConfig(), cold=False) == base, name
        if expected != base:
            moved.add(name)
    # Only the GPU's name and the run-time contention rate price no task.
    everything = {name for name, _ in sim_variants()}
    assert everything - moved == {"gpu.name", "contention_rate"}


def test_mutating_a_result_leaves_the_next_build_untouched(models):
    for method in ALL_METHODS:
        ctx = BuildContext.resolve(method, models[1])
        expected = build(ctx, cold=True)
        tasks = strategies._BUILDERS[method](
            ctx, True, *strategies.fusion_plan(ctx, True))
        tasks.append(Task("intruder", "nic", 1.0))
        del tasks[:5]
        graph = ctx.graph()
        graph.add(Task("intruder", "nic", 1.0))
        graph.with_deps({"ff1": ()})
        graph.map_tasks(lambda task: replace(task, work=task.work * 2.0))
        assert build(ctx) == expected, method


def test_parts_of_one_skeleton_stay_bounded(models):
    for rank in range(1, 40):
        BuildContext.resolve("acpsgd", models[0], rank=rank).graph()
    (skeleton,) = strategies._SKELETONS
    assert len(skeleton._parts) <= 16


@pytest.mark.serve
def test_concurrent_planning_of_different_models_matches_sequential():
    queries = [
        PlanQuery(model=model, gpus=gpus, link=SIM_LINKS["10GbE"], tune_buffer=tune)
        for model in ("ResNet-18", "VGG-16", "ResNet-50", "BERT-Base")
        for gpus, tune in ((8, False), (16, True))
    ]
    sequential = [compute_plan_payload(query) for query in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with PlannerService(max_workers=4) as service:
            results = service.submit_batch(queries)
    finally:
        sys.setswitchinterval(interval)
    assert [result.payload for result in results] == sequential
    assert all(result.source == "computed" for result in results)
    assert one_model_at_most()
