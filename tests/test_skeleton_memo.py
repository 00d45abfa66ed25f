"""The shared iteration skeleton behind ``BuildContext.graph`` is invisible.

``repro.sim.strategies`` builds the priced, buffer- and link-independent
part of a scenario (FF + BP chain, inline-hook timelines, wire sizes) once
per (model, batch size, ``SimConfig``) and shares it between graphs, and
keeps what ``simulate_iteration`` priced on it for the current calibration
generation. These tests pin what that sharing must never change: a graph
built from a warm memo — whatever was built before it, on whichever thread
— is ``Task`` by ``Task`` the graph built from an empty one, a memoized
breakdown is bit for bit the one an empty memo prices, and nothing priced
crosses a ``CALIBRATION_GENERATION`` bump.
"""

import random
import sys
from dataclasses import fields, replace

import pytest

import repro.planner
from repro.models import get_model_spec
from repro.serve import PlannerService, PlanQuery
from repro.serve.service import compute_plan_payload
from repro.sim import strategies
from repro.sim.calibration import (
    CALIBRATION_GENERATION,
    SIM_LINKS,
    SimConfig,
    fit_link_from_bucket_timings,
)
from repro.sim.engine import Engine
from repro.sim.results import IterationBreakdown
from repro.sim.strategies import (
    ALL_METHODS,
    BuildContext,
    ClusterSpec,
    SystemConfig,
    simulate_iteration,
)

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


def bounded():
    """Eight skeletons at most, across models, none held twice."""
    keys = [(id(entry.model), entry.batch_size, entry.sim)
            for entry in strategies._SKELETONS]
    return len(keys) <= 8 and all(keys.count(key) == 1 for key in keys)


def hexed(breakdown):
    return tuple(getattr(breakdown, f.name).hex() for f in fields(breakdown))


@pytest.fixture
def runs(monkeypatch):
    """``Engine.run`` calls so far (a one-element list)."""
    count = [0]
    run = Engine.run

    def counted(self, graph):
        count[0] += 1
        return run(self, graph)

    monkeypatch.setattr(Engine, "run", counted)
    return count


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
        assert bounded()


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
    intruder = ("intruder", "nic", 1.0, True)
    for method in ALL_METHODS:
        ctx = BuildContext.resolve(method, models[1])
        expected = build(ctx, cold=True)
        schedule, plan = strategies._planned(ctx, True)
        chains = list(schedule.chains(plan))
        for stages, _ in chains:
            stages.append(intruder)
        chains.append(([intruder], "ff0"))
        del chains[:5]
        graph = ctx.graph()
        graph.with_deps({"ff1": ()})
        graph.map_tasks(lambda task: replace(task, work=task.work * 2.0))
        assert build(ctx) == expected, method


def test_parts_of_one_skeleton_stay_bounded(models):
    for rank in range(1, 40):
        BuildContext.resolve("acpsgd", models[0], rank=rank).graph()
    (skeleton,) = [s for s in strategies._SKELETONS if s.model is models[0]]
    assert len(skeleton._parts) <= 16
    zero = IterationBreakdown(0.0, 0.0, 0.0, 0.0)
    for key in range(1100):
        skeleton.priced(("bound", key), lambda: zero)
    assert len(skeleton._priced[1]) <= 1024
    assert bounded()


def test_skeletons_of_several_models_stay_held(models):
    strategies._SKELETONS.clear()
    for model in models * 2:
        BuildContext.resolve("ssgd", model).graph()
    assert [s.model for s in strategies._SKELETONS] == models
    for batch in range(1, 12):
        BuildContext.resolve("ssgd", models[0], batch_size=batch).graph()
    assert bounded() and len(strategies._SKELETONS) == 8


def test_warm_breakdowns_equal_cold_ones_in_any_order(models, runs):
    scenarios = [
        dict(method=method, model=model, system=system, rank=8,
             cluster=ClusterSpec(world, SIM_LINKS[link]))
        for method in ALL_METHODS
        for system in SYSTEMS
        for link in ("10GbE", "1GbE")
        for world in (4, 16)
        for model in models  # interleaved
    ]
    cold = []
    for scenario in scenarios:
        strategies._SKELETONS.clear()
        cold.append(hexed(simulate_iteration(**scenario)))
    strategies._SKELETONS.clear()
    for seed in (3, 4):  # the first pass prices, the second is served
        order = list(range(len(scenarios)))
        random.Random(seed).shuffle(order)
        before = runs[0]
        for index in order:
            assert hexed(simulate_iteration(**scenarios[index])) == cold[index], (
                scenarios[index])
        assert bounded()
    assert runs[0] == before


def test_untuned_twin_runs_nothing_until_the_link_is_refitted(runs):
    def planned(tune):
        before = runs[0]
        result = repro.planner.plan("ResNet-18", gpus=8, tune_buffer=tune)
        return result.assessments, runs[0] - before

    strategies._SKELETONS.clear()
    cold, cold_runs = planned(False)
    strategies._SKELETONS.clear()
    planned(True)
    assert planned(False) == (cold, 0)
    fit_link_from_bucket_timings([(1e5, 1e-3), (1e6, 4e-3)], world_size=4)
    assert planned(False) == (cold, cold_runs)
    assert cold_runs == 7  # five single-graph methods + ACP-SGD's two parities


def test_a_result_priced_across_a_generation_bump_is_not_served(models, runs):
    run = Engine.run
    scenario = dict(method="ssgd", model=models[0], cluster=ClusterSpec(4))
    strategies._SKELETONS.clear()
    expected = hexed(simulate_iteration(**scenario))

    def bumping(self, graph):
        CALIBRATION_GENERATION.bump()
        return run(self, graph)

    strategies._SKELETONS.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "run", bumping)
        assert hexed(simulate_iteration(**scenario)) == expected
    (skeleton,) = strategies._SKELETONS
    assert skeleton._priced[1] == {}  # not kept, not even under the old stamp
    before = runs[0]
    assert hexed(simulate_iteration(**scenario)) == expected
    assert runs[0] == before + 1  # priced again: the bumped result was dropped
    assert hexed(simulate_iteration(**scenario)) == expected
    assert runs[0] == before + 1  # ... and this one kept
    CALIBRATION_GENERATION.bump()
    assert hexed(simulate_iteration(**scenario)) == expected
    assert runs[0] == before + 2  # a bump empties what was kept


@pytest.mark.serve
def test_concurrent_planning_of_different_models_matches_sequential():
    queries = [
        PlanQuery(model=model, gpus=gpus, link=SIM_LINKS["10GbE"], tune_buffer=tune)
        for model in ("ResNet-18", "VGG-16", "ResNet-50", "BERT-Base")
        for gpus, tune in ((8, False), (16, True))
    ]
    sequential = [compute_plan_payload(query) for query in queries]
    strategies._SKELETONS.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with PlannerService(max_workers=4) as service:
            results = service.submit_batch(queries)
    finally:
        sys.setswitchinterval(interval)
    assert [result.payload for result in results] == sequential
    assert all(result.source == "computed" for result in results)
    assert bounded()
