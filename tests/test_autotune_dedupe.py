"""The autotuner prices fusion plans, not buffer sizes.

``repro.sim.strategies.fusion_plan`` is the only reader of the buffer size,
so (a) two scenarios that differ in ``buffer_bytes`` alone and have equal
plans build equal task lists; ``autotune_buffer_size`` relies on that to call
``simulate_iteration`` once per distinct plan, which must be (b) invisible in
``TuneResult.evaluated`` and (c) visible in the call counts — with a memo
that lives for one call only. A second call simulates the same plans again,
and ``simulate_iteration`` serves them from the skeleton memo without
running a graph.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.autotune
from repro.models import get_model_spec
from repro.sched import Task
from repro.sim import strategies
from repro.sim.autotune import autotune_buffer_size
from repro.sim.calibration import SIM_LINKS
from repro.sim.engine import Engine
from repro.sim.strategies import (
    ALL_METHODS,
    BuildContext,
    ClusterSpec,
    SystemConfig,
    fusion_plan,
    simulate_iteration,
)

MB = 1024.0 * 1024.0
MODELS = ("ResNet-18", "VGG-16", "ResNet-50", "BERT-Base")
LOW_RANK = ("powersgd", "powersgd_star", "acpsgd")
RATIO_METHODS = ("topk", "dgc", "randomk")


def field_by_field(tasks):
    """Every field of every task, floats as IEEE-754 hex."""
    return [
        tuple(v.hex() if isinstance(v, float) else v
              for v in (getattr(task, f.name) for f in fields(Task)))
        for task in tasks
    ]


def scenario(method, model, buffer_bytes, **switches):
    system = SystemConfig(buffer_bytes=buffer_bytes, **switches)
    return BuildContext.resolve(method, model, ClusterSpec(8), system)


class TestEqualPlansGiveEqualTaskLists:
    """(a) The lemma the dedupe rests on (the converse is not required)."""

    @pytest.mark.parametrize("model_name", MODELS)
    @settings(max_examples=60, deadline=None)
    @given(
        method=st.sampled_from(ALL_METHODS),
        parity_p=st.booleans(),
        wfbp=st.booleans(),
        tensor_fusion=st.booleans(),
        scale_compressed_buffer=st.booleans(),
        log2_buffer=st.floats(min_value=0.0, max_value=31.0),
        stretch=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_lemma(self, model_name, method, parity_p, log2_buffer, stretch,
                   **switches):
        model = get_model_spec(model_name)
        first = scenario(method, model, 2.0 ** log2_buffer, **switches)
        second = scenario(method, model, 2.0 ** log2_buffer * stretch, **switches)
        if fusion_plan(first, parity_p) == fusion_plan(second, parity_p):
            assert (field_by_field(first.graph(parity_p))
                    == field_by_field(second.graph(parity_p)))

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_lemma_is_not_vacuous(self, method):
        model = get_model_spec("ResNet-18")
        whole, also_whole, fine = (
            scenario(method, model, size * MB) for size in (512.0, 1024.0, 0.25)
        )
        for parity_p in whole.parities:
            plan = fusion_plan(whole, parity_p)
            assert plan == fusion_plan(also_whole, parity_p)
            assert (field_by_field(whole.graph(parity_p))
                    == field_by_field(also_whole.graph(parity_p)))
            # The all-gather methods and packed Power-SGD never read the
            # buffer; every other method's plan moves with it.
            reads_buffer = method in ("ssgd", "powersgd_star", "acpsgd", "randomk")
            assert (plan != ()) == reads_buffer
            assert (fusion_plan(fine, parity_p) != plan) == reads_buffer


def variants():
    """method × the parameter that changes its graph (rank / keep fraction)."""
    for method in ALL_METHODS:
        if method in LOW_RANK:
            yield from ((method, rank, 0.001) for rank in (1, 4, 32))
        elif method in RATIO_METHODS:
            yield from ((method, 4, ratio) for ratio in (0.001, 0.05))
        else:
            yield method, 4, 0.001


class TestDedupeIsTransparent:
    """(b) Every probed size reads what its own simulation would read.

    A Latin square over (method variant, model, link): every variant meets
    every model and every link, every model every link — a third of the
    full product's simulations.
    """

    @pytest.mark.parametrize("link_idx", range(3))
    @pytest.mark.parametrize("model_idx", range(len(MODELS)))
    def test_evaluated_table_is_bitwise_the_undeduped_one(
        self, model_idx, link_idx
    ):
        model = get_model_spec(MODELS[model_idx])
        cluster = ClusterSpec(8, SIM_LINKS[sorted(SIM_LINKS)[link_idx]])
        for idx, (method, rank, topk_ratio) in enumerate(variants()):
            if (idx + model_idx) % 3 != link_idx:
                continue
            tuned = autotune_buffer_size(
                method, model, cluster=cluster, rank=rank, refine_rounds=2,
                topk_ratio=topk_ratio,
            )
            assert len(tuned.evaluated) >= 7
            for buffer_bytes, seconds in tuned.evaluated.items():
                alone = simulate_iteration(
                    method, model, cluster=cluster, rank=rank,
                    system=SystemConfig(buffer_bytes=buffer_bytes),
                    topk_ratio=topk_ratio,
                ).total
                assert seconds.hex() == alone.hex(), (method, rank, buffer_bytes)
            assert tuned.best_time == min(tuned.evaluated.values())


class TestOneSimulationPerDistinctPlan:
    """(c) What the dedupe saves, as exact call counts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counted(*args, **kwargs):
            seen.append(kwargs["system"].buffer_bytes)
            return simulate_iteration(*args, **kwargs)

        monkeypatch.setattr(repro.sim.autotune, "simulate_iteration", counted)
        return seen

    @pytest.mark.parametrize("method", ["powersgd", "topk"])
    def test_buffer_blind_methods_simulate_once(self, calls, method):
        tuned = autotune_buffer_size(method, get_model_spec("ResNet-50"))
        assert len(calls) == 1
        assert len(tuned.evaluated) == 13
        assert len(set(tuned.evaluated.values())) == 1

    def test_acpsgd_simulates_each_distinct_plan_once(self, calls):
        model, cluster = get_model_spec("ResNet-18"), ClusterSpec(32, SIM_LINKS["10GbE"])
        tuned = autotune_buffer_size(
            "acpsgd", model, cluster=cluster, refine_rounds=2
        )
        plans = set()
        for buffer_bytes in tuned.evaluated:
            ctx = BuildContext.resolve(
                "acpsgd", model, cluster, SystemConfig(buffer_bytes=buffer_bytes)
            )
            plans.add(tuple(fusion_plan(ctx, parity_p) for parity_p in ctx.parities))
        assert len(calls) == len(set(calls)) == len(plans)
        assert len(plans) < len(tuned.evaluated) == 11

    def test_second_call_runs_no_graph(self, calls, monkeypatch):
        runs = []
        run = Engine.run
        monkeypatch.setattr(
            Engine, "run", lambda self, graph: runs.append(1) or run(self, graph))
        strategies._SKELETONS.clear()
        model = get_model_spec("ResNet-18")
        first = autotune_buffer_size("ssgd", model, refine_rounds=1)
        priced_by_first, runs_of_first = list(calls), len(runs)
        second = autotune_buffer_size("ssgd", model, refine_rounds=1)
        assert calls == priced_by_first * 2  # the plan dedupe died with the call
        assert len(runs) == runs_of_first == len(priced_by_first)  # ssgd: one graph
        assert second.evaluated == first.evaluated
