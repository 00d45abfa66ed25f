"""The capacity-planning service: keys, cache, single-flight, invalidation."""

import json
import threading

import pytest

from repro.comm.cost_model import LinkSpec
from repro.serve import (
    PlanQuery,
    PlannerService,
    ResultCache,
    canonical_float,
    dumps_canonical,
    plan_from_dict,
    plan_payload,
    plan_to_dict,
    serve_jsonl,
)
from repro.serve.service import (
    SOURCE_CACHE,
    SOURCE_COALESCED,
    SOURCE_COMPUTED,
    compute_plan_payload,
)
from repro.sim.calibration import CALIBRATION_GENERATION, SIM_LINKS

pytestmark = pytest.mark.serve

TEN_GBE = SIM_LINKS["10GbE"]


def small_query(**overrides):
    """A cheap-to-simulate query for tests that hit the real planner."""
    defaults = dict(model="ResNet-18", gpus=4, link=TEN_GBE,
                    tune_buffer=False)
    defaults.update(overrides)
    return PlanQuery(**defaults)


class TestCanonicalFloat:
    def test_equal_literals_one_representation(self):
        assert canonical_float(10.0) == canonical_float(1e1)
        assert repr(canonical_float(10.0)) == repr(canonical_float(1e1))

    def test_negative_zero_collapses(self):
        assert repr(canonical_float(-0.0)) == repr(canonical_float(0.0))

    def test_int_and_float_forms_agree(self):
        assert repr(canonical_float(10)) == repr(canonical_float(10.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            canonical_float(bad)

    def test_bool_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            canonical_float(True)


class TestPlanQuery:
    def test_equal_specs_equal_keys(self):
        a = PlanQuery("ResNet-50", gpus=32,
                      link=LinkSpec("x", 1e-5, 1.15e9, 10.0))
        b = PlanQuery("ResNet-50", gpus=32,
                      link=LinkSpec("x", 0.00001, 1150000000.0, 1e1))
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_negative_zero_alpha_same_key(self):
        a = PlanQuery("ResNet-50", gpus=8, link=LinkSpec("x", 0.0, 1e9, 0.0))
        b = PlanQuery("ResNet-50", gpus=8, link=LinkSpec("x", -0.0, 1e9, -0.0))
        assert a.cache_key() == b.cache_key()

    def test_different_values_different_keys(self):
        a = small_query()
        assert a.cache_key() != small_query(gpus=8).cache_key()
        assert a.cache_key() != small_query(model="ResNet-50").cache_key()
        assert a.cache_key() != small_query(rank=2).cache_key()
        assert a.cache_key() != small_query(tune_buffer=True).cache_key()
        assert (a.cache_key() !=
                small_query(link=SIM_LINKS["1GbE"]).cache_key())

    def test_link_name_is_part_of_the_key(self):
        """Two identically parametrized links with different names are
        distinct deployments by declaration."""
        a = small_query(link=LinkSpec("site-a", 1e-5, 1e9, 10.0))
        b = small_query(link=LinkSpec("site-b", 1e-5, 1e9, 10.0))
        assert a.cache_key() != b.cache_key()

    def test_round_trip_preserves_key(self):
        query = small_query(rank=4, batch_size=16,
                            methods=("ssgd", "acpsgd"), topk_ratio=0.01)
        doc = query.to_dict()
        again = PlanQuery.from_dict(json.loads(json.dumps(doc)))
        assert again == query
        assert again.cache_key() == query.cache_key()

    def test_foreign_schema_rejected(self):
        doc = small_query().to_dict()
        doc["schema"] = "repro.plan/99"
        with pytest.raises(ValueError, match="unsupported schema"):
            PlanQuery.from_dict(doc)

    def test_validation(self):
        with pytest.raises(ValueError, match="gpus"):
            small_query(gpus=0)
        with pytest.raises(ValueError, match="rank"):
            small_query(rank=0)
        with pytest.raises(ValueError, match="batch_size"):
            small_query(batch_size=0)
        with pytest.raises(ValueError, match="unknown method"):
            small_query(methods=("magic",))
        with pytest.raises(ValueError, match="at least one"):
            small_query(methods=())

    def test_hashable(self):
        assert len({small_query(), small_query(), small_query(gpus=8)}) == 2


class TestResultCache:
    def test_put_get_hit_miss_counters(self):
        cache = ResultCache(capacity=4)
        key = small_query().cache_key()
        assert cache.get(key, 0) is None
        cache.put(key, 0, "payload")
        assert cache.get(key, 0) == "payload"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and len(cache) == 1

    def test_stale_generation_is_a_miss_and_drops(self):
        cache = ResultCache(capacity=4)
        cache.put("a" * 64, 0, "old")
        assert cache.get("a" * 64, 1) is None
        stats = cache.stats()
        assert stats["stale_drops"] == 1
        assert stats["entries"] == 0  # dropped, not kept around

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        keys = [format(i, "064x") for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, 0, str(i))
        # Oldest key evicted; the other two survive.
        assert cache.get(keys[0], 0) is None
        assert cache.get(keys[1], 0) == "1"
        assert cache.get(keys[2], 0) == "2"
        assert cache.stats()["evictions"] == 1

    def test_lru_refresh_on_hit(self):
        cache = ResultCache(capacity=2)
        keys = [format(i, "064x") for i in range(3)]
        cache.put(keys[0], 0, "0")
        cache.put(keys[1], 0, "1")
        cache.get(keys[0], 0)  # refresh 0 so 1 is now LRU
        cache.put(keys[2], 0, "2")
        assert cache.get(keys[0], 0) == "0"
        assert cache.get(keys[1], 0) is None

    def test_invalidate_all(self):
        cache = ResultCache(capacity=8)
        for i in range(6):
            cache.put(format(i, "064x"), 0, str(i))
        assert cache.invalidate_all() == 6
        assert len(cache) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class CountingCompute:
    """Deterministic fake compute with per-key execution counts."""

    def __init__(self, delay_s=0.0):
        self.lock = threading.Lock()
        self.counts = {}
        self.delay_s = delay_s

    def __call__(self, query):
        import time

        key = query.cache_key()
        with self.lock:
            self.counts[key] = self.counts.get(key, 0) + 1
        if self.delay_s:
            time.sleep(self.delay_s)
        return dumps_canonical({"key": key, "model": query.model,
                                "gpus": query.gpus})


class TestPlannerServiceSingleFlight:
    def test_compute_once_then_cache(self):
        compute = CountingCompute()
        with PlannerService(compute_fn=compute) as service:
            query = small_query()
            first = service.submit(query)
            second = service.submit(query)
            assert first.source == SOURCE_COMPUTED
            assert second.source == SOURCE_CACHE
            assert first.payload == second.payload
            assert compute.counts[query.cache_key()] == 1

    def test_hammered_duplicates_run_once_per_unique_key(self):
        """Many threads x few unique queries => exactly one simulator
        execution per unique key, and identical payloads everywhere."""
        compute = CountingCompute(delay_s=0.02)
        unique = [small_query(gpus=g) for g in (2, 4, 8, 16)]
        results = {}
        errors = []
        barrier = threading.Barrier(24)

        with PlannerService(compute_fn=compute, max_workers=4) as service:
            def hammer(thread_id):
                try:
                    barrier.wait()
                    for repeat in range(8):
                        query = unique[(thread_id + repeat) % len(unique)]
                        result = service.submit(query)
                        results.setdefault(
                            query.cache_key(), set()
                        ).add(result.payload)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(24)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not errors
        assert set(compute.counts.values()) == {1}  # one run per key
        assert len(compute.counts) == len(unique)
        for payloads in results.values():
            assert len(payloads) == 1  # deterministic payload per key
        # 24 threads x 8 submits = 192 answers from 4 computes.
        stats = service.stats()
        assert stats["computes"] == len(unique)
        assert (stats["cache"]["hits"] + stats["coalesced"]
                == 24 * 8 - len(unique))

    def test_leader_failure_propagates_and_releases_key(self):
        calls = {"n": 0}

        def flaky(query):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("backend down")
            return "ok"

        with PlannerService(compute_fn=flaky) as service:
            with pytest.raises(RuntimeError, match="backend down"):
                service.submit(small_query())
            # The key is not poisoned: the next caller recomputes.
            assert service.submit(small_query()).payload == "ok"

    def test_submit_batch_preserves_order_and_coalesces(self):
        compute = CountingCompute(delay_s=0.01)
        queries = [small_query(gpus=2), small_query(gpus=4),
                   small_query(gpus=2), small_query(gpus=8),
                   small_query(gpus=4)]
        with PlannerService(compute_fn=compute, max_workers=4) as service:
            results = service.submit_batch(queries)
        assert [r.query for r in results] == queries
        assert len(compute.counts) == 3
        assert set(compute.counts.values()) == {1}

    def test_lookup_is_cache_only(self):
        compute = CountingCompute()
        with PlannerService(compute_fn=compute) as service:
            query = small_query()
            assert service.lookup(query) is None
            assert compute.counts == {}  # lookup never computes
            service.submit(query)
            hit = service.lookup(query)
            assert hit is not None and hit.source == SOURCE_CACHE


class TestCalibrationInvalidation:
    SAMPLES = [(1 * 1024**2, 0.0021), (4 * 1024**2, 0.0079),
               (16 * 1024**2, 0.0305), (64 * 1024**2, 0.1205)]

    def test_recalibration_bumps_generation_and_recomputes(self):
        compute = CountingCompute()
        with PlannerService(compute_fn=compute) as service:
            query = small_query()
            before = service.generation()
            first = service.submit(query)
            assert service.submit(query).source == SOURCE_CACHE

            link = service.recalibrate(self.SAMPLES, world_size=4,
                                       name="measured")
            assert service.generation() == before + 1
            assert service.resolve_link("measured") == link

            # Same query again: the cached entry is stale, so it must be
            # recomputed (generation re-stamped), not served.
            second = service.submit(query)
            assert second.source == SOURCE_COMPUTED
            assert second.generation == first.generation + 1
            assert compute.counts[query.cache_key()] == 2
            assert service.cache.stats()["stale_drops"] >= 1

    def test_fresh_results_bit_identical_to_uncached_run(self):
        """After invalidation the served plan is byte-identical to a
        cache-less computation at the same generation (real planner)."""
        with PlannerService(max_workers=1) as service:
            query = small_query()
            service.submit(query)
            service.recalibrate(self.SAMPLES, world_size=4, name="anchor-a")
            served = service.submit(query)
        uncached = compute_plan_payload(query)
        assert served.payload == uncached
        assert served.source == SOURCE_COMPUTED

    def test_direct_fit_call_also_invalidates(self):
        """Any fit_link_from_bucket_timings call — not just ones routed
        through the service — must invalidate, since it re-anchors the
        simulator the service prices with."""
        from repro.sim.calibration import fit_link_from_bucket_timings

        compute = CountingCompute()
        with PlannerService(compute_fn=compute) as service:
            query = small_query()
            service.submit(query)
            fit_link_from_bucket_timings(self.SAMPLES, world_size=4)
            assert service.submit(query).source == SOURCE_COMPUTED
            assert compute.counts[query.cache_key()] == 2

    def test_mid_compute_recalibration_is_not_memoized(self):
        """A payload priced under generation g must not be served after a
        bump to g+1 that lands while it is still being computed."""
        service_box = {}

        def bump_during_compute(query):
            CALIBRATION_GENERATION.bump()
            return "priced-under-old-calibration"

        with PlannerService(compute_fn=bump_during_compute) as service:
            service_box["s"] = service
            query = small_query()
            result = service.submit(query)
            assert result.payload == "priced-under-old-calibration"
            # Not cached: the next submit recomputes under the new gen.
            assert service.lookup(query) is None


class TestWarmStart:
    def test_warm_start_precomputes_once(self):
        compute = CountingCompute()
        with PlannerService(compute_fn=compute, max_workers=4) as service:
            computed = service.warm_start(models=("ResNet-18", "ResNet-50"),
                                          gpus=(4, 8))
            assert computed == 4
            # The whole grid is now warm.
            assert service.warm_start(models=("ResNet-18", "ResNet-50"),
                                      gpus=(4, 8)) == 0
            hit = service.lookup(PlanQuery("ResNet-18", gpus=4,
                                           link=TEN_GBE, tune_buffer=False))
            assert hit is not None

    def test_warm_start_default_grid_covers_registry(self):
        from repro.models.registry import MODEL_SPECS

        compute = CountingCompute()
        with PlannerService(compute_fn=compute, max_workers=4) as service:
            computed = service.warm_start()
            assert computed == len(MODEL_SPECS)


class TestPayloadSchema:
    def test_cached_equals_uncached_byte_for_byte(self):
        query = small_query()
        with PlannerService() as service:
            cold = service.submit(query)
            warm = service.submit(query)
        fresh = compute_plan_payload(query)
        assert cold.payload == warm.payload == fresh
        assert warm.source == SOURCE_CACHE

    def test_plan_round_trips_through_schema(self):
        from repro.planner import plan

        result = plan("ResNet-18", gpus=4, link="10GbE", tune_buffer=True)
        doc = json.loads(plan_payload(result))
        again = plan_from_dict(doc)
        assert again == result
        assert plan_payload(again) == plan_payload(result)
        assert again.tuning is not None
        assert again.tuning.evaluated == result.tuning.evaluated

    def test_plan_result_parses_back(self):
        with PlannerService() as service:
            result = service.submit(small_query())
        assert result.plan.model == "ResNet-18"
        assert result.plan.recommended_method in (
            "ssgd", "powersgd", "powersgd_star", "acpsgd"
        )

    def test_foreign_plan_schema_rejected(self):
        from repro.planner import plan

        doc = plan_to_dict(plan("ResNet-18", gpus=4, tune_buffer=False))
        doc["schema"] = "repro.plan/0"
        with pytest.raises(ValueError, match="unsupported schema"):
            plan_from_dict(doc)


class TestServeJsonl:
    def make_line(self, **overrides):
        doc = small_query(**overrides).to_dict()
        return json.dumps(doc)

    def test_streams_plans_in_order(self):
        compute = CountingCompute()
        with PlannerService(compute_fn=compute, max_workers=2) as service:
            lines = [self.make_line(gpus=4), self.make_line(gpus=8),
                     self.make_line(gpus=4)]
            out = [json.loads(line)
                   for line in serve_jsonl(lines, service, batch_size=2)]
        assert len(out) == 3
        assert out[0]["key"] == out[2]["key"]
        assert out[0]["key"] != out[1]["key"]
        assert len(compute.counts) == 2

    def test_link_by_name_resolves(self):
        compute = CountingCompute()
        with PlannerService(compute_fn=compute) as service:
            doc = small_query().to_dict()
            doc["link"] = "10GbE"
            out = list(serve_jsonl([json.dumps(doc)], service))
        assert json.loads(out[0])["key"] == small_query().cache_key()

    def test_bad_lines_become_error_documents(self):
        compute = CountingCompute()
        with PlannerService(compute_fn=compute) as service:
            lines = ["not json", self.make_line(),
                     json.dumps({"model": "ResNet-18"})]  # missing fields
            out = [json.loads(line) for line in serve_jsonl(lines, service)]
        assert "error" in out[0]
        assert "plan" in out[1]
        assert "error" in out[2]

    def test_blank_lines_skipped(self):
        compute = CountingCompute()
        with PlannerService(compute_fn=compute) as service:
            out = list(serve_jsonl(["", "   ", self.make_line()], service))
        assert len(out) == 1

    def test_compute_failure_becomes_error_document(self):
        # A well-formed query whose *compute* fails (unknown model) must
        # yield an error line, not crash the stream for its neighbours.
        def picky(query):
            if query.model == "ResNet-18":
                raise KeyError("unknown model 'ResNet-18'")
            return dumps_canonical({"model": query.model})

        with PlannerService(compute_fn=picky, max_workers=2) as service:
            lines = [self.make_line(model="ResNet-18"),
                     self.make_line(model="ResNet-50")]
            out = [json.loads(line)
                   for line in serve_jsonl(lines, service, batch_size=2)]
        assert "error" in out[0]
        assert "ResNet-18" in out[0]["error"]
        assert "plan" in out[1]


class TestSubmitBatchErrors:
    def test_batch_raises_by_default(self):
        def broken(query):
            raise RuntimeError("boom")

        with PlannerService(compute_fn=broken) as service:
            with pytest.raises(RuntimeError):
                service.submit_batch([small_query()])

    def test_return_exceptions_isolates_bad_queries(self):
        def picky(query):
            if query.gpus == 8:
                raise RuntimeError("boom")
            return dumps_canonical({"gpus": query.gpus})

        with PlannerService(compute_fn=picky, max_workers=2) as service:
            results = service.submit_batch(
                [small_query(gpus=4), small_query(gpus=8),
                 small_query(gpus=16)],
                return_exceptions=True,
            )
        assert results[0].payload == dumps_canonical({"gpus": 4})
        assert isinstance(results[1], RuntimeError)
        assert results[2].payload == dumps_canonical({"gpus": 16})

    def test_failed_key_not_poisoned(self):
        # After a failure the in-flight slot must be released so a later
        # identical query can succeed (e.g. once the model is registered).
        attempts = {"n": 0}

        def flaky(query):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("transient")
            return dumps_canonical({"ok": True})

        with PlannerService(compute_fn=flaky) as service:
            [first] = service.submit_batch([small_query()],
                                           return_exceptions=True)
            assert isinstance(first, RuntimeError)
            second = service.submit(small_query())
        assert second.payload == dumps_canonical({"ok": True})


class TestTopologyQueries:
    """repro.plan/2: the optional ``topology`` field of PlanQuery."""

    def _topology(self, nodes=2, g=2):
        from repro.comm.topology import NVLINK2, ClusterTopology

        return ClusterTopology(num_nodes=nodes, gpus_per_node=g,
                               intra_link=NVLINK2, inter_link=TEN_GBE)

    def test_round_trips_through_dict(self):
        query = small_query(gpus=4, topology=self._topology())
        restored = PlanQuery.from_dict(query.to_dict())
        assert restored == query
        assert restored.cache_key() == query.cache_key()
        assert restored.topology == self._topology()

    def test_flat_and_topology_queries_key_apart(self):
        flat = small_query(gpus=4)
        hier = small_query(gpus=4, topology=self._topology())
        assert flat.to_dict()["topology"] is None
        assert flat.cache_key() != hier.cache_key()

    def test_distinct_topologies_key_apart(self):
        two_by_two = small_query(gpus=4, topology=self._topology(2, 2))
        one_by_four = small_query(gpus=4, topology=self._topology(1, 4))
        assert two_by_two.cache_key() != one_by_four.cache_key()

    def test_world_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="world size"):
            small_query(gpus=8, topology=self._topology(2, 2))

    def test_jsonl_resolves_topology_link_names(self):
        compute = CountingCompute()
        with PlannerService(compute_fn=compute) as service:
            doc = small_query(gpus=4, topology=self._topology()).to_dict()
            doc["topology"]["intra_link"] = "NVLink2"
            doc["topology"]["inter_link"] = "10GbE"
            out = list(serve_jsonl([json.dumps(doc)], service))
        expected = small_query(gpus=4, topology=self._topology())
        assert json.loads(out[0])["key"] == expected.cache_key()

    def test_service_prices_topology_query(self):
        # With NVLink intra + 10GbE inter the hierarchical schedule is
        # never slower, so topology-aware pricing can only improve the
        # expected iteration time (ClusterSpec takes the best schedule).
        flat = small_query(gpus=4)
        hier = small_query(gpus=4, topology=self._topology())
        with PlannerService() as service:
            flat_doc = json.loads(service.submit(flat).payload)
            hier_doc = json.loads(service.submit(hier).payload)
        assert hier_doc["schema"] == "repro.plan/2"
        assert (hier_doc["expected_iteration_ms"]
                <= flat_doc["expected_iteration_ms"])
