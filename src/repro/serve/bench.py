"""Planner-service throughput benchmark (``BENCH_planner.json``).

Unlike every earlier benchmark in this repo, the headline here is not
step time but *queries per second*: a capacity-planning service lives or
dies on how many "which method for my cluster?" questions it can absorb.
The benchmark measures

- **cold** throughput/latency: unique queries, empty cache — each one
  pays a full simulator sweep, every other one the buffer autotuner too;
- **warm** throughput/latency: a deterministic query stream drawn from
  the same population — answered from the sharded cache;
- the cache hit rate of the warm pass, and
- a byte-identity probe: one warm payload compared against the same
  query computed by a fresh, cache-less service.

``python -m repro bench --planner`` and ``scripts/bench_planner.py``
both write the report, which CI tracks next to ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve.cache import ResultCache
from repro.serve.query import PlanQuery
from repro.serve.service import PlannerService
from repro.sim.calibration import SIM_LINKS

#: Fast-to-simulate models, cycled to build the benchmark grid. The big
#: paper models (BERT-Large, ResNet-152) simulate in ~1s each and belong
#: in warm_start(), not in a quick benchmark's cold pass.
_GRID_MODELS = ("ResNet-18", "ResNet-50", "BERT-Base", "VGG-16")
_GRID_GPUS = (8, 16, 32, 64)
_GRID_LINKS = ("10GbE", "1GbE", "100GbIB")

WARM_QPS_TARGET = 1000.0


def default_query_grid(
    unique_queries: int,
    tune_buffer: Optional[bool] = None,
    models: Sequence[str] = _GRID_MODELS,
    gpus: Sequence[int] = _GRID_GPUS,
    links: Sequence[str] = _GRID_LINKS,
) -> List[PlanQuery]:
    """A deterministic grid of ``unique_queries`` distinct queries;
    ``tune_buffer=None`` tunes every other one (a planner's mixed traffic)."""
    if unique_queries < 1:
        raise ValueError(
            f"unique_queries must be >= 1, got {unique_queries}"
        )
    grid: List[PlanQuery] = []
    index = 0
    while len(grid) < unique_queries:
        model = models[index % len(models)]
        world = gpus[(index // len(models)) % len(gpus)]
        link = links[(index // (len(models) * len(gpus))) % len(links)]
        index += 1
        if index > unique_queries * 100:  # grid exhausted (tiny axes)
            raise ValueError(
                f"cannot build {unique_queries} unique queries from "
                f"{len(models)}x{len(gpus)}x{len(links)} grid axes"
            )
        query = PlanQuery(
            model=model, gpus=world, link=SIM_LINKS[link],
            tune_buffer=len(grid) % 2 == 1 if tune_buffer is None else tune_buffer,
        )
        if query not in grid:
            grid.append(query)
    return grid


def _latency_stats(latencies_s: Sequence[float]) -> Dict[str, float]:
    ms = np.asarray(latencies_s, dtype=float) * 1e3
    return {
        "p50_ms": float(np.percentile(ms, 50)),
        "p99_ms": float(np.percentile(ms, 99)),
        "mean_ms": float(ms.mean()),
        "max_ms": float(ms.max()),
    }


def run_planner_bench(
    unique_queries: int = 48,
    warm_lookups: int = 5000,
    max_workers: int = 4,
    shards: int = 8,
    capacity_per_shard: int = 4096,
    tune_buffer: Optional[bool] = None,
    seed: int = 0,
    service: Optional[PlannerService] = None,
) -> Dict[str, object]:
    """Run the cold/warm planner benchmark and return the report dict."""
    owns_service = service is None
    if service is None:
        service = PlannerService(
            cache=ResultCache(shards=shards,
                              capacity_per_shard=capacity_per_shard),
            max_workers=max_workers,
        )
    try:
        grid = default_query_grid(unique_queries, tune_buffer=tune_buffer)

        # Cold pass: every query is a miss and pays a simulator sweep.
        cold_latencies: List[float] = []
        start_cold = time.perf_counter()
        for query in grid:
            begin = time.perf_counter()
            result = service.submit(query)
            cold_latencies.append(time.perf_counter() - begin)
            assert result.source == "computed"
        cold_seconds = time.perf_counter() - start_cold

        # Warm pass: a deterministic stream over the same population.
        rng = np.random.default_rng(seed)
        stream = [grid[i] for i in rng.integers(0, len(grid), warm_lookups)]
        warm_latencies: List[float] = []
        hits_before = service.cache.stats()["hits"]
        start_warm = time.perf_counter()
        for query in stream:
            begin = time.perf_counter()
            service.submit(query)
            warm_latencies.append(time.perf_counter() - begin)
        warm_seconds = time.perf_counter() - start_warm
        warm_hits = service.cache.stats()["hits"] - hits_before
        hit_rate = warm_hits / warm_lookups if warm_lookups else 0.0

        # Batched warm pass: the submit_batch() front door.
        start_batch = time.perf_counter()
        service.submit_batch(stream)
        batch_seconds = time.perf_counter() - start_batch

        # Byte-identity probe: cached payload == a fresh cache-less run.
        probe = grid[0]
        cached_payload = service.submit(probe).payload
        with PlannerService(cache=ResultCache(shards=1,
                                              capacity_per_shard=1),
                            max_workers=1) as fresh:
            fresh_payload = fresh.submit(probe).payload
        payload_identical = cached_payload == fresh_payload

        warm_qps = warm_lookups / warm_seconds if warm_seconds > 0 else 0.0
        report: Dict[str, object] = {
            "schema": "repro.bench.planner/1",
            "config": {
                "unique_queries": unique_queries,
                "warm_lookups": warm_lookups,
                "max_workers": max_workers,
                "shards": service.cache.num_shards,
                "capacity_per_shard": capacity_per_shard,
                "tune_buffer": "alternate" if tune_buffer is None else tune_buffer,
                "seed": seed,
                "host": f"{platform.platform()}, python {platform.python_version()}, "
                        f"{os.cpu_count()} cpus",
                "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            },
            "cold": {
                "queries": len(grid),
                "seconds": cold_seconds,
                "qps": len(grid) / cold_seconds if cold_seconds > 0 else 0.0,
                **_latency_stats(cold_latencies),
            },
            "warm": {
                "queries": warm_lookups,
                "seconds": warm_seconds,
                "qps": warm_qps,
                "hit_rate": hit_rate,
                **_latency_stats(warm_latencies),
            },
            "warm_batched": {
                "queries": len(stream),
                "seconds": batch_seconds,
                "qps": (len(stream) / batch_seconds
                        if batch_seconds > 0 else 0.0),
            },
            "service": service.stats(),
            "criteria": {
                "warm_qps_target": WARM_QPS_TARGET,
                "warm_qps": warm_qps,
                "meets_warm_qps_target": warm_qps >= WARM_QPS_TARGET,
                "warm_hit_rate_nonzero": hit_rate > 0.0,
                "payload_bit_identical": payload_identical,
            },
        }
        return report
    finally:
        if owns_service:
            service.close()


def render_report(report: Dict[str, object]) -> str:
    """Human-readable summary of one benchmark report."""
    cold = report["cold"]
    warm = report["warm"]
    batched = report["warm_batched"]
    criteria = report["criteria"]
    lines = [
        f"planner bench: {cold['queries']} unique queries, "  # type: ignore[index]
        f"{warm['queries']} warm lookups",  # type: ignore[index]
        f"  cold : {cold['qps']:10.1f} q/s   "  # type: ignore[index]
        f"p50 {cold['p50_ms']:8.2f}ms  p99 {cold['p99_ms']:8.2f}ms",  # type: ignore[index]
        f"  warm : {warm['qps']:10.1f} q/s   "  # type: ignore[index]
        f"p50 {warm['p50_ms']:8.4f}ms  p99 {warm['p99_ms']:8.4f}ms  "  # type: ignore[index]
        f"hit rate {warm['hit_rate']:.1%}",  # type: ignore[index]
        f"  batch: {batched['qps']:10.1f} q/s (submit_batch front door)",  # type: ignore[index]
        f"  warm >= {criteria['warm_qps_target']:.0f} q/s: "  # type: ignore[index]
        f"{'PASS' if criteria['meets_warm_qps_target'] else 'FAIL'}; "  # type: ignore[index]
        f"cached == uncached payload: "
        f"{'PASS' if criteria['payload_bit_identical'] else 'FAIL'}",  # type: ignore[index]
    ]
    return "\n".join(lines)
