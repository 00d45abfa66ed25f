"""Capacity planning as a service: many queries, one simulator.

``examples/cluster_planning.py`` answers one deployment question with one
simulator sweep. This example shows the production face of the same
machinery (`repro.serve`): a PlannerService absorbs a *stream* of
planning queries over a sharded memoized cache — duplicates are answered
from cache or coalesced onto one in-flight computation, cached answers
are byte-identical to fresh ones, and re-anchoring the link calibration
from measured bucket timings invalidates every stale entry.

Run:
    python examples/capacity_planning.py [--queries 40]
"""

import argparse
import time

from repro.serve import PlannerService, PlanQuery, ResultCache
from repro.serve.service import compute_plan_payload
from repro.sim.calibration import SIM_LINKS

MB = 1024 * 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=40,
                        help="total queries in the simulated stream")
    args = parser.parse_args()

    # A small population of distinct deployments, queried repeatedly —
    # the service workload: many cheap lookups over few expensive sims.
    population = [
        PlanQuery("ResNet-18", gpus=g, link=SIM_LINKS[link],
                  tune_buffer=False)
        for g in (4, 8, 16)
        for link in ("10GbE", "1GbE")
    ]
    stream = [population[i % len(population)]
              for i in range(args.queries)]

    with PlannerService(cache=ResultCache(capacity=1024),
                        max_workers=4) as service:
        start = time.perf_counter()
        results = service.submit_batch(stream)
        elapsed = time.perf_counter() - start

        stats = service.stats()
        print(f"answered {len(results)} queries in {elapsed * 1e3:.0f}ms "
              f"({len(results) / elapsed:.0f} q/s) with "
              f"{stats['computes']} simulator runs")
        print(f"cache: hit rate {stats['cache']['hit_rate']:.0%}, "
              f"{stats['cache']['entries']} of "
              f"{stats['cache']['capacity']} entries")

        # Byte-identity: a cached answer equals a fresh cache-less run.
        probe = population[0]
        cached = service.submit(probe).payload
        fresh = compute_plan_payload(probe)
        identical = cached == fresh
        print(f"cached vs uncached payload: "
              f"{'MATCH bit-exactly' if identical else 'MISMATCH'}")

        # One answer, rendered.
        plan = results[0].plan
        print(f"\n{probe.model} on {probe.gpus}x{probe.link.name}: "
              f"recommend {plan.recommended_method} at "
              f"~{plan.expected_iteration_ms:.0f}ms/iter "
              f"({plan.speedup_over_ssgd:.1f}x over S-SGD)")

        # Re-anchor the calibration from (synthetic) measured per-bucket
        # timings: every cached plan is now stale and must be recomputed.
        samples = [(1 * MB, 0.0021), (4 * MB, 0.0079),
                   (16 * MB, 0.0305), (64 * MB, 0.1205)]
        generation_before = service.generation()
        service.recalibrate(samples, world_size=4, name="measured")
        refreshed = service.submit(probe)
        print(f"\nrecalibration: generation {generation_before} -> "
              f"{service.generation()}; re-query was "
              f"{'recomputed (stale entry dropped)' if refreshed.source == 'computed' else 'served stale: BUG'}")

        assert identical, "cached payload diverged from uncached run"
        assert refreshed.source == "computed", "stale cache entry served"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
