"""One workload, one mode, in a fresh process; prints one JSON line.

``run.py`` starts this file once per measurement so that peak RSS,
einsum-path caches, ``ALLOC_STATS`` and the global calibration generation
all start clean. ``setup_s`` counts from the first statement below, before
numpy or ``repro`` is imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import List, NamedTuple, Optional  # noqa: E402

import hostclock  # noqa: E402  (imports numpy: part of set-up, after T0)

#: Share of a traced run's window that runs *before* the wrappers go in;
#: its ops/s is the untraced reference for ``trace.overhead_share``.
UNTRACED_SHARE = 0.3


class Window(NamedTuple):
    """Raw ``perf_counter`` readings of one measured window."""

    begins: List[float]  # per op
    ends: List[float]  # per op
    failed: List[int]
    start: float
    end: float
    traced_from: Optional[int]  # first traced op
    untraced_end: float  # when the untraced phase stopped
    traced_start: float  # when the traced phase began (wrappers installed)


def drive(workload, seconds: float, max_ops: Optional[int], recorder,
          host) -> Window:
    """The closed loop: one client, next op only after the previous reply.

    Runs until ``seconds`` have elapsed (or exactly ``max_ops`` ops in
    smoke mode); the op in flight at the deadline completes. The host
    reference is sampled between ops, at the window's start and end and
    every ``REF_INTERVAL_S`` in between. With a recorder, the wrappers are
    installed at the first op boundary the workload allows after
    ``UNTRACED_SHARE`` of the window.
    """
    begins: List[float] = []
    ends: List[float] = []
    failed: List[int] = []
    traced_from = None
    untraced_end = traced_start = 0.0
    clock = time.perf_counter
    i = 0
    host.sample()
    start = clock()
    next_sample = start + hostclock.REF_INTERVAL_S
    while True:
        now = clock()
        progress = i / max_ops if max_ops else (now - start) / seconds
        if progress >= 1.0:
            break
        if now >= next_sample:
            host.sample()
            next_sample = clock() + hostclock.REF_INTERVAL_S
        if (recorder is not None and traced_from is None
                and progress >= UNTRACED_SHARE and workload.at_boundary(i)):
            untraced_end = now
            workload.install(recorder)
            traced_from = i
            traced_start = clock()
        workload.between(i)
        if traced_from is not None:
            recorder.op = i
        begins.append(clock())
        try:
            ok = workload.op(i)
        except Exception:  # noqa: BLE001 — a failed op is a counted result
            traceback.print_exc()
            ok = False
        ends.append(clock())
        if traced_from is not None:
            recorder.op = -1
        if not ok:
            failed.append(i)
        i += 1
    host.sample()
    return Window(begins, ends, failed, start, now, traced_from,
                  untraced_end, traced_start)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    smoke: bool = False,
    trace: bool = False,
    trace_path: Optional[str] = None,
    t0: Optional[float] = None,
    setup_only: bool = False,
) -> dict:
    """Set up, warm up, drive and check one workload; returns the run doc."""
    t0 = time.perf_counter() if t0 is None else t0
    import numpy as np

    import results
    import spans
    import workloads

    workload = workloads.build(name, seed, smoke)
    setup_raw = time.perf_counter() - t0
    host = hostclock.HostClock()
    for _ in range(3):
        host.sample()
    setup_s = setup_raw / float(np.median(host.speeds()))
    if setup_only:
        return {"setup_s": setup_s}
    workload.warmup()
    recorder = spans.Recorder() if trace else None
    try:
        window = drive(
            workload, seconds, workload.smoke_ops if smoke else None,
            recorder, host,
        )
    finally:
        if recorder is not None:
            recorder.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.finish()

    # Every time below is read from the host-speed-normalised clock.
    virtual = host.virtual
    latencies = virtual(window.ends) - virtual(window.begins)
    speeds = host.speeds()
    ops = len(latencies)
    failed = sorted(set(window.failed) | set(workload.invalid_ops()))
    checks = workload.checks()
    samples = {"ops": ops}
    run = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "smoke": smoke,
        "attempted": ops,
        "failed": len(failed),
        "setup_s": setup_s,
        "digests": workload.digests(),
        "host": results.library_fingerprint(),
        # Raw time = reported time x host speed (1.0 = the nominal host).
        "host_speed": {
            "median": float(np.median(speeds)), "min": float(speeds.min()),
            "max": float(speeds.max()), "samples": len(speeds),
        },
    }
    if not trace:
        metrics = {
            "ops_per_s": ops / float(virtual(window.end) - virtual(window.start)),
            "op_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "op_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            **workload.end_to_end(virtual),
        }
        samples["latency"] = ops
    elif window.traced_from is None:
        metrics = {}
        checks["traced_phase_ran"] = False
    else:
        recorded = [
            span._replace(start=int(start), end=int(end))
            for span, start, end in zip(
                recorder.spans,
                virtual(np.array([s.start for s in recorder.spans]) / 1e9) * 1e9,
                virtual(np.array([s.end for s in recorder.spans]) / 1e9) * 1e9,
            )
        ]
        problems = spans.tree_problems(recorded)
        for problem in problems[:10]:
            print(problem, file=sys.stderr)
        checks["span_tree_well_formed"] = not problems
        checks["wrappers_restored"] = not recorder.patched()
        traced_ops = ops - window.traced_from
        untraced_rate = window.traced_from / float(
            virtual(window.untraced_end) - virtual(window.start)
        )
        traced_rate = traced_ops / float(
            virtual(window.end) - virtual(window.traced_start)
        )
        metrics = workload.per_layer(recorded)
        metrics["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
        in_spans = sum(
            s.end - s.start for s in recorded if s.name == workload.root_span
        ) / 1e9
        run["coverage"] = in_spans / float(latencies[window.traced_from:].sum())
        checks["spans_cover_ops"] = 0.95 <= run["coverage"] <= 1.0
        run["layer_share"] = spans.layer_shares(recorded)
        samples.update(traced_ops=traced_ops, spans=len(recorded))
        if trace_path is not None:
            spans.write_chrome_trace(recorded, trace_path)
            run["trace_file"] = trace_path
    run.update(
        checks=checks,
        correct=not failed and all(checks.values()),
        metrics=metrics,
        samples=samples,
    )
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-path")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    run = run_workload(
        args.workload, args.seed, args.seconds, smoke=args.smoke,
        trace=args.trace, trace_path=args.trace_path, t0=T0,
        setup_only=args.setup_only,
    )
    print(json.dumps(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
