"""Compare two sets of perfbench result files.

    python perfbench/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Side A is the parent (or the first set of runs), side B the change (or the
second set). For every workload x end-to-end metric it prints each side's
median and quartiles, how much worse B's median is as a share of A's, the
regression bound from BENCHMARK.json, and a verdict:

- ``worse``       B's median is worse than A's by more than the bound;
- ``unresolved``  A's own quartile spread exceeds the bound, so the runs
                  cannot resolve a change of that size (unless every B run
                  beats every A run, which reads ``better``);
- ``better``      B's median is better by more than A's quartile spread;
- ``within``      anything else.

Digests and count metrics are compared exactly, per seed, and listed when
they differ (a changed digest means the arithmetic changed: judge it by
``time_to_target_s``). Exits non-zero on any ``worse`` or when B's
``failed_share`` (failed / attempted ops) is higher than A's.
"""

from __future__ import annotations

import json
import sys
from statistics import median, quantiles
from typing import Dict, List, Tuple

import results


def load(paths: List[str]) -> List[dict]:
    docs = []
    for path in paths:
        with open(path) as handle:
            docs.append(json.load(handle))
    return docs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = (a_q3 - a_q1) / abs(a_med)
    worse_by = sign * (b_med - a_med) / abs(a_med)
    if spread > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        word = "better" if all_better else "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif -worse_by > spread:
        word = "better"
    else:
        word = "within"
    return {"a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
            "spread": spread, "worse_by": worse_by, "verdict": word}


def end_to_end_values(docs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for doc in docs:
        for run in doc["runs"]:
            if not run["trace"]:
                for name, metric in run["metrics"].items():
                    out.setdefault((run["workload"], name), []).append(
                        metric["value"]
                    )
    return out


def failed_share(docs: List[dict]) -> Dict[str, float]:
    totals: Dict[str, List[int]] = {}
    for doc in docs:
        for run in doc["runs"]:
            row = totals.setdefault(run["workload"], [0, 0])
            row[0] += run["failed"]
            row[1] += run["attempted"]
    return {name: failed / attempted
            for name, (failed, attempted) in totals.items()}


def exact_values(docs: List[dict], units: Dict[str, str]) -> Dict[tuple, object]:
    """Digests and count metrics keyed by (workload, trace, seed, name)."""
    out = {}
    for doc in docs:
        for run in doc["runs"]:
            key = (run["workload"], run["trace"], doc["seed"])
            for name, digest in run["digests"].items():
                out[key + (name + "_digest",)] = digest
            for name, metric in run["metrics"].items():
                if units[name] == "count":
                    out[key + (name,)] = metric["value"]
    return out


def compare(side_a: List[dict], side_b: List[dict], benchmark: dict) -> int:
    specs = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    values_a, values_b = end_to_end_values(side_a), end_to_end_values(side_b)
    bad = 0
    print(f"{'workload':12s} {'metric':18s} {'A q1/med/q3':>32s} "
          f"{'B q1/med/q3':>32s} {'worse by':>9s} {'bound':>6s} verdict")
    for key in sorted(values_a.keys() & values_b.keys()):
        workload, name = key
        spec = specs[name]
        row = verdict(values_a[key], values_b[key], spec["better"],
                      spec["bound"])
        bad += row["verdict"] == "worse"
        print(f"{workload:12s} {name:18s} "
              f"{'/'.join(f'{v:.4g}' for v in row['a']):>32s} "
              f"{'/'.join(f'{v:.4g}' for v in row['b']):>32s} "
              f"{row['worse_by']:>+9.1%} {spec['bound']:>6.0%} "
              f"{row['verdict']}")
    failed_a, failed_b = failed_share(side_a), failed_share(side_b)
    for workload in sorted(failed_a.keys() & failed_b.keys()):
        worse = failed_b[workload] > failed_a[workload]
        bad += worse
        print(f"{workload:12s} {'failed_share':18s} {failed_a[workload]:>32.4g} "
              f"{failed_b[workload]:>32.4g} {'':>9s} {'any':>6s} "
              f"{'worse' if worse else 'within'}")
    units = {name: spec["unit"]
             for name, spec in results.metric_specs(benchmark).items()}
    exact_a, exact_b = exact_values(side_a, units), exact_values(side_b, units)
    shared = sorted(exact_a.keys() & exact_b.keys())
    changed = [key for key in shared if exact_a[key] != exact_b[key]]
    print(f"\nexact values (digests, counts) on shared seeds: "
          f"{len(shared) - len(changed)} identical, {len(changed)} changed")
    for workload, trace, seed, name in changed:
        key = (workload, trace, seed, name)
        print(f"  changed: {workload} trace={trace} seed={seed} {name}: "
              f"{exact_a[key]} -> {exact_b[key]}")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__)
        return 2
    split = argv.index("--")
    return compare(load(argv[:split]), load(argv[split + 1:]),
                   results.load_benchmark())


if __name__ == "__main__":
    sys.exit(main())
