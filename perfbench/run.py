"""perfbench: the repo's end-to-end + per-layer benchmark.

    python perfbench/run.py [--workload NAME] [--seed N] [--trace 0|1]
                            [--seconds S] [--out FILE] [--smoke]

Runs each selected workload in fresh child processes: untraced for the
end-to-end metrics (``--trace 0``), traced for the per-layer metrics
(``--trace 1``), both when ``--trace`` is omitted. Prints every metric by
name with its unit, writes the result document, and exits non-zero when an
output check fails. With one workload and one mode, the last stdout line is
the JSON object the benchmark driver reads (see BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import List

import results

CHILD = Path(__file__).resolve().parent / "child.py"
#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The driver allows 180 s per run; leave it room to report a timeout.
CHILD_TIMEOUT_S = 170


def _child(args: List[str]) -> dict:
    """Run one child to completion and parse its one-line result."""
    done = subprocess.run(
        [sys.executable, str(CHILD), *args], env=results.child_env(),
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool, benchmark: dict) -> dict:
    """One run of one workload in one mode, with units attached."""
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    if trace:
        results.OUT_DIR.mkdir(exist_ok=True)
        path = results.OUT_DIR / f"{workload}.trace.json"
        run = _child(base + ["--trace", "--trace-path", str(path)])
        del run["setup_s"]  # one sample; the untraced run reports the median
    else:
        setups = [
            _child(base + ["--setup-only"])["setup_s"]
            for _ in range(0 if smoke else SETUP_REPEATS - 1)
        ]
        run = _child(base)
        setups.append(run.pop("setup_s"))
        run["metrics"]["setup_s"] = median(setups)
        run["samples"]["setup"] = len(setups)
    specs = results.metric_specs(benchmark)
    run["metrics"] = {
        name: {"value": value, "unit": specs[name]["unit"]}
        for name, value in sorted(run["metrics"].items())
    }
    return run


def report(run: dict) -> None:
    mode = "traced" if run["trace"] else "untraced"
    verdict = "ok" if run["correct"] else "FAILED"
    print(f"\n== {run['workload']} ({mode}): {verdict}, "
          f"{run['attempted']} ops, {run['failed']} failed, "
          f"samples {run['samples']}")
    for name, metric in run["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for name, digest in run["digests"].items():
        print(f"  {name + '_digest':32s} {digest[:16]}")
    if "layer_share" in run:
        shares = ", ".join(
            f"{layer} {share:.1%}" for layer, share in run["layer_share"].items()
        )
        print(f"  layer share of op time: {shares}; "
              f"spans cover {run['coverage']:.1%} of measured op time")
    for name, passed in run["checks"].items():
        if not passed:
            print(f"  CHECK FAILED: {name}")


def main(argv=None) -> int:
    benchmark = results.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path,
                        default=results.OUT_DIR / "result.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a fixed op count (self-tests)")
    args = parser.parse_args(argv)

    host = results.host_fingerprint()
    runs = [
        measure(workload, args.seed, args.seconds, trace, args.smoke, benchmark)
        for workload in ([args.workload] if args.workload else names)
        for trace in ((0, 1) if args.trace is None else (args.trace,))
    ]
    host.update(runs[0]["host"])
    for run in runs:
        del run["host"]
        report(run)
    doc = {"schema": results.SCHEMA, "seed": args.seed, "host": host,
           "runs": runs}
    problems = results.validate(doc, benchmark)
    for problem in problems:
        print(f"INVALID RESULT: {problem}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1)
    print(f"\nresult written to {args.out}")
    if len(runs) == 1:
        print(results.contract_line(runs[0], benchmark))
    return 0 if not problems and all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
