"""Result files: the metric catalogue, host fingerprint, schema check.

``BENCHMARK.json`` at the repo root is the single catalogue of workload
and metric names, units, directions and regression bounds; the harness
reads it instead of repeating it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SCHEMA = "perfbench.result/1"
#: BLAS / OpenMP pools are pinned to one thread: the host has 2 shared
#: cores and the benchmark is one closed loop on one driver thread.
PINNED_THREADS = 1
HASH_SEED = 0
#: Set in every child before python starts. A per-process hash seed would
#: reshuffle every dict and set, which moves the 30 us planner hit path by
#: several percent from run to run.
PINNED_ENV = {
    "OMP_NUM_THREADS": str(PINNED_THREADS),
    "OPENBLAS_NUM_THREADS": str(PINNED_THREADS),
    "MKL_NUM_THREADS": str(PINNED_THREADS),
    "PYTHONHASHSEED": str(HASH_SEED),
}
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_specs(benchmark: dict) -> Dict[str, dict]:
    """``{metric name: spec}`` over end-to-end and per-layer metrics."""
    return {
        spec["name"]: spec
        for spec in benchmark["end_to_end"] + benchmark["per_layer"]
    }


def child_env() -> Dict[str, str]:
    """The environment every child runs in: pinned threads, fixed hash seed,
    ``src`` on the import path."""
    env = {**os.environ, **PINNED_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def host_fingerprint() -> dict:
    """What the parent can say about the host (the child adds versions)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "pinned_threads": PINNED_THREADS,
        "hash_seed": HASH_SEED,
    }


def library_fingerprint() -> dict:
    """Python / numpy / BLAS identity, read in the child that imported them."""
    import platform

    import numpy as np

    blas = np.__config__.show(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def validate(doc: dict, benchmark: dict) -> List[str]:
    """Schema problems of a result document (empty list = valid)."""
    problems = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    host = doc.get("host", {})
    for key in ("git_sha", "nproc", "loadavg_at_start", "pinned_threads",
                "python", "numpy", "blas"):
        if key not in host:
            problems.append(f"host fingerprint lacks {key!r}")
    if not isinstance(doc.get("seed"), int):
        problems.append("seed missing")
    specs = metric_specs(benchmark)
    workloads = {w["name"] for w in benchmark["workloads"]}
    for run in doc.get("runs", []):
        where = f"{run.get('workload')}/trace={run.get('trace')}"
        if run.get("workload") not in workloads:
            problems.append(f"{where}: unknown workload")
        for key in ("correct", "attempted", "failed", "checks", "samples",
                    "digests"):
            if key not in run:
                problems.append(f"{where}: lacks {key!r}")
        for name, metric in run.get("metrics", {}).items():
            if not _NAME.match(name):
                problems.append(f"{where}: bad metric name {name!r}")
            if name not in specs:
                problems.append(f"{where}: metric {name!r} not in BENCHMARK.json")
            elif metric.get("unit") != specs[name]["unit"]:
                problems.append(f"{where}: {name} has unit {metric.get('unit')!r}")
            value = metric.get("value")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                # A metric that does not apply is absent, never null.
                problems.append(f"{where}: {name} value is {value!r}")
    return problems


def contract_line(run: dict, benchmark: dict) -> str:
    """The last stdout line the benchmark driver parses.

    The driver wants every declared metric of the mode on every workload;
    a layer the workload never enters reads 0 there (0 calls, 0 ms),
    while the result file keeps such metrics absent.
    """
    declared = benchmark["per_layer"] if run["trace"] else benchmark["end_to_end"]
    metrics = {
        spec["name"]: run["metrics"].get(
            spec["name"], {"value": 0, "unit": spec["unit"]}
        )
        for spec in declared
    }
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    })
