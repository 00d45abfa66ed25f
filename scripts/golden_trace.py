#!/usr/bin/env python
"""Capture or check the golden simulator traces.

``capture`` runs every scenario in ``tests/golden_scenarios.py`` and
writes ``tests/data/golden_traces.json``: one SHA-256 per scenario over
its sorted ``(task_id, start.hex(), end.hex())`` records (IEEE-754 hex,
so comparison is bit-exact), plus the full records of the three
scenarios in ``golden_scenarios.FULL_TRACES``, one record per line.
``check`` re-runs the scenarios and fails on any drift, naming the first
drifting task where a full trace is stored. The committed values were
captured before the simulator's graph builders and entry points were
collapsed onto one path; ``check`` passing therefore proves every
simulated timeline is unchanged bit-for-bit.

``plans capture`` / ``plans check`` do the same one level up, for the
planner's answers: one SHA-256 per query of ``tests/golden_plans.py`` over
the canonical plan payload, in ``tests/data/golden_plans.json``. The
committed values were captured before the planner's cold path (event loop,
graph builders, breakdown sweep) was optimised; ``plans check`` passing
proves every plan is unchanged byte-for-byte. ``plans check`` then answers
all rows a second time in the same process, last row first, at the
generation the first pass ended on: the preset-link rows of both
generations are the same queries, so every one of them is served from
``simulate_iteration``'s memo, and the warm payloads must match the same
digests.

Usage::

    PYTHONPATH=src:tests python scripts/golden_trace.py capture
    PYTHONPATH=src:tests python scripts/golden_trace.py check
    PYTHONPATH=src:tests python scripts/golden_trace.py plans capture
    PYTHONPATH=src:tests python scripts/golden_trace.py plans check
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))

import golden_plans  # noqa: E402
from repro.serve.service import compute_plan_payload  # noqa: E402
from golden_scenarios import (  # noqa: E402
    FULL_TRACES,
    digest,
    first_drift,
    iter_scenarios,
    run_scenario,
)

GOLDEN_FILE = os.path.join(REPO_ROOT, "tests", "data", "golden_traces.json")
GOLDEN_PLANS_FILE = os.path.join(REPO_ROOT, "tests", "data", "golden_plans.json")


def _dump(digests, traces) -> str:
    """The golden document with one digest / one record per line."""
    lines = ["{", '"digests": {']
    lines.append(",\n".join(
        f"{json.dumps(name)}: {json.dumps(value)}"
        for name, value in sorted(digests.items())
    ))
    lines += ["},", '"traces": {']
    blocks = []
    for name, records in sorted(traces.items()):
        body = ",\n".join(json.dumps(record) for record in records)
        blocks.append(f"{json.dumps(name)}: [\n{body}\n]")
    lines.append(",\n".join(blocks))
    lines += ["}", "}"]
    return "\n".join(lines) + "\n"


def capture() -> None:
    digests, traces = {}, {}
    for name, graph, engine_kwargs in iter_scenarios():
        records = run_scenario(graph, engine_kwargs)
        digests[name] = digest(records)
        if name in FULL_TRACES:
            traces[name] = records
        print(f"captured {name}: {len(records)} records")
    missing = sorted(set(FULL_TRACES) - set(traces))
    if missing:
        raise SystemExit(f"FULL_TRACES names no scenario: {missing}")
    os.makedirs(os.path.dirname(GOLDEN_FILE), exist_ok=True)
    with open(GOLDEN_FILE, "w") as handle:
        handle.write(_dump(digests, traces))
    print(f"wrote {len(digests)} digests, {len(traces)} full traces "
          f"to {GOLDEN_FILE}")


def check() -> int:
    with open(GOLDEN_FILE) as handle:
        golden = json.load(handle)
    failures = []
    seen = set()
    for name, graph, engine_kwargs in iter_scenarios():
        seen.add(name)
        if name not in golden["digests"]:
            failures.append(f"{name}: missing from golden file (re-capture?)")
            continue
        actual = run_scenario(graph, engine_kwargs)
        if digest(actual) == golden["digests"][name]:
            print(f"ok {name}: {len(actual)} records bit-identical")
        elif name in golden["traces"]:
            failures.append(
                f"{name}: {first_drift(actual, golden['traces'][name])}"
            )
        else:
            failures.append(f"{name}: digest drifted (no full trace stored)")
    stale = sorted(set(golden["digests"]) - seen)
    if stale:
        failures.append(f"stale golden scenarios: {stale}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def capture_plans() -> None:
    digests = {
        name: golden_plans.digest(payload)
        for name, payload in golden_plans.payloads().items()
    }
    with open(GOLDEN_PLANS_FILE, "w") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} plan digests to {GOLDEN_PLANS_FILE}")


def check_plans() -> int:
    with open(GOLDEN_PLANS_FILE) as handle:
        golden = json.load(handle)
    answers = golden_plans.answers()
    actual = {name: payload for name, (_, payload) in answers.items()}
    warm = {
        name: compute_plan_payload(query)
        for name, (query, _) in reversed(list(answers.items()))
    }
    failures = [
        f"{name}: {label} payload drifted (expected_iteration_ms now "
        f"{json.loads(payloads[name])['expected_iteration_ms']!r})"
        for label, payloads in (("cold", actual), ("warm", warm))
        for name in sorted(set(payloads) & set(golden))
        if golden_plans.digest(payloads[name]) != golden[name]
    ]
    if set(actual) != set(golden):
        failures.append(
            f"query grid changed: {sorted(set(actual) ^ set(golden))} (re-capture?)"
        )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print(f"ok {len(actual)} plan payloads byte-identical, cold and warm")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("target", nargs="?", choices=("plans",),
                        help="pin plan payloads instead of simulator traces")
    parser.add_argument("mode", choices=("capture", "check"))
    args = parser.parse_args()
    if args.target == "plans":
        capture_fn, check_fn = capture_plans, check_plans
    else:
        capture_fn, check_fn = capture, check
    if args.mode == "capture":
        capture_fn()
        return 0
    return check_fn()


if __name__ == "__main__":
    raise SystemExit(main())
