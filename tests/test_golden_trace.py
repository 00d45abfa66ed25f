"""Golden-trace bit-identity: every simulated timeline must reproduce the
records captured before the simulator was collapsed onto one path.

``tests/data/golden_traces.json`` (written by
``scripts/golden_trace.py capture``) holds one SHA-256 per scenario over
the sorted IEEE-754 hex start/end times, plus three full traces; every
scenario here re-runs through ``repro.sim.engine.Engine`` and must hash
to the same digest.
"""

import json
import os

import pytest

from tests.golden_scenarios import (
    FULL_TRACES,
    digest,
    first_drift,
    iter_scenarios,
    run_scenario,
)

_GOLDEN_FILE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "data", "golden_traces.json")

SCENARIOS = {name: (graph, kwargs) for name, graph, kwargs in iter_scenarios()}


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN_FILE) as handle:
        return json.load(handle)


def test_every_golden_scenario_still_exists(golden):
    assert set(golden["digests"]) == set(SCENARIOS)
    assert set(golden["traces"]) == set(FULL_TRACES)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bit_identical_to_golden(name, golden):
    graph, engine_kwargs = SCENARIOS[name]
    actual = run_scenario(graph, engine_kwargs)
    if name in golden["traces"]:
        expected = golden["traces"][name]
        assert digest(expected) == golden["digests"][name]
        assert actual == expected, first_drift(actual, expected)
    assert digest(actual) == golden["digests"][name], (
        f"scenario {name!r} drifted from the golden trace"
    )


def test_first_drift_names_the_task():
    expected = [["a", "0x0p+0", "0x1p+0"], ["b", "0x1p+0", "0x1p+1"]]
    drifted = [["a", "0x0p+0", "0x1p+0"], ["b", "0x1p+0", "0x1.8p+1"]]
    assert "'b'" in first_drift(drifted, expected)
    assert digest(drifted) != digest(expected)
