"""Golden plan payloads: every planner answer must reproduce, byte for
byte, the payload captured before the planner's cold path was optimised.

``tests/data/golden_plans.json`` (written by
``scripts/golden_trace.py plans capture``) holds one SHA-256 per query of
``tests/golden_plans.py`` over the canonical ``repro.plan/2`` payload, at
the starting calibration generation and again after one ``recalibrate``.
"""

import json
import os

import pytest

from tests import golden_plans

_GOLDEN_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "golden_plans.json"
)

with open(_GOLDEN_FILE) as _handle:
    GOLDEN = json.load(_handle)


@pytest.fixture(scope="module")
def payloads():
    return golden_plans.payloads()


def test_every_golden_query_still_exists(payloads):
    assert set(payloads) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_byte_identical_to_golden(name, payloads):
    assert golden_plans.digest(payloads[name]) == GOLDEN[name], (
        f"plan {name!r} drifted from the golden payload: {payloads[name]}"
    )


def test_recalibration_leaves_preset_link_plans_alone(payloads):
    moved = [
        name for name in payloads
        if name.startswith("gen0/")
        and payloads["gen1/" + name[len("gen0/"):]] != payloads[name]
    ]
    assert not moved
