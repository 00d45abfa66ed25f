"""Headline reproduction checks: every paper claim the simulator and the
cost model reproduce, one test per row of :mod:`repro.experiments.claims`.

These are the repository's acceptance tests — if calibration or strategy
code drifts, they catch it. The table holds each claim's paper number,
bounds and role; this file only evaluates it.
"""

from collections import Counter

import pytest

from repro.experiments.claims import CLAIMS
from repro.experiments.microbench import run_fusion_microbench


def _ids():
    """``Table III #4``: the row's source and its place among that source's
    rows (``§`` spelled ``sec`` to keep the ids ASCII)."""
    seen = Counter()
    for claim in CLAIMS:
        seen[claim.source] += 1
        yield f"{claim.source.replace('§', 'sec ')} #{seen[claim.source]}"


@pytest.mark.parametrize("claim", CLAIMS, ids=list(_ids()))
def test_claim_holds(claim):
    value = claim.value()
    assert claim.holds(value), (
        f"{claim.source} {claim.statement}: reproduced {value:.4g}, "
        f"outside {claim.bounds} (paper {claim.paper})"
    )


class TestMicrobenchmarks:
    def test_fusion_anchors(self):
        """One fusion microbenchmark run meets all four §IV-B rows at once:
        raw fused and separate, compressed separate, compressed speed-up."""
        results = run_fusion_microbench()
        values = [results["raw"].fused_ms, results["raw"].separate_ms,
                  results["compressed"].separate_ms,
                  results["compressed"].speedup]
        rows = [c for c in CLAIMS if c.source == "§IV-B"]
        assert len(rows) == len(values)
        for row, value in zip(rows, values):
            assert row.holds(value), (
                f"{row.statement}: {value:.4g} outside {row.bounds}")
