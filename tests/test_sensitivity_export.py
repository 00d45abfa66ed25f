"""Sensitivity driver and JSON export."""

import json

import pytest

from repro.experiments.export import collect_all, export_json
from repro.experiments.sensitivity import (
    SensitivityPoint,
    render,
    run_sensitivity,
)


class TestSensitivity:
    @pytest.fixture(scope="class")
    def points(self):
        # A fast subset: one parameter each side of nominal.
        return run_sensitivity(
            parameters=("beta", "contention_rate"),
            factors=(0.8, 1.0, 1.25),
        )

    def test_claims_hold_near_calibration(self, points):
        for point in points:
            assert point.all_held, (point.parameter, point.factor)

    def test_point_structure(self, points):
        assert len(points) == 6
        for point in points:
            assert set(point.claims_held) == {
                "acp_fastest_everywhere",
                "ssgd_slowest_on_berts",
                "contention_flip",
            }

    def test_render(self, points):
        text = render(points)
        assert "HOLDS" in text
        assert "perturbation points" in text

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            run_sensitivity(parameters=("warp_speed",), factors=(1.0,))


class TestExport:
    @pytest.fixture(scope="class")
    def data(self):
        return collect_all(fast=True)

    def test_structure_complete(self, data):
        expected = {"claims", "table1", "table2", "table3", "fig2", "fig3", "fig5",
                    "fig8", "fig9", "fig10", "fig11a", "fig11b", "fig12",
                    "fig13", "microbench"}
        assert expected <= set(data)
        assert "fig6" not in data  # fast mode skips convergence

    def test_json_serializable(self, data, tmp_path):
        path = tmp_path / "results.json"
        with open(path, "w") as handle:
            json.dump(data, handle)
        loaded = json.loads(path.read_text())
        assert loaded["table3"][0]["model"] == "ResNet-50"

    def test_export_json_writes_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        data = export_json(path, fast=True)
        on_disk = json.loads(open(path).read())
        assert set(on_disk) == set(data)

    def test_values_match_drivers(self, data):
        """Exported Table III must agree with a fresh driver run."""
        from repro.experiments.table3 import run_table3

        fresh = {row.model: row.times_ms for row in run_table3()}
        for row in data["table3"]:
            for method, value in row["times_ms"].items():
                assert value == pytest.approx(fresh[row["model"]][method])

    def test_claim_rows_match_the_text_report(self, data):
        """One row per claim, in table order, with the report's verdict."""
        from repro.experiments.claims import CLAIMS, render

        rows = data["claims"]
        assert len(rows) == len(CLAIMS)
        verdicts = [line.rsplit("|", 2)[1].strip()
                    for line in render().splitlines()[2:]]
        assert len(verdicts) == len(CLAIMS)
        for claim, row, verdict in zip(CLAIMS, rows, verdicts):
            assert (row["source"], row["statement"], row["paper"], row["low"],
                    row["high"], row["closed"], row["role"]) == (
                claim.source, claim.statement, claim.paper, claim.low,
                claim.high, claim.closed, claim.role)
            assert row["holds"] == (verdict == "yes"), claim.statement
            assert row["holds"] == claim.holds(row["value"])
