"""Experiment drivers: structure and rendering of every table/figure."""

import pytest

import repro.experiments as E
from repro.experiments import fig2, fig3, fig5, fig8, fig10, fig11, table1, table2
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11a, run_fig11b


class TestTable1:
    def test_rows_and_render(self):
        rows = E.run_table1()
        assert [r.model for r in rows] == [
            "ResNet-50", "ResNet-152", "BERT-Base", "BERT-Large",
        ]
        for row in rows:
            assert row.signsgd_ratio == 32.0
            assert 900 < row.topk_ratio < 1100
            assert row.acpsgd_ratio > row.powersgd_ratio
        text = table1.render(rows)
        assert "ResNet-50" in text and "67" in text


class TestTable2:
    def test_measured_matches_analytic(self):
        rows = E.run_table2()
        for row in rows:
            assert row.relative_error < 0.05, (row.method, row.relative_error)
        text = table2.render(rows)
        assert "ACP-SGD" in text


class TestFig2:
    @pytest.fixture(scope="class")
    def rows(self):
        return E.run_fig2()

    def test_render(self, rows):
        text = fig2.render(rows)
        assert "Sign-SGD" in text and "(OOM)" in text


class TestFig3:
    def test_breakdowns_well_formed(self):
        rows = E.run_fig3()
        assert len(rows) == 8
        for row in rows:
            bd = row.breakdown
            assert bd.ffbp > 0
            assert bd.ffbp + bd.compression + bd.comm_nonoverlap <= bd.total + 1e-9
        # S-SGD has no compression cost.
        for row in rows:
            if row.method == "ssgd":
                assert row.breakdown.compression == 0.0
        assert "Top-k SGD" in fig3.render(rows)


class TestFig5:
    def test_compressed_cdf_shift(self):
        """The shift renders at each model's threshold (its size is a claim
        row)."""
        data = E.run_fig5()
        text = fig5.render(data)
        assert "CDF" in text
        for item in data:
            assert f"+{item.increase:.0%}" in text

    def test_sizes_sorted_and_counted(self):
        data = E.run_fig5(models=("ResNet-50",))[0]
        assert list(data.uncompressed_sizes) == sorted(data.uncompressed_sizes)
        paper_millions = table1.PAPER_TABLE1["ResNet-50"][0]
        assert sum(data.uncompressed_sizes) == pytest.approx(
            paper_millions * 1e6, rel=0.01
        )


class TestFig8:
    def test_acpsgd_lowest_comm(self):
        """The breakdown renders (ACP-SGD's exposed communication against
        Power-SGD's is a claim row)."""
        rows = E.run_fig8()
        assert len(rows) == 8
        assert "Power-SGD*" in fig8.render(rows)


class TestFig10:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig10(buffers_mb=(0, 1, 25, 500, 1500))

    def test_render(self, rows):
        assert "ACP-SGD" in fig10.render(rows)


class TestFig11:
    """Both sweeps render; what they show is in the Fig. 11 claim rows."""

    def test_batch_size_effect(self):
        rows = run_fig11a()
        assert [r.batch_size for r in rows] == [16, 32]
        assert "ACP" in fig11.render_a(rows)

    def test_rank_effect(self):
        rows = run_fig11b(ranks=(32, 256))
        assert [r.rank for r in rows] == [32, 256]
        assert "rank" in fig11.render_b(rows)
