"""Full-report renderer (fast path)."""

from repro.experiments import claims
from repro.experiments.report import render_full_report


class TestReport:
    def test_fast_report_contains_every_artifact(self):
        lines = []
        render_full_report(fast=True, emit=lines.append)
        text = "\n".join(lines)
        for artifact in ("Table I", "Table II", "Table III", "Fig. 2",
                         "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 8", "Fig. 9",
                         "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13",
                         "Paper claims"):
            assert artifact in text, artifact
        # Fast mode skips the convergence figures.
        assert "Fig. 6" not in text
        assert "ACP-SGD mean speedups" in text
        assert claims.render() in text  # one line per claim row

    def test_emit_receives_only_strings(self):
        seen = []
        render_full_report(fast=True, emit=seen.append)
        assert all(isinstance(item, str) for item in seen)
