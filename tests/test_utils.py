"""Utilities: seeding and formatting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import format_bytes, render_table, spawn_rngs


class TestSeeding:
    def test_spawn_decorrelated_and_deterministic(self):
        rngs1 = spawn_rngs(7, 4)
        rngs2 = spawn_rngs(7, 4)
        for r1, r2 in zip(rngs1, rngs2):
            np.testing.assert_array_equal(r1.normal(size=5), r2.normal(size=5))
        draws = [r.normal(size=100) for r in spawn_rngs(7, 4)]
        for i in range(4):
            for j in range(i + 1, 4):
                corr = np.corrcoef(draws[i], draws[j])[0, 1]
                assert abs(corr) < 0.35

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)


class TestFormatting:
    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(25 * 1024 * 1024) == "25.00MB"
        assert format_bytes(3 * 1024**3) == "3.00GB"

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_render_table_validates_row_width(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [["1"]])

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.text(alphabet="abc123", max_size=8), min_size=2, max_size=2),
            min_size=1, max_size=6,
        )
    )
    def test_property_render_table_line_count(self, rows):
        text = render_table(["x", "y"], rows)
        assert len(text.splitlines()) == 2 + len(rows)
