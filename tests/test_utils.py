"""Utilities: seeding and formatting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import format_bytes, rank_rng, render_table


class TestSeeding:
    def test_spawn_decorrelated_and_deterministic(self):
        for rank in range(4):
            np.testing.assert_array_equal(
                rank_rng(7, rank).normal(size=5),
                rank_rng(7, rank).normal(size=5),
            )
        draws = [rank_rng(7, rank).normal(size=100) for rank in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                corr = np.corrcoef(draws[i], draws[j])[0, 1]
                assert abs(corr) < 0.35

    def test_spawn_validation(self):
        with pytest.raises(ValueError, match="rank"):
            rank_rng(0, -1)

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_rank_stream_is_the_seed_sequence_child(self, seed):
        """The process pool seeds every child from ``rank_rng`` and the
        trainer its in-process ranks; both equal the root's spawned child."""
        children = np.random.SeedSequence(seed).spawn(4)
        for rank in range(4):
            np.testing.assert_array_equal(
                rank_rng(seed, rank).random(16),
                np.random.default_rng(children[rank]).random(16),
            )


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
