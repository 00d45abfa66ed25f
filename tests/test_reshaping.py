"""Gradient-to-matrix reshaping rules (§IV-C)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.reshaping import (
    grad_to_matrix,
    matrix_view_shape,
    should_compress,
)
from repro.compression.wire import low_rank_split


class TestShouldCompress:
    def test_vectors_never_compressed(self):
        assert not should_compress(())
        assert not should_compress((64,))

    def test_matrices_compressed(self):
        assert should_compress((64, 64))
        assert should_compress((64, 3, 7, 7))

    def test_factored_only_where_it_shrinks(self):
        # 4 x 4 at rank 4 would send 32 factor elements for 16: it stays
        # plain, while 100 x 100 sends 800 for 10 000.
        factored, plain = low_rank_split([(4, 4), (100, 100)], rank=4)
        assert factored == {1: (100, 100, 4)}
        assert plain == [0]


class TestMatrixView:
    def test_conv_flattening(self):
        assert matrix_view_shape((64, 3, 7, 7)) == (64, 147)

    def test_linear_identity(self):
        assert matrix_view_shape((128, 256)) == (128, 256)

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            matrix_view_shape((5,))

    def test_roundtrip(self, rng):
        grad = rng.normal(size=(8, 3, 3, 3))
        matrix = grad_to_matrix(grad)
        assert matrix.shape == (8, 27)
        back = matrix.reshape(8, 3, 3, 3)
        np.testing.assert_array_equal(back, grad)

    @settings(max_examples=30, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
        seed=st.integers(0, 1000),
    )
    def test_property_roundtrip_preserves_values(self, dims, seed):
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=tuple(dims))
        back = grad_to_matrix(grad).reshape(dims)
        np.testing.assert_array_equal(back, grad)
