"""The hot ``repro.nn`` kernels against loop references and finite differences.

Conv2d (slice-copy batch-major im2col, one forward GEMM per batch, the
input gradient as per-tap GEMMs folded channels-last), MaxPool2d (tiled and
general geometry), AvgPool2d, BatchNorm2d and ReLU are checked here against
naive loop implementations and central differences over the geometries the
bundled models never exercise (odd strides, over-padding, inputs the stride
does not divide), Conv2d also against the sample-major formulation it
replaced (``tests/reference_conv.py``, byte for byte on the benchmark's VGG
layers), plus the allocation guard that keeps a reintroduced transpose-copy
from passing unnoticed.
"""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.models.convnets import make_small_resnet
from repro.nn import functional as F
from repro.perf.arena import GradientArena
from tests import reference_conv
from tests.gradcheck import check_layer_gradients
from tests.test_lowrank_kernels import WIDTHS, product_heights, slot_storage


def naive_conv(x, weight, bias, stride, padding):
    """Direct loop convolution: ``(out, padded input)``."""
    n, _, h, w = x.shape
    out_c, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, out_c, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            patch = xp[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            out[:, :, i, j] = np.tensordot(patch, weight, axes=([1, 2, 3], [1, 2, 3]))
    if bias is not None:
        out += bias[None, :, None, None]
    return out, xp


def naive_conv_backward(xp, weight, grad_output, stride, padding, input_hw):
    """Loop adjoint of :func:`naive_conv`: ``(grad_input, grad_weight)``."""
    kh, kw = weight.shape[2:]
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(weight)
    for i in range(grad_output.shape[2]):
        for j in range(grad_output.shape[3]):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
            g = grad_output[:, :, i, j]
            grad_w += np.tensordot(g, xp[:, :, rows, cols], axes=([0], [0]))
            grad_xp[:, :, rows, cols] += np.tensordot(g, weight, axes=([1], [0]))
    h, w = input_hw
    return grad_xp[:, :, padding : padding + h, padding : padding + w], grad_w


def naive_pool(x, k, stride, padding, mode):
    """Loop max/avg pooling with first-max gradient routing.

    Returns ``(out, backward)`` where ``backward(grad_output)`` is the input
    gradient. Average pooling pads with zeros that count toward the mean,
    as the layer does. Max pooling pads with ``-inf`` where the layer pads
    with zeros, so padded max-pool cases must use positive inputs.
    """
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    fill = 0.0 if mode == "avg" else -np.inf
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x, pad, constant_values=fill)
    out = np.zeros((n, c, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            window = xp[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            flat = window.reshape(n, c, -1)
            out[:, :, i, j] = flat.mean(axis=2) if mode == "avg" else flat.max(axis=2)

    def backward(grad_output):
        grad_xp = np.zeros_like(xp)
        for i in range(out_h):
            for j in range(out_w):
                rows = slice(i * stride, i * stride + k)
                cols = slice(j * stride, j * stride + k)
                g = grad_output[:, :, i, j]
                if mode == "avg":
                    grad_xp[:, :, rows, cols] += g[:, :, None, None] / (k * k)
                    continue
                flat = xp[:, :, rows, cols].reshape(n, c, -1)
                hit = np.zeros_like(flat)
                np.put_along_axis(hit, flat.argmax(axis=2)[:, :, None], 1.0, axis=2)
                grad_xp[:, :, rows, cols] += hit.reshape(n, c, k, k) * g[:, :, None, None]
        return grad_xp[:, :, padding : padding + h, padding : padding + w]

    return out, backward


CONV_GEOMETRIES = [
    (k, s, p) for k in (1, 3, 5) for s in (1, 2, 3) for p in (0, 1, 2)
]


class TestConv2dGeometries:
    """7x6 inputs: non-square, and most strides leave unread trailing rows."""

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("kernel,stride,padding", CONV_GEOMETRIES)
    def test_gradcheck(self, rng, kernel, stride, padding, bias):
        layer = nn.Conv2d(
            2, 3, kernel, stride=stride, padding=padding, bias=bias, rng=rng
        )
        check_layer_gradients(layer, rng.normal(size=(2, 2, 7, 6)))

    @pytest.mark.parametrize("kernel,stride,padding", CONV_GEOMETRIES)
    def test_matches_loop_convolution(self, rng, kernel, stride, padding):
        layer = nn.Conv2d(
            3, 4, kernel, stride=stride, padding=padding, rng=rng
        ).astype(np.float64)
        layer.bias.data = rng.normal(size=4)
        x = rng.normal(size=(2, 3, 7, 6))
        out = layer(x)
        ref_out, xp = naive_conv(x, layer.weight.data, layer.bias.data, stride, padding)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)

        grad_output = rng.normal(size=out.shape)
        grad_input = layer.backward(grad_output)
        ref_gi, ref_gw = naive_conv_backward(
            xp, layer.weight.data, grad_output, stride, padding, x.shape[2:]
        )
        np.testing.assert_allclose(grad_input, ref_gi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.weight.grad, ref_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            layer.bias.grad, grad_output.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12
        )

    def test_unread_trailing_rows_get_zero_gradient(self, rng):
        """(7 - 3) % 3 = 1 and (6 - 3) % 2 = 1: the last row / column of the
        input is outside every window, so its gradient is exactly zero."""
        for stride, unread in ((3, (slice(6, 7), slice(None))),
                               (2, (slice(None), slice(5, 6)))):
            layer = nn.Conv2d(2, 3, 3, stride=stride, rng=rng)
            out = layer(rng.normal(size=(2, 2, 7, 6)))
            grad_input = layer.backward(np.ones_like(out))
            assert np.all(grad_input[(slice(None), slice(None)) + unread] == 0.0)
            assert np.all(grad_input[:, :, :6, :5] != 0.0)

    def test_im2col_col2im_are_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> for every geometry."""
        x = rng.normal(size=(2, 3, 7, 6))
        for kernel, stride, padding in CONV_GEOMETRIES:
            cols = F.im2col(x, (kernel, kernel), stride, padding)
            y = rng.normal(size=cols.shape)
            folded = F.col2im(y, x.shape, (kernel, kernel), stride, padding)
            np.testing.assert_allclose((cols * y).sum(), (x * folded).sum(), rtol=1e-12)


def vgg_conv_layers(base_width):
    """``(in, out, side)`` of ``make_small_vgg``'s five 3x3, pad-1 convs on
    the 16x16 CIFAR-like images."""
    w = base_width
    return [(3, w, 16), (w, w, 16), (w, 2 * w, 8), (2 * w, 2 * w, 8),
            (2 * w, 4 * w, 4)]


class TestBatchMajorConvolution:
    """``Conv2d`` against the sample-major formulation it replaced.

    ``tests/reference_conv.py`` keeps the per-sample forward GEMMs, the
    ``w_mat^T @ g`` column gradient and ``col2im`` on sample-major columns.
    On the VGG layers of the benchmark (base width 32) and of
    ``scripts/check_determinism.py`` (base width 4), float32, batch 8, the
    batch-wide forward GEMM, the strided per-sample weight-gradient slices
    and the channels-last per-tap fold reproduce its bytes — except the
    3-channel first layer's input gradient at width 32, which training
    never forms (``worker_pass`` skips it): its per-tap GEMM is 3 columns
    wide and OpenBLAS rounds that tail differently from the old 27-row
    column gradient, so it is compared to rounding. Other geometries round
    differently in the last bits in places ("Bits" in docs/performance.md);
    the float64 loop reference in :class:`TestConv2dGeometries` is their
    correctness check.
    """

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("base_width", [32, 4])
    def test_vgg_layers_keep_the_old_bits(self, base_width, bias):
        rng = np.random.default_rng(base_width)
        for index, (cin, cout, hw) in enumerate(vgg_conv_layers(base_width)):
            layer = nn.Conv2d(cin, cout, 3, padding=1, bias=bias, rng=rng)
            b = None
            if bias:
                layer.bias.data[:] = rng.normal(size=cout)
                b = layer.bias.data
            x = rng.normal(size=(8, cin, hw, hw)).astype(np.float32)
            out = layer(x)
            grad = rng.normal(size=out.shape).astype(np.float32)
            grad_input = layer.backward(grad)
            want_out, cols = reference_conv.conv_forward(x, layer.weight.data, b, 1, 1)
            want_gi, want_gw, want_gb = reference_conv.conv_backward(
                cols, layer.weight.data, grad, x.shape, 1, 1
            )
            case = (base_width, cin, cout, hw)
            assert out.dtype == np.float32 and out.flags.c_contiguous, case
            assert grad_input.dtype == np.float32, case
            assert grad_input.flags.c_contiguous, case
            assert out.tobytes() == want_out.tobytes(), case
            assert layer.weight.grad.tobytes() == want_gw.tobytes(), case
            if bias:
                assert layer.bias.grad.tobytes() == want_gb.tobytes(), case
            if index == 0 and base_width == 32:
                np.testing.assert_allclose(grad_input, want_gi, rtol=1e-5, atol=1e-5)
            else:
                assert grad_input.tobytes() == want_gi.tobytes(), case


class TestMaxPool2dPaths:
    def _tiled_and_general(self, x, k, grad_output):
        """Pool ``x`` on the tiled path, and on the general path by appending
        one row and column that no window reaches."""
        tiled = nn.MaxPool2d(k)
        assert tiled._tiles(*x.shape[2:])
        out_t = tiled(x)
        grad_t = tiled.backward(grad_output)

        general = nn.MaxPool2d(k)
        wider = np.pad(x, ((0, 0), (0, 0), (0, 1), (0, 1)), constant_values=99.0)
        assert not general._tiles(*wider.shape[2:])
        out_g = general(wider)
        grad_g = general.backward(grad_output)
        for array in (out_t, grad_t, out_g, grad_g):
            assert array.flags.c_contiguous
        return out_t, grad_t, out_g, grad_g

    @pytest.mark.parametrize("k", [2, 3])
    def test_tiled_equals_general(self, rng, k):
        x = rng.normal(size=(2, 3, 2 * k, 3 * k))
        grad_output = rng.normal(size=(2, 3, 2, 3))
        out_t, grad_t, out_g, grad_g = self._tiled_and_general(x, k, grad_output)
        assert np.array_equal(out_t, out_g)
        assert np.array_equal(grad_t, grad_g[:, :, :-1, :-1])
        assert np.all(grad_g[:, :, -1, :] == 0.0) and np.all(grad_g[:, :, :, -1] == 0.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_ties_route_to_first_maximum(self, rng, k):
        """Small-integer inputs tie constantly; both paths must break ties
        like ``argmax`` (first in row-major window order)."""
        x = rng.integers(0, 3, size=(2, 3, 2 * k, 2 * k)).astype(np.float64)
        x[0, 0] = 1.0  # all-equal windows
        grad_output = rng.normal(size=(2, 3, 2, 2))
        out_t, grad_t, out_g, grad_g = self._tiled_and_general(x, k, grad_output)
        assert np.array_equal(out_t, out_g)
        assert np.array_equal(grad_t, grad_g[:, :, :-1, :-1])
        ref_out, ref_backward = naive_pool(x, k, k, 0, "max")
        assert np.array_equal(out_t, ref_out)
        assert np.array_equal(grad_t, ref_backward(grad_output))
        # An all-equal window sends its gradient to its first element only.
        assert np.array_equal(grad_t[0, 0, ::k, ::k], grad_output[0, 0])
        assert np.count_nonzero(grad_t[0, 0]) == 4

    @pytest.mark.parametrize(
        "shape,k,stride,padding",
        [
            ((2, 2, 7, 7), 3, 2, 0),  # overlapping
            ((2, 2, 6, 8), 3, 2, 1),  # overlapping + padded
            ((2, 2, 6, 6), 2, 2, 1),  # stride == kernel but padded
            ((2, 2, 7, 5), 2, 2, 0),  # stride == kernel, does not divide
            ((2, 2, 6, 6), 2, 1, 0),  # stride < kernel
        ],
    )
    def test_general_geometries(self, rng, shape, k, stride, padding):
        layer = nn.MaxPool2d(k, stride=stride, padding=padding)
        assert not layer._tiles(*shape[2:])
        # Strictly positive, so the layer's zero padding never wins a window.
        x = rng.uniform(1.0, 2.0, size=shape)
        out = layer(x)
        ref_out, ref_backward = naive_pool(x, k, stride, padding, "max")
        assert np.array_equal(out, ref_out) and out.flags.c_contiguous
        grad_output = rng.normal(size=out.shape)
        # Overlapping windows add into one input element in a different order.
        np.testing.assert_allclose(
            layer.backward(grad_output), ref_backward(grad_output), rtol=0, atol=1e-14
        )

    def test_gradcheck_both_paths(self, rng):
        check_layer_gradients(nn.MaxPool2d(2), rng.normal(size=(2, 2, 4, 6)))
        check_layer_gradients(nn.MaxPool2d(3, stride=2), rng.normal(size=(2, 2, 7, 6)))


class TestAvgPool2d:
    @pytest.mark.parametrize(
        "shape,k,stride,padding",
        [((2, 3, 4, 6), 2, 2, 0), ((2, 2, 7, 6), 3, 2, 1), ((1, 2, 5, 5), 2, 1, 0)],
    )
    def test_matches_loop_pooling(self, rng, shape, k, stride, padding):
        layer = nn.AvgPool2d(k, stride=stride, padding=padding)
        x = rng.normal(size=shape)
        out = layer(x)
        assert out.flags.c_contiguous
        ref_out, ref_backward = naive_pool(x, k, stride, padding, "avg")
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-14)
        grad_output = rng.normal(size=out.shape)
        np.testing.assert_allclose(
            layer.backward(grad_output), ref_backward(grad_output), rtol=0, atol=1e-14
        )

    def test_gradcheck_padded_overlapping(self, rng):
        check_layer_gradients(
            nn.AvgPool2d(3, stride=2, padding=1), rng.normal(size=(2, 2, 7, 6))
        )


class TestEvalModeKeepsNoBackwardState:
    def test_caches_stay_empty_and_backward_raises(self, rng):
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.MaxPool2d(2),               # tiled path
            nn.Conv2d(4, 4, 3, stride=2, rng=rng),
            nn.MaxPool2d(2, stride=1),     # general path
            nn.AvgPool2d(2),
        )
        model.eval()
        out = model(rng.normal(size=(2, 3, 16, 16)))
        for layer in model:
            if isinstance(layer, (nn.Conv2d, nn.MaxPool2d, nn.BatchNorm2d)):
                assert layer._cache is None, type(layer).__name__
            if isinstance(layer, nn.AvgPool2d):
                assert layer._input_shape is None
        for layer in (model[0], model[3], model[5], model[6]):
            with pytest.raises(RuntimeError, match="backward called before forward"):
                layer.backward(np.ones_like(out))

    def test_training_forward_after_eval_still_backpropagates(self, rng):
        layer = nn.Conv2d(2, 3, 3, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 5, 5))
        layer.eval()
        eval_out = layer(x)
        layer.train()
        assert np.array_equal(layer(x), eval_out)
        assert layer.backward(np.ones_like(eval_out)).shape == x.shape


class TestReLUNonFinite:
    def test_finite_inputs_equal_where(self, rng):
        x = rng.normal(size=(4, 5, 6))
        x[0, 0, :3] = [0.0, -0.0, 1e-300]
        layer = nn.ReLU()
        # ``==``: -0.0 and 0.0 compare equal, which is all that is promised.
        assert np.all(layer(x) == np.where(x > 0, x, 0.0))
        grad_output = rng.normal(size=x.shape)
        assert np.array_equal(
            layer.backward(grad_output), np.where(x > 0, grad_output, 0.0)
        )

    def test_non_finite_inputs_are_not_hidden(self):
        layer = nn.ReLU()
        out = layer(np.array([np.nan, -np.inf, np.inf, -1.0, 2.0]))
        assert np.isnan(out[0])
        assert np.array_equal(out[1:], [0.0, np.inf, 0.0, 2.0])
        grad = layer.backward(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert np.array_equal(grad, [0.0, 0.0, 3.0, 0.0, 5.0])


class TestBatchNorm2dStatistics:
    def test_large_mean_still_normalises(self, rng):
        """mean 1e6, unit variance: E[x^2] - E[x]^2 would lose every digit of
        the variance; the centred two-pass form does not."""
        layer = nn.BatchNorm2d(3, eps=0.0).astype(np.float64)
        x = rng.normal(loc=1e6, scale=1.0, size=(16, 3, 8, 8))
        out = layer(x)
        assert np.all(np.abs(out.mean(axis=(0, 2, 3))) < 1e-6)
        assert np.all(np.abs(out.var(axis=(0, 2, 3)) - 1.0) < 1e-6)
        np.testing.assert_allclose(
            layer.running_var, 0.9 + 0.1 * x.var(axis=(0, 2, 3)), rtol=1e-9
        )

    def test_recorded_stats_are_the_applied_stats(self, rng):
        x = rng.normal(loc=2.0, scale=3.0, size=(4, 3, 5, 5))
        direct = nn.BatchNorm2d(3)
        out_direct = direct(x)

        recording = nn.BatchNorm2d(3)
        recording.stat_recorder = []
        out_recording = recording(x)
        assert np.array_equal(out_direct, out_recording)
        assert np.array_equal(recording.running_mean, np.zeros(3))  # untouched

        (mean, var), = recording.stat_recorder
        np.testing.assert_allclose(mean, x.mean(axis=(0, 2, 3)), rtol=1e-13)
        np.testing.assert_allclose(var, x.var(axis=(0, 2, 3)), rtol=1e-13)
        recording.apply_batch_stats(mean, var)
        assert np.array_equal(recording.running_mean, direct.running_mean)
        assert np.array_equal(recording.running_var, direct.running_var)
        # ...and they are the statistics the forward normalised with.
        x_hat = (x - mean[None, :, None, None]) / np.sqrt(var + direct.eps)[None, :, None, None]
        np.testing.assert_allclose(out_direct, x_hat, rtol=0, atol=1e-13)


def test_small_resnet_end_to_end_gradcheck(rng):
    """Stride-2 3x3 convs, 1x1 stride-2 projection shortcuts, BatchNorm and
    ReLU composed: every parameter and the input against central differences."""
    model = make_small_resnet(num_classes=3, base_width=2, rng=rng)
    check_layer_gradients(
        model, rng.normal(size=(2, 3, 8, 8)), rtol=1e-4, atol=1e-6
    )


def _two_linears(seed):
    rng = np.random.default_rng(seed)
    # No first bias: the second weight starts at an odd slab offset (8- but
    # not 16-byte aligned), like most tensors of a real fused layout.
    return nn.Sequential(
        nn.Linear(5, 3, bias=False, rng=rng), nn.ReLU(), nn.Linear(3, 7, rng=rng)
    ).astype(np.float64)


class TestWeightGradientLandsInTheSlot:
    """The weight gradient computed into the slot == legacy storage, bit for bit."""

    @pytest.mark.parametrize("backing", ["private", "shared"])
    @pytest.mark.parametrize(
        "x_dtype,grad_dtype,x_shape",
        [
            (np.float64, np.float64, (4, 5)),
            (np.float32, np.float64, (4, 5)),  # a dataset's float32 batch
            (np.float32, np.float32, (4, 5)),
            (np.float64, np.float64, (2, 3, 5)),  # leading dims collapse
        ],
    )
    def test_slot_gradient_equals_legacy_gradient(
        self, rng, backing, x_dtype, grad_dtype, x_shape
    ):
        legacy, bound = _two_linears(1), _two_linears(1)
        arena = GradientArena(bound, 1, backing=backing)
        try:
            arena.bind(bound, 0)
            arena.slab(0)[:] = np.nan  # stale storage must be overwritten
            for micro_batch in range(2):  # the second must add, not overwrite
                x = rng.normal(size=x_shape).astype(x_dtype)
                grad = rng.normal(size=x_shape[:-1] + (7,)).astype(grad_dtype)
                for model in (legacy, bound):
                    model(x)
                    model.backward(grad)
                for (name, want), got in zip(
                    legacy.named_parameters(), bound.parameters()
                ):
                    assert got.grad.dtype == np.float64
                    assert got.grad.tobytes() == want.grad.tobytes(), (
                        name, micro_batch,
                    )
                    assert np.shares_memory(got.grad, arena.slab(0))
        finally:
            arena.close()

    @pytest.mark.parametrize("in_features", WIDTHS)
    @pytest.mark.parametrize("batch", [1, 4, 33])
    def test_blocked_gradient_sweep(self, in_features, batch):
        """Every block regime of the row-blocked product, in every storage.

        Output rows 1, 2, h − 1, h, h + 1 and 2h + 1 for block height h at
        this width; 2h + 1 ends in a one-row remainder, which must merge
        into the block before it. The slot (8- and 16-byte aligned), legacy
        storage and the second micro-batch's fresh product agree bit for
        bit; a plain ``@`` only to rounding, since BLAS may pick another
        kernel for the whole.
        """
        lead = {1: (1, 1), 4: (2, 2), 33: (3, 11)}[batch]
        variants = [  # (x dtype, grad dtype, leading dims of x, weight dtype)
            (np.float64, np.float64, (batch,), np.float64),
            (np.float32, np.float64, lead, np.float64),
            (np.float32, np.float32, lead, np.float64),
            (np.float32, np.float32, lead, np.float32),  # the trainer's
        ]
        rng = np.random.default_rng(batch * in_features)
        for out_features in product_heights(in_features)[1]:
            for x_dtype, grad_dtype, dims, w_dtype in variants:
                legacy = nn.Linear(
                    in_features, out_features, rng=np.random.default_rng(0)
                ).astype(w_dtype)
                bound = []
                for offset in (0, 1):
                    layer = nn.Linear(
                        in_features, out_features, rng=np.random.default_rng(0)
                    ).astype(w_dtype)
                    storage, slot = slot_storage(
                        (out_features, in_features), offset, w_dtype
                    )
                    layer.weight.attach_grad_slot(slot)
                    bound.append((layer, storage))
                expected = 0.0
                for micro_batch in range(2):
                    x = rng.normal(size=dims + (in_features,)).astype(x_dtype)
                    grad = rng.normal(size=dims + (out_features,)).astype(grad_dtype)
                    for layer in [legacy] + [layer for layer, _ in bound]:
                        layer(x)
                        layer.backward(grad)
                    flat_grad = grad.reshape(-1, out_features)
                    expected = expected + flat_grad.T @ x.reshape(-1, in_features)
                    want = legacy.weight.grad
                    case = (out_features, x_dtype.__name__, grad_dtype.__name__, micro_batch)
                    for layer, storage in bound:
                        got = layer.weight.grad
                        assert np.shares_memory(got, storage)
                        assert got.tobytes() == want.tobytes(), case
                    rtol = 1e-13 if flat_grad.dtype == np.float64 else 1e-6
                    np.testing.assert_allclose(want, expected, rtol=rtol, atol=1e-12)

    def test_layer_is_handed_the_slot_once_per_step(self, rng, monkeypatch):
        """A step's first weight-gradient product is formed in the slot; a
        later one (a second backward before ``zero_grad``, or any into a
        carried error-feedback slot) in block scratch added onto it."""
        model = _two_linears(2)
        arena = GradientArena(model, 1)
        arena.bind(model, 0)
        real_matmul, outs = np.matmul, []

        def spy(a, b, out=None, **kwargs):
            outs.append(out)
            return real_matmul(a, b, out=out, **kwargs)

        def into_slots():
            """Per blocked product of one backward: was it formed in the slab?"""
            outs.clear()
            model(rng.normal(size=(2, 5)))
            model.backward(rng.normal(size=(2, 7)))
            return {np.shares_memory(out, arena.slab(0)) for out in outs}

        monkeypatch.setattr(np, "matmul", spy)
        assert into_slots() == {True}
        assert into_slots() == {False}  # written: later passes add
        model.zero_grad()
        assert into_slots() == {True}
        arena.carry(name for name, _ in model.named_parameters())
        arena.bind(model, 0)
        assert into_slots() == {False}  # a residual is never overwritten
        model.zero_grad()
        assert into_slots() == {False}


class TestWeightIsTheLeftOperand:
    """``Linear`` forms ``W x^T`` and ``Conv2d``'s weight gradient ``col g^T``.

    Those are the orientations BLAS streams fastest for a thin batch, and
    each output element is the dot product the textbook ``x W^T`` /
    ``g col^T`` forms, so the bits are theirs. Pinned here so a BLAS that
    rounds the two orientations differently fails in this file (which the
    oldest-numpy CI job runs too) instead of moving the float32 digests of
    the trainer silently. OpenBLAS 0.3.31's float64 kernels (AVX-512) do
    round them differently from 12 batch rows on, at output widths of 193
    or more that are not a multiple of 8: float64 at 16 rows, a gradcheck
    and exact-reference dtype only, is compared to rounding.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(1,), (2,), (4,), (2, 8)])
    def test_linear_forward_is_the_textbook_product(self, dtype, lead):
        rng = np.random.default_rng(len(lead) * 10 + lead[-1])
        rows = int(np.prod(lead))
        for in_features in (3, 255, 767, 1023, 1024):
            for out_features in (1, 10, 255, 767, 1023, 1024):
                layer = nn.Linear(in_features, out_features, rng=rng).astype(dtype)
                layer.bias.data[:] = rng.normal(size=out_features)
                x = rng.normal(size=lead + (in_features,)).astype(dtype)
                out = layer(x)
                want = x @ layer.weight.data.T + layer.bias.data
                case = (dtype.__name__, lead, in_features, out_features)
                assert out.shape == want.shape and out.dtype == dtype, case
                assert out.flags.c_contiguous, case
                if dtype == np.float32 or rows <= 4:
                    assert out.tobytes() == want.tobytes(), case
                else:
                    np.testing.assert_allclose(out, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_weight_gradient_is_the_per_sample_sum(self, dtype):
        """The five conv layers of the benchmark's VGG at base width 32."""
        rng = np.random.default_rng(7)
        for cin, cout, hw in [(3, 32, 16), (32, 32, 16), (32, 64, 8),
                              (64, 64, 8), (64, 128, 4)]:
            layer = nn.Conv2d(cin, cout, 3, padding=1, bias=False, rng=rng)
            layer = layer.astype(dtype)
            x = rng.normal(size=(8, cin, hw, hw)).astype(dtype)
            grad = rng.normal(size=(8, cout, hw, hw)).astype(dtype)
            layer(x)
            layer.backward(grad, need_input_grad=False)
            # Sample i's columns, copied out of the batch-major buffer.
            cols = F.im2col(x, (3, 3), 1, 1).reshape(cin * 9, 8, -1)
            want = sum(
                g @ np.ascontiguousarray(cols[:, i]).T
                for i, g in enumerate(grad.reshape(8, cout, -1))
            )
            got = layer.weight.grad
            assert got.tobytes() == want.reshape(got.shape).tobytes(), (cin, cout)


class TestFirstLayerSkipsItsInputGradient:
    def _models(self, rng):
        conv = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
            nn.Flatten(), nn.Linear(4 * 4 * 4, 5, rng=rng),
        )
        return [
            (_two_linears(3), rng.normal(size=(4, 5)), rng.normal(size=(4, 7))),
            (conv, rng.normal(size=(2, 3, 8, 8)), rng.normal(size=(2, 5))),
        ]

    def test_parameter_gradients_are_bit_equal_without_it(self, rng):
        for model, x, grad in self._models(rng):
            model(x)
            grad_input = model.backward(grad)
            assert grad_input.shape == x.shape  # the default contract
            want = [param.grad.copy() for param in model.parameters()]
            model.zero_grad()
            model(x)
            assert model.backward(grad, need_input_grad=False) is None
            for param, expected in zip(model.parameters(), want):
                assert param.grad.tobytes() == expected.tobytes(), param.name

    def test_a_first_layer_that_cannot_skip_still_runs(self, rng):
        model = nn.Sequential(nn.ReLU(), nn.Linear(5, 3, rng=rng))
        x = rng.normal(size=(2, 5))
        model(x)
        out = model.backward(rng.normal(size=(2, 3)), need_input_grad=False)
        assert out.shape == x.shape
        assert model[1].weight.grad is not None
        assert nn.Sequential().backward(x, need_input_grad=False) is x

    def test_worker_pass_skips_it_and_keeps_the_gradients(self, rng):
        from repro.nn.loss import CrossEntropyLoss
        from repro.perf.replicas import worker_pass
        from repro.train.datasets import ArrayDataset

        shard = ArrayDataset(rng.normal(size=(16, 5)), rng.integers(0, 7, size=16))
        model, seen = _two_linears(4), []
        first_backward = model[0].backward

        def spy(grad, **kwargs):
            seen.append(kwargs)
            return first_backward(grad, **kwargs)

        model[0].backward = spy
        worker_pass(model, CrossEntropyLoss(), shard, np.random.default_rng(0), 4)
        assert seen == [{"need_input_grad": False}]
        got = [param.grad.copy() for param in model.parameters()]
        del model[0].backward
        inputs, labels = shard.batch(np.random.default_rng(0), 4)
        loss_fn = CrossEntropyLoss()
        model.zero_grad()
        loss_fn(model(inputs), labels)
        model.backward(loss_fn.backward())
        for param, expected in zip(model.parameters(), got):
            assert param.grad.tobytes() == expected.tobytes(), param.name


def _peak_bytes(layer, x):
    """tracemalloc peak of one forward + backward (after a warm-up pass)."""
    grad_output = np.ones_like(layer(x))
    layer.backward(grad_output)
    tracemalloc.start()
    try:
        layer(x)
        layer.backward(grad_output)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.perf
class TestKernelAllocationGuard:
    """Peak traced bytes of one forward + backward, counted, not timed.

    Recorded on (8, 32, 16, 16) float64 input (python 3.11, numpy 2.4):

    ========================  =============  =============  =============  =====
    layer                     with copies    sample-major   batch-major    bound
    ========================  =============  =============  =============  =====
    Conv2d(32, 32, 3, pad=1)  2.31 x cols    1.185 x cols   1.222 x cols   1.6 x
    MaxPool2d(2)              2.88 x input   1.44 x input   1.44 x input   2.0 x
    ========================  =============  =============  =============  =====

    "cols" is the im2col buffer (8 x 288 x 256 float64 = 4.7 MB), which
    the forward must keep for the backward. "with copies" is the kernels
    before the transpose-copies went; "sample-major" the ``(N, F, L)``
    columns with per-sample forward GEMMs and a ``col2im`` input gradient;
    "batch-major" the ``(F, N*L)`` columns of today, whose forward holds the
    columns, the ``(out_c, N*L)`` product and its NCHW copy at once
    (1 + 2/9 cols), while its input gradient needs no column-sized buffer.
    One more copy of the columns — a padded input plus a transposed
    operand, a reshape of a strided view, columns and column gradients
    alive together — lands at 2 x or more.
    """

    def test_conv_peak_is_one_column_buffer(self, rng):
        x = rng.normal(size=(8, 32, 16, 16))
        layer = nn.Conv2d(32, 32, 3, padding=1, rng=rng)
        columns = 8 * (32 * 9) * (16 * 16) * 8
        assert _peak_bytes(layer, x) < 1.6 * columns

    def test_maxpool_peak_is_under_two_inputs(self, rng):
        x = rng.normal(size=(8, 32, 16, 16))
        assert _peak_bytes(nn.MaxPool2d(2), x) < 2.0 * x.nbytes
