"""Shape-level model specs validated against the paper's Table I."""

import dataclasses

import pytest

from repro.compression.wire import compression_ratio
from repro.models import get_model_spec
from repro.models.registry import PAPER_RANKS
from repro.models.spec import LayerSpec, ModelSpec, TensorSpec, conv_layer


class TestParameterCounts:
    """Table I's #Param column (millions), within 1%."""

    @pytest.mark.parametrize(
        "name,paper_millions",
        [
            ("ResNet-50", 25.6),
            ("ResNet-152", 60.2),
            ("ResNet-18", 11.7),
            ("VGG-16", 138.4),
        ],
    )
    def test_vision_models(self, name, paper_millions):
        spec = get_model_spec(name)
        assert spec.num_parameters / 1e6 == pytest.approx(paper_millions, rel=0.01)

    @pytest.mark.parametrize(
        "name,paper_millions",
        [("BERT-Base", 110.1), ("BERT-Large", 336.2)],
    )
    def test_bert_models(self, name, paper_millions):
        # Our BERT counts exclude the MLM-head transform the paper's
        # checkpoint appears to include (~0.6M/1.1M); 1.5% tolerance.
        spec = get_model_spec(name)
        assert spec.num_parameters / 1e6 == pytest.approx(paper_millions, rel=0.015)


class TestCompressionRatios:
    """Table I's Power-SGD ratio column, within ~6%."""

    @pytest.mark.parametrize(
        "name,paper_ratio",
        [
            ("ResNet-50", 67),
            ("ResNet-152", 53),
            ("BERT-Base", 16),
            ("BERT-Large", 21),
        ],
    )
    def test_powersgd_ratio(self, name, paper_ratio):
        spec = get_model_spec(name)
        ratio = compression_ratio(
            spec.parameter_shapes(), "powersgd", rank=PAPER_RANKS[name]
        )
        assert ratio == pytest.approx(paper_ratio, rel=0.06)

    def test_acpsgd_ratio_is_double_powersgd(self):
        """ACP-SGD sends one factor per step — 2x the headline ratio (minus
        the uncompressed vector parameters)."""
        spec = get_model_spec("ResNet-50")
        shapes = spec.parameter_shapes()
        power = compression_ratio(shapes, "powersgd", rank=4)
        acp = compression_ratio(shapes, "acpsgd", rank=4)
        assert 1.5 * power < acp <= 2.0 * power


class TestStructure:
    def test_resnet50_tensor_count(self):
        """161 learnable tensors (53 convs + 106 BN affine + fc w/b) — the
        number of per-tensor all-reduces the paper's §IV-B anchor implies."""
        assert get_model_spec("ResNet-50").num_tensors == 161

    def test_backward_layers_reversed(self):
        spec = get_model_spec("ResNet-18")
        forward = [l.name for l in spec.layers]
        backward = [l.name for l in spec.backward_layers()]
        assert backward == forward[::-1]

    def test_flops_positive_and_scale_with_batch(self):
        spec = get_model_spec("ResNet-50")
        f32 = spec.forward_flops(32)
        f64 = spec.forward_flops(64)
        assert f32 > 0
        assert f64 == pytest.approx(2 * f32)
        assert spec.backward_flops(32) > f32  # BP ~2x FF

    def test_resnet50_flops_match_literature(self):
        """torchvision ResNet-50 ~ 4.09 GMACs = 8.2 GFLOPs per image."""
        spec = get_model_spec("ResNet-50")
        gflops = spec.forward_flops(1) / 1e9
        assert gflops == pytest.approx(8.2, rel=0.05)

    def test_bert_base_flops_scale(self):
        """~24 S H^2 L for the GEMMs at S=64: ~11 GFLOPs forward."""
        spec = get_model_spec("BERT-Base")
        gflops = spec.forward_flops(1) / 1e9
        assert 9 < gflops < 13

    def test_paper_batch_sizes(self):
        for name, batch in [("ResNet-50", 64), ("ResNet-152", 32),
                            ("BERT-Base", 32), ("BERT-Large", 8)]:
            assert get_model_spec(name).default_batch_size == batch

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model_spec("AlexNet")

    def test_one_spec_per_name(self):
        """The simulator's memo is keyed by spec identity."""
        assert get_model_spec("BERT-Base") is get_model_spec("BERT-Base")


class TestSpecPrimitives:
    def test_tensor_spec_size(self):
        t = TensorSpec("w", (4, 3, 2))
        assert t.size == 24
        assert t.nbytes == 96

    def test_conv_layer_flops(self):
        layer = conv_layer("c", 3, 8, 3, out_hw=10)
        assert layer.forward_flops == 2.0 * 100 * 8 * 3 * 9
        assert layer.backward_flops == 2 * layer.forward_flops

    def test_model_spec_totals(self):
        layer = LayerSpec("l", "gemm", (TensorSpec("w", (2, 2)),), 10.0)
        spec = ModelSpec("tiny", (layer,), 1)
        assert spec.num_parameters == 4
        assert spec.num_tensors == 1
        assert spec.parameter_bytes == 16
        # Cached totals stay out of equality and hashing, and a variant
        # computes its own.
        wider = dataclasses.replace(spec, layers=(layer, layer))
        assert (wider.num_parameters, wider.parameter_bytes) == (8, 32)
        assert wider.parameter_shapes() == [(2, 2), (2, 2)]
        fresh = ModelSpec("tiny", (layer,), 1)
        assert fresh == spec and hash(fresh) == hash(spec)
