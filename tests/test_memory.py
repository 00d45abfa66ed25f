"""GPU memory model: the Sign-SGD OOM pattern and general sanity."""

import pytest

from repro.models import get_model_spec
from repro.models.registry import PAPER_RANKS
from repro.sim.memory import (
    GiB,
    RTX2080TI_MEMORY_BYTES,
    estimate_memory,
    memory_report,
)


def _estimate(method, model_name, world=32):
    spec = get_model_spec(model_name)
    return estimate_memory(
        method, spec, spec.default_batch_size, world,
        rank=PAPER_RANKS[model_name],
    )


class TestPaperOOMPattern:
    """§III-B: Sign-SGD OOMs on BERT-Large; everything else runs."""

    def test_signsgd_ooms_only_on_bert_large(self):
        assert not _estimate("signsgd", "BERT-Large").fits()
        assert _estimate("signsgd", "BERT-Base").fits()
        assert _estimate("signsgd", "ResNet-50").fits()

    @pytest.mark.parametrize(
        "model", ["ResNet-50", "ResNet-152", "BERT-Base", "BERT-Large"]
    )
    @pytest.mark.parametrize("method", ["ssgd", "topk", "powersgd", "acpsgd"])
    def test_all_other_configurations_fit(self, model, method):
        assert _estimate(method, model).fits(), (model, method)

    def test_signsgd_gather_scales_with_world_size(self):
        small = _estimate("signsgd", "BERT-Large", world=4)
        large = _estimate("signsgd", "BERT-Large", world=32)
        assert large.communication_buffers > 3 * small.communication_buffers


class TestEstimates:
    def test_components_positive_and_total_consistent(self):
        est = _estimate("acpsgd", "ResNet-50")
        assert est.weights > 0 and est.activations > 0
        assert est.total == pytest.approx(
            est.weights + est.gradients + est.optimizer_state
            + est.activations + est.compression_buffers
            + est.communication_buffers
        )

    def test_activations_scale_with_batch(self):
        spec = get_model_spec("ResNet-50")
        small = estimate_memory("ssgd", spec, 16, 32)
        large = estimate_memory("ssgd", spec, 64, 32)
        assert large.activations == pytest.approx(4 * small.activations)

    def test_resnet50_total_plausible(self):
        """bs=64 ResNet-50 training peaks ~7-10GB on an 11GB card — the
        config the paper actually ran."""
        est = _estimate("ssgd", "ResNet-50")
        assert 5 * GiB < est.total < RTX2080TI_MEMORY_BYTES

    def test_acpsgd_comm_buffers_smaller_than_powersgd(self):
        acp = _estimate("acpsgd", "BERT-Large")
        power = _estimate("powersgd", "BERT-Large")
        assert acp.communication_buffers < power.communication_buffers

    def test_memory_report_covers_methods(self):
        spec = get_model_spec("ResNet-18")
        report = memory_report(spec, 32, 8, rank=4)
        assert set(report) == {"ssgd", "signsgd", "topk", "powersgd", "acpsgd"}

    def test_validation(self):
        spec = get_model_spec("ResNet-18")
        with pytest.raises(ValueError):
            estimate_memory("ssgd", spec, 0, 8)
        with pytest.raises(ValueError, match="unknown method"):
            estimate_memory("zip", spec, 8, 8)
