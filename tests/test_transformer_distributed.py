"""Integration: distributed training of the transformer workload.

Exercises the low-rank aggregators on exactly the matrix families the
paper compresses for BERT (attention H x H, FFN H x 4H, embeddings V x H),
at miniature scale.
"""

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.compression.wire import low_rank_split
from repro.models.transformer import make_tiny_bert
from repro.optim.aggregators import make_aggregator
from repro.optim.sgd import SGD
from repro.train.datasets import make_token_classification
from repro.train.trainer import DataParallelTrainer


def _make_trainer(method, **agg_kwargs):
    train_data, test_data = make_token_classification(
        num_train=640, num_test=160, vocab_size=32, seq_len=12,
        num_classes=4, seed=9,
    )
    model = make_tiny_bert(
        vocab_size=32, hidden=16, num_layers=1, num_heads=2, max_seq=12,
        num_classes=4, rng=np.random.default_rng(3),
    )
    group = ProcessGroup(2)
    aggregator = make_aggregator(method, group, **agg_kwargs)
    optimizer = SGD(model, lr=0.1, momentum=0.9)
    trainer = DataParallelTrainer(
        model, optimizer, aggregator, train_data, test_data,
        batch_size_per_worker=32, seed=4,
    )
    return trainer, group


class TestTransformerDistributed:
    def test_ssgd_learns_sequences(self):
        trainer, _ = _make_trainer("ssgd")
        for _ in range(30):
            trainer.train_step()
        assert trainer.evaluate() > 0.5  # chance = 0.25

    def test_acpsgd_learns_sequences(self):
        trainer, group = _make_trainer("acpsgd", rank=4)
        for _ in range(30):
            trainer.train_step()
        assert trainer.evaluate() > 0.5
        assert group.total_bytes() > 0

    def test_acpsgd_compresses_transformer_traffic(self):
        """ACP-SGD must move far fewer bytes than S-SGD on the same model."""
        ssgd_trainer, ssgd_group = _make_trainer("ssgd")
        acp_trainer, acp_group = _make_trainer("acpsgd", rank=2)
        for _ in range(4):
            ssgd_trainer.train_step()
            acp_trainer.train_step()
        assert acp_group.total_bytes() < 0.5 * ssgd_group.total_bytes()

    def test_attention_matrices_are_compressed(self):
        """The aggregator must treat H x H attention weights as compressible."""
        trainer, _ = _make_trainer("acpsgd", rank=2)
        layout = trainer._arena.layout
        factored, plain = low_rank_split(
            [layout.shapes[n] for n in layout.names], trainer.aggregator.rank
        )
        compressible = [layout.names[i] for i in factored]
        plain = [layout.names[i] for i in plain]
        assert any("attention" in name for name in compressible)
        assert any("bias" in name for name in plain)
