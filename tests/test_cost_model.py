"""Alpha-beta cost model: formulas, monotonicity, the paper's link presets."""

import pytest

from repro.comm.cost_model import (
    LinkSpec,
    allgather_time,
    allreduce_time,
    point_to_point_time,
)
from repro.experiments.claims import CLAIMS
from repro.models import get_model_spec
from repro.sim.calibration import LINK_10GBE, LINK_1GBE, LINK_100GBIB


class TestFormulas:
    def test_point_to_point(self):
        link = LinkSpec("test", alpha=1e-3, beta=1e6, nominal_gbps=0.008)
        assert point_to_point_time(0, link) == 0.0
        assert point_to_point_time(1e6, link) == pytest.approx(1e-3 + 1.0)

    def test_allreduce_zero_cases(self):
        assert allreduce_time(1024, 1, LINK_10GBE) == 0.0
        assert allreduce_time(0, 8, LINK_10GBE) == 0.0

    def test_allreduce_formula(self):
        link = LinkSpec("test", alpha=1e-4, beta=1e9, nominal_gbps=8)
        p, n = 4, 1e6
        expected = 2 * 3 * 1e-4 + 2 * n * 3 / (4 * 1e9)
        assert allreduce_time(n, p, link) == pytest.approx(expected)

    def test_allgather_linear_in_world(self):
        t8 = allgather_time(1e6, 8, LINK_10GBE)
        t16 = allgather_time(1e6, 16, LINK_10GBE)
        assert t16 > 1.8 * t8

    def test_allreduce_bandwidth_term_saturates_with_world(self):
        """Ring all-reduce bandwidth term ~ constant in p (the key scaling
        property, Table II)."""
        big = 1e9  # 1GB: bandwidth dominated
        t8 = allreduce_time(big, 8, LINK_10GBE)
        t64 = allreduce_time(big, 64, LINK_10GBE)
        assert t64 / t8 < 1.2

    def test_monotone_in_bytes(self):
        assert allreduce_time(2e6, 8, LINK_10GBE) > allreduce_time(1e6, 8, LINK_10GBE)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            allreduce_time(-1, 8, LINK_10GBE)
        with pytest.raises(ValueError):
            allreduce_time(10, 0, LINK_10GBE)
        with pytest.raises(ValueError):
            allgather_time(-5, 4, LINK_10GBE)
        with pytest.raises(ValueError):
            point_to_point_time(-1, LINK_10GBE)

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", alpha=-1e-6, beta=1e9, nominal_gbps=10)
        with pytest.raises(ValueError):
            LinkSpec("bad", alpha=1e-6, beta=0, nominal_gbps=10)


class TestPaperAnchors:
    """The link presets of the paper's testbeds. The paper's own
    micro-measurements on them (§II-A.3, §IV-B) are rows of
    ``repro.experiments.claims``, checked by ``tests/test_paper_reproduction.py``;
    the tests here read their bounds from those rows.
    """

    def test_resnet50_fused_allreduce_near_169ms(self):
        """ResNet-50's gradients (97.49 MiB) in one all-reduce over 32 ranks
        on 10GbE, priced by the cost model alone, meet the §IV-B fused row."""
        nbytes = sum(t.nbytes for t in get_model_spec("ResNet-50").tensors())
        row = next(c for c in CLAIMS if c.source == "§IV-B")
        ms = allreduce_time(nbytes, 32, LINK_10GBE) * 1e3
        assert row.holds(ms), f"{ms:.4g} ms outside {row.bounds}"

    def test_bandwidth_ordering_of_presets(self):
        nbytes = 100e6
        t1 = allreduce_time(nbytes, 32, LINK_1GBE)
        t10 = allreduce_time(nbytes, 32, LINK_10GBE)
        t100 = allreduce_time(nbytes, 32, LINK_100GBIB)
        assert t1 > 5 * t10 > 5 * t100
