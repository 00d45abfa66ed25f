"""The paper's claims the simulator and the cost model reproduce, one row each.

Every reader of a paper anchor reads it here: the tier-1 claim test
(``tests/test_paper_reproduction.py``), the render footers of
:mod:`~repro.experiments.table3` and :mod:`~repro.experiments.fig12`, the
"Paper claims" section of the full report and EXPERIMENTS.md's claims
block, which holds :func:`render`'s output verbatim.

A row is a :class:`Claim`: where the paper makes it, what it says, the
paper's number (``None`` where the claim is an ordering), the bounds the
reproduced value must sit in, the zero-argument function that computes
that value from the experiment drivers, and its role. A value near the
paper's number has the closed bounds of ``pytest.approx(paper, rel)``
(:func:`_near`). An ordering or a crossover is its smallest margin as a
ratio, with a lower bound of 1.

The role separates the anchors the calibration constants were pinned to
(``"calibration"``: the §II-A.3, §IV-B and §III-C micro-measurements) from
the claims they were not (``"held-out"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.comm.cost_model import allreduce_time
from repro.experiments.common import METHOD_LABELS, TIMING_MODELS, paper_rank
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11a, run_fig11b
from repro.experiments.fig12 import run_fig12, scaling_increase
from repro.experiments.fig13 import run_fig13
from repro.experiments.microbench import (
    run_contention_microbench,
    run_fusion_microbench,
)
from repro.experiments.table3 import (
    PAPER_TABLE3,
    average_speedups,
    run_table3,
)
from repro.models import get_model_spec
from repro.sim.calibration import LINK_10GBE
from repro.sim.memory import RTX2080TI_MEMORY_BYTES, memory_report

CALIBRATION = "calibration"
HELD_OUT = "held-out"


@dataclass(frozen=True)
class Claim:
    """One paper anchor and the bounds its reproduced value must meet.

    ``low`` / ``high`` are ``None`` where the claim has no bound on that
    side; ``closed`` says whether the given bounds include their ends.
    """

    source: str
    statement: str
    paper: Optional[float]
    low: Optional[float]
    high: Optional[float]
    closed: bool
    value: Callable[[], float]
    role: str

    def holds(self, value: float) -> bool:
        """Whether ``value`` sits inside the bounds."""
        if self.closed:
            return ((self.low is None or value >= self.low)
                    and (self.high is None or value <= self.high))
        return ((self.low is None or value > self.low)
                and (self.high is None or value < self.high))

    @property
    def bounds(self) -> str:
        """The bounds as text: ``[a, b]``, ``(a, b)``, ``>= a``, ``< b``..."""
        if self.low is not None and self.high is not None:
            left, right = "[]" if self.closed else "()"
            return f"{left}{self.low:g}, {self.high:g}{right}"
        if self.low is not None:
            return f"{'>=' if self.closed else '>'} {self.low:g}"
        return f"{'<=' if self.closed else '<'} {self.high:g}"


def _near(source: str, statement: str, paper: float, rel: float,
          value: Callable[[], float], role: str = HELD_OUT) -> Claim:
    """A value within ``rel`` of the paper's: ``pytest.approx(paper, rel)``."""
    return Claim(source, statement, paper, paper - rel * paper,
                 paper + rel * paper, True, value, role)


# --- the reproduced values --------------------------------------------------


def _allreduce_ms(nbytes: float) -> float:
    """One all-reduce on the paper's testbed: 32 ranks over 10GbE."""
    return allreduce_time(nbytes, 32, LINK_10GBE) * 1e3


def _fits_margin() -> float:
    """Sign-SGD on BERT-Large is the one configuration past the 11 GB card:
    its estimate over the card, and the card over every other estimate
    (``memory_report``'s five methods on the four timing models)."""
    margins = []
    for name in TIMING_MODELS:
        spec = get_model_spec(name)
        report = memory_report(spec, spec.default_batch_size, 32,
                               rank=paper_rank(name))
        for method, estimate in report.items():
            if (name, method) == ("BERT-Large", "signsgd"):
                margins.append(estimate.total / RTX2080TI_MEMORY_BYTES)
            else:
                margins.append(RTX2080TI_MEMORY_BYTES / estimate.total)
    return min(margins)


def _fig2_ratio(model: str, method: str) -> float:
    """``method``'s time over S-SGD's on ``model`` (Fig. 2)."""
    return next(row.ratio_to_ssgd(method) for row in run_fig2()
                if row.model == model)


def _fig3_bert_ratio(part: str, method: str, baseline: str) -> float:
    """One breakdown part of ``method`` over ``baseline``'s (BERT-Base)."""
    parts = {row.method: getattr(row.breakdown, part) for row in run_fig3()
             if row.model == "BERT-Base"}
    return parts[method] / parts[baseline]


def _table3() -> Dict[str, Dict[str, float]]:
    return {row.model: row.times_ms for row in run_table3()}


def _cell_ratios() -> List[float]:
    """Simulated over paper time of each of Table III's 16 cells."""
    return [sim / PAPER_TABLE3[model][method]
            for model, times in _table3().items()
            for method, sim in times.items()]


def _mean_log_error() -> float:
    errors = [abs(math.log(ratio)) for ratio in _cell_ratios()]
    return sum(errors) / len(errors)


def _acp_wins() -> float:
    return min(times[method] / times["acpsgd"]
               for times in _table3().values()
               for method in ("ssgd", "powersgd", "powersgd_star"))


def _contention_flip() -> float:
    """Power-SGD* beats Power-SGD on ResNet-152 and loses on the BERTs."""
    times = _table3()
    resnet = times["ResNet-152"]
    return min([resnet["powersgd"] / resnet["powersgd_star"]]
               + [times[bert]["powersgd_star"] / times[bert]["powersgd"]
                  for bert in ("BERT-Base", "BERT-Large")])


def _powersgd_only_wins_on_berts() -> float:
    """Power-SGD under half of S-SGD's time on the BERTs, over 3/4 of it on
    the ResNets."""
    times = _table3()
    return min([0.5 * times[bert]["ssgd"] / times[bert]["powersgd"]
                for bert in ("BERT-Base", "BERT-Large")]
               + [times[resnet]["powersgd"] / (0.75 * times[resnet]["ssgd"])
                  for resnet in ("ResNet-50", "ResNet-152")])


def _fig8_comm_margin() -> float:
    exposed = {(row.model, row.method): row.breakdown.comm_nonoverlap
               for row in run_fig8()}
    return min(exposed[model, "powersgd"] / exposed[model, "acpsgd"]
               for model in {model for model, _ in exposed})


def _wfbp_alone(model: str, method: str) -> float:
    """WFBP-only over naive time of one Fig. 9 bar group."""
    return next(row.times_ms["wfbp"] / row.times_ms["naive"]
                for row in run_fig9()
                if (row.model, row.method) == (model, method))


def _fig10() -> Dict[Tuple[str, int], Dict[int, float]]:
    """Iteration ms per buffer MB, keyed by (method, rank)."""
    return {(row.method, row.rank): row.times_ms for row in run_fig10()}


def _fig10_default_near_best() -> float:
    sweeps = _fig10()
    return max(sweeps["acpsgd", rank][25] / min(sweeps["acpsgd", rank].values())
               for rank in (32, 256))


def _fig10_acp_beats_powersgd() -> float:
    sweeps = _fig10()
    return min(sweeps["powersgd_star", rank][buffer] / acp
               for rank in (32, 256)
               for buffer, acp in sweeps["acpsgd", rank].items())


def _fig10_default_beats_extremes() -> float:
    times = _fig10()["acpsgd", 256]
    return min(0.9 * times[0], 0.8 * times[1500]) / times[25]


def _fig11a_speedups() -> Dict[int, Dict[str, float]]:
    """ACP-SGD's speed-up over each baseline, keyed by batch size."""
    return {row.batch_size: {baseline: row.speedup(baseline)
                             for baseline in ("ssgd", "powersgd")}
            for row in run_fig11a()}


def _fig11a_shrinks() -> float:
    speedups = _fig11a_speedups()
    return speedups[16]["ssgd"] / speedups[32]["ssgd"]


def _fig11b_scale(method: str) -> float:
    """``method``'s time at rank 256 over rank 32 (BERT-Large)."""
    first, last = run_fig11b(ranks=(32, 256))
    return last.times_ms[method] / first.times_ms[method]


def _acp_grows_less() -> float:
    """S-SGD's over ACP-SGD's growth in iteration time, 8 -> 64 GPUs."""
    increase = scaling_increase(run_fig12())
    return (1 + increase["ssgd"]) / (1 + increase["acpsgd"])


def _fig13_speedup(link: str, model: str, method: str) -> float:
    (row,) = run_fig13(links=(link,), models=(model,))
    return row.speedup(method)


def _fig13_shrinks() -> float:
    speeds = [_fig13_speedup(link, "BERT-Base", "acpsgd")
              for link in ("1GbE", "10GbE", "100GbIB")]
    return min(speeds[0] / speeds[1], speeds[1] / speeds[2])


# --- the table --------------------------------------------------------------


MEAN_SPEEDUP_CLAIMS = {
    baseline: _near("Table III", "mean ACP-SGD speed-up over "
                    f"{METHOD_LABELS[baseline]}", paper, rel,
                    lambda baseline=baseline:
                    average_speedups(run_table3())[baseline])
    for baseline, paper, rel in (("ssgd", 4.06, 0.15), ("powersgd", 1.34, 0.20),
                                 ("powersgd_star", 1.51, 0.25))
}

SCALING_CLAIMS = {
    method: Claim("Fig. 12", f"{METHOD_LABELS[method]} time increase, 8 -> 64 "
                  "GPUs (BERT-Base)", paper, None, 0.30, False,
                  lambda method=method: scaling_increase(run_fig12())[method],
                  HELD_OUT)
    for method, paper in {"ssgd": 0.10, "powersgd": 0.24, "acpsgd": 0.08}.items()
}

CLAIMS = (
    Claim("§II-A.3", "one 64 KB all-reduce, 32 ranks on 10GbE (ms)", 1.2,
          0.5, 2.0, False, lambda: _allreduce_ms(64 * 1024), CALIBRATION),
    Claim("§II-A.3", "two 32 KB all-reduces over one 64 KB", 2.0 / 1.2,
          1.4, None, False,
          lambda: 2 * _allreduce_ms(32 * 1024) / _allreduce_ms(64 * 1024),
          CALIBRATION),
    _near("§IV-B", "ResNet-50's gradients in one fused all-reduce (ms)",
          169, 0.10, lambda: run_fusion_microbench()["raw"].fused_ms,
          CALIBRATION),
    _near("§IV-B", "ResNet-50's gradients all-reduced tensor by tensor (ms)",
          243, 0.35, lambda: run_fusion_microbench()["raw"].separate_ms,
          CALIBRATION),
    _near("§IV-B", "ACP-SGD's P factors all-reduced tensor by tensor (ms)",
          55.9, 0.4, lambda: run_fusion_microbench()["compressed"].separate_ms,
          CALIBRATION),
    Claim("§IV-B", "fusing ACP-SGD's P factors: separate over fused", 24.3,
          10, None, False,
          lambda: run_fusion_microbench()["compressed"].speedup, CALIBRATION),
    Claim("§III-C", "Power-SGD with WFBP on one GPU (ResNet-50): slowdown",
          1.13, 1.02, 1.6, False,
          lambda: run_contention_microbench().slowdown, CALIBRATION),
    Claim("§III-B", "Sign-SGD alone runs out of memory, on BERT-Large only: "
          "smallest margin to the 11 GB card", None, 1, None, False,
          _fits_margin, HELD_OUT),
    _near("Fig. 2", "Sign-SGD over S-SGD time on ResNet-50", 1.70, 0.25,
          lambda: _fig2_ratio("ResNet-50", "signsgd")),
    _near("Fig. 2", "Top-k over S-SGD time on ResNet-50", 1.66, 0.35,
          lambda: _fig2_ratio("ResNet-50", "topk")),
    Claim("Fig. 2", "Top-k beats S-SGD on BERT-Large", None, 1, None, False,
          lambda: 1 / _fig2_ratio("BERT-Large", "topk"), HELD_OUT),
    Claim("Fig. 2", "Power-SGD is the fastest compression method on every "
          "model", None, 1, None, True,
          lambda: min(row.times_ms[method] / row.times_ms["powersgd"]
                      for row in run_fig2() for method in ("signsgd", "topk")),
          HELD_OUT),
    Claim("Fig. 3", "Sign-SGD's exposed communication over S-SGD's "
          "(BERT-Base)", 1.24, 0.9, 1.7, False,
          lambda: _fig3_bert_ratio("comm_nonoverlap", "signsgd", "ssgd"),
          HELD_OUT),
    Claim("Fig. 3", "Top-k's compression time over Sign-SGD's (BERT-Base)",
          4, 2.5, 6.5, False,
          lambda: _fig3_bert_ratio("compression", "topk", "signsgd"),
          HELD_OUT),
    Claim("Fig. 5", "share of tensors under 1e4 (ResNet-50) / 1e5 "
          "(BERT-Base) elements after P,Q: smallest rise",
          0.30, 0.25, None, True,
          lambda: min(item.increase for item in run_fig5()), HELD_OUT),
    Claim("Table III", "every cell within 35 % of the paper: lowest "
          "simulated / paper", None, 0.65, None, False,
          lambda: min(_cell_ratios()), HELD_OUT),
    Claim("Table III", "every cell within 35 % of the paper: highest "
          "simulated / paper", None, None, 1.35, False,
          lambda: max(_cell_ratios()), HELD_OUT),
    Claim("Table III", "mean absolute log of simulated / paper, 16 cells",
          None, None, 0.15, False, _mean_log_error, HELD_OUT),
    Claim("Table III", "ACP-SGD wins every cell", None, 1, None, False,
          _acp_wins, HELD_OUT),
    *MEAN_SPEEDUP_CLAIMS.values(),
    _near("Table III", "ACP-SGD speed-up over S-SGD on BERT-Large", 9.42,
          0.15, lambda: next(row.speedup_over("ssgd") for row in run_table3()
                             if row.model == "BERT-Large")),
    Claim("Table III", "Power-SGD* beats Power-SGD on ResNet-152 and loses "
          "on the BERTs", None, 1, None, False, _contention_flip, HELD_OUT),
    Claim("Table III", "Power-SGD under 1/2 of S-SGD's time on the BERTs, "
          "over 3/4 of it on the ResNets", None, 1, None, False,
          _powersgd_only_wins_on_berts, HELD_OUT),
    Claim("Fig. 8", "ACP-SGD exposes no more communication than Power-SGD "
          "(ResNet-50, BERT-Base)", None, 1, None, True,
          _fig8_comm_margin, HELD_OUT),
    Claim("Fig. 9", "ACP-SGD's best speed-up of WFBP+TF over naive", 2.14,
          1.7, 2.8, False,
          lambda: max(row.full_speedup_over_naive for row in run_fig9()
                      if row.method == "acpsgd"), HELD_OUT),
    Claim("Fig. 9", "tensor fusion speeds up every WFBP run", None, 1, None,
          False, lambda: min(row.tf_speedup_over_wfbp for row in run_fig9()),
          HELD_OUT),
    Claim("Fig. 9", "WFBP speeds up S-SGD and ACP-SGD", None, 1, None, False,
          lambda: min(row.times_ms["naive"] / row.times_ms["wfbp"]
                      for row in run_fig9()
                      if row.method in ("ssgd", "acpsgd")), HELD_OUT),
    Claim("Fig. 9", "WFBP alone buys Power-SGD* under 10 % on BERT-Large: "
          "WFBP over naive time", None, 0.9, None, False,
          lambda: _wfbp_alone("BERT-Large", "powersgd_star"), HELD_OUT),
    Claim("Fig. 10", "ACP-SGD's 25 MB default over its best buffer, ranks "
          "32 and 256: worst", None, None, 1.1, False,
          _fig10_default_near_best, HELD_OUT),
    Claim("Fig. 10", "ACP-SGD beats Power-SGD* at every buffer and rank",
          None, 1, None, False, _fig10_acp_beats_powersgd, HELD_OUT),
    Claim("Fig. 10", "rank 256: the 25 MB default under 0.9 x the 0 MB and "
          "0.8 x the 1500 MB time", None, 1, None, False,
          _fig10_default_beats_extremes, HELD_OUT),
    Claim("Fig. 11", "ACP-SGD beats S-SGD and Power-SGD at batch 16 and 32 "
          "(ResNet-152)", None, 1, None, False,
          lambda: min(min(speedups.values())
                      for speedups in _fig11a_speedups().values()), HELD_OUT),
    Claim("Fig. 11", "ACP-SGD's speed-up over S-SGD shrinks from batch 16 "
          "to 32", None, 1, None, False,
          _fig11a_shrinks, HELD_OUT),
    Claim("Fig. 11", "ACP-SGD's speed-up over Power-SGD grows from rank 32 "
          "to 256 (BERT-Large)", None, 1, None, False,
          lambda: _fig11b_scale("powersgd") / _fig11b_scale("acpsgd"),
          HELD_OUT),
    _near("Fig. 11", "ACP-SGD time at rank 256 over rank 32 (BERT-Large)",
          2.4, 0.25, lambda: _fig11b_scale("acpsgd")),
    *SCALING_CLAIMS.values(),
    Claim("Fig. 12", "ACP-SGD's time grows no more than S-SGD's, 8 -> 64 "
          "GPUs", None, 1, None, True,
          _acp_grows_less, HELD_OUT),
    _near("Fig. 13", "Power-SGD speed-up over S-SGD on 1GbE (ResNet-50)",
          5.7, 0.35, lambda: _fig13_speedup("1GbE", "ResNet-50", "powersgd")),
    _near("Fig. 13", "ACP-SGD speed-up over S-SGD on 1GbE (ResNet-50)",
          7.1, 0.25, lambda: _fig13_speedup("1GbE", "ResNet-50", "acpsgd")),
    _near("Fig. 13", "Power-SGD speed-up over S-SGD on 1GbE (BERT-Base)",
          11.2, 0.25, lambda: _fig13_speedup("1GbE", "BERT-Base", "powersgd")),
    _near("Fig. 13", "ACP-SGD speed-up over S-SGD on 1GbE (BERT-Base)",
          23.9, 0.25, lambda: _fig13_speedup("1GbE", "BERT-Base", "acpsgd")),
    Claim("Fig. 13", "ACP-SGD speed-up over S-SGD on 100Gb IB (BERT-Base)",
          1.4, 1.1, 1.7, False,
          lambda: _fig13_speedup("100GbIB", "BERT-Base", "acpsgd"), HELD_OUT),
    Claim("Fig. 13", "ACP-SGD's speed-up on BERT-Base shrinks as bandwidth "
          "grows", None, 1, None, False, _fig13_shrinks, HELD_OUT),
)


def evaluate() -> List[Dict[str, object]]:
    """Every claim with its reproduced value and verdict, one plain dict each."""
    rows: List[Dict[str, object]] = []
    for claim in CLAIMS:
        value = float(claim.value())
        rows.append({
            "source": claim.source, "statement": claim.statement,
            "paper": claim.paper, "low": claim.low, "high": claim.high,
            "closed": claim.closed, "value": value, "role": claim.role,
            "holds": claim.holds(value),
        })
    return rows


def render() -> str:
    """Every claim, one line each, as a markdown table."""
    lines = ["| source | claim | paper | reproduced | bounds | role | holds |",
             "|---|---|---|---|---|---|---|"]
    for claim, row in zip(CLAIMS, evaluate()):
        paper = "—" if claim.paper is None else f"{claim.paper:g}"
        lines.append(
            f"| {claim.source} | {claim.statement} | {paper} | {row['value']:.4g} "
            f"| {claim.bounds} | {claim.role} | "
            f"{'yes' if row['holds'] else 'NO'} |"
        )
    return "\n".join(lines)
