"""Experiment drivers — one per table/figure of the paper's evaluation.

Each module exposes a ``run_*`` function returning structured rows plus a
``render`` helper that prints them in the paper's presentation, so the
benchmark suite (and EXPERIMENTS.md) can compare side by side:

========  =====================================================  ==========
ID        Paper artifact                                         Module
========  =====================================================  ==========
Table I   model stats & compression ratios                       table1
Table II  compress/communicate complexity (analytic + measured)  table2
Fig. 2    iteration time of 4 methods x 4 models                 fig2
Fig. 3    time breakdowns (ResNet-50, BERT-Base)                 fig3
Fig. 4    WFBP schedules as simulated Gantt charts (and Fig. 1)  fig4
Fig. 5    CDF of tensor sizes (M vs P,Q)                         fig5
Fig. 6    convergence S-SGD / Power-SGD / ACP-SGD                fig6
Fig. 7    ablation: no error-feedback / no reuse                 fig7
Table III iteration time incl. Power-SGD*                        table3
Fig. 8    breakdowns of the four methods                         fig8
Fig. 9    Naive / +WFBP / +WFBP+TF                               fig9
Fig. 10   buffer-size sweep                                      fig10
Fig. 11   batch-size and rank sweeps                             fig11
Fig. 12   scaling 8 -> 64 GPUs                                   fig12
Fig. 13   1GbE / 10GbE / 100Gb IB                                fig13
(extra)   single-GPU WFBP contention microbenchmark              microbench
(all)     every paper claim reproduced: value, bounds, role      claims
========  =====================================================  ==========
"""

from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.table3 import run_table3
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11a, run_fig11b
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig13 import run_fig13
from repro.experiments.microbench import run_contention_microbench, run_fusion_microbench
from repro.experiments.sensitivity import run_sensitivity
from repro.experiments.extended_convergence import run_extended_convergence

__all__ = [
    "run_table1",
    "run_table2",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_table3",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11a",
    "run_fig11b",
    "run_fig12",
    "run_fig13",
    "run_contention_microbench",
    "run_fusion_microbench",
    "run_sensitivity",
    "run_extended_convergence",
]
