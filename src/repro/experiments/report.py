"""Full-evaluation report: every table/figure, paper-style, in one call.

Shared by ``examples/paper_evaluation.py`` and ``python -m repro evaluate``.
"""

from __future__ import annotations

import time
from typing import Callable, List


def render_full_report(fast: bool = False, emit: Callable[[str], None] = print) -> None:
    """Run every experiment driver and emit the rendered artifacts.

    Args:
        fast: skip the convergence figures (they train real models and take
            minutes; everything else finishes in seconds).
        emit: sink for output lines (default: print).
    """
    import repro.experiments as E
    from repro.experiments import (
        claims, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11,
        fig12, fig13, table1, table2, table3,
    )

    def section(title: str) -> None:
        emit(f"\n{'=' * 72}\n{title}\n{'=' * 72}")

    started = time.time()
    section("Table I — model statistics and compression ratios")
    emit(table1.render(E.run_table1()))

    section("Table II — communication complexity, analytic vs measured")
    emit(table2.render(E.run_table2()))

    section("Fig. 2 — iteration time of four methods (32 GPUs, 10GbE)")
    emit(fig2.render(E.run_fig2()))

    section("Fig. 3 — time breakdowns of the characterization methods")
    emit(fig3.render(E.run_fig3()))

    section("Fig. 4 — WFBP schedules, regenerated from simulation (BERT-Base)")
    emit(fig4.render(E.run_fig4()))

    section("Fig. 5 — CDF of tensor sizes (M vs P,Q)")
    emit(fig5.render(E.run_fig5()))

    if not fast:
        section("Fig. 6 — convergence (synthetic CIFAR-like substitute)")
        emit(fig6.render(E.run_fig6()))
        section("Fig. 7 — ACP-SGD ablation (error feedback / reuse)")
        emit(fig7.render(E.run_fig7()))

    section("Table III — iteration time incl. Power-SGD*")
    emit(table3.render(E.run_table3()))

    section("Fig. 8 — breakdowns of the evaluation methods")
    emit(fig8.render(E.run_fig8()))

    section("Fig. 9 — benefits of WFBP and tensor fusion")
    emit(fig9.render(E.run_fig9()))

    section("Fig. 10 — buffer-size sensitivity (BERT-Large)")
    emit(fig10.render(E.run_fig10()))

    section("Fig. 11 — batch-size and rank effects")
    emit(fig11.render_a(E.run_fig11a()))
    emit("")
    emit(fig11.render_b(E.run_fig11b()))

    section("Fig. 12 — scaling from 8 to 64 GPUs")
    emit(fig12.render(E.run_fig12()))

    section("Fig. 13 — effect of network bandwidth")
    emit(fig13.render(E.run_fig13()))

    section("Paper claims — every anchor, reproduced and bounded")
    emit(claims.render())

    emit(f"\nDone in {time.time() - started:.0f}s.")
