"""Ablation — approximation quality: SVD vs Power-SGD vs ACP-SGD.

Per-step relative reconstruction error on a drifting gradient stream, all
at the same rank: the truncated SVD's error is the Eckart-Young floor;
Power-SGD's full power iteration tracks it closely; ACP-SGD's *half*
iteration per step stays close despite halving compute and communication —
the paper's §IV-A quality argument quantified.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.compression.lowrank import LowRankState
from repro.utils import render_table

RANK = 4
STEPS = 30


def _drifting_gradients(steps, shape=(32, 48), seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=shape)
    drift = rng.normal(size=shape) * 0.05
    return [base + t * drift + 0.05 * rng.normal(size=shape)
            for t in range(steps)]


def _reconstruct(state, grad, step):
    """One single-worker step, every half of it; returns ``P Q^T``."""
    for half in state.halves(step):
        p, q = state.adopt("w", state.compress("w", grad, half), half)
    return p @ q.T


def _sweep():
    grads = _drifting_gradients(STEPS)
    power = LowRankState(RANK, seed=1, use_error_feedback=False, halves_per_step=2)
    acp = LowRankState(RANK, seed=1, use_error_feedback=False)
    rows = []
    for t, grad in enumerate(grads, start=1):
        norm = np.linalg.norm(grad)
        tail = np.linalg.svd(grad, compute_uv=False)[RANK:]
        svd_err = np.linalg.norm(tail) / norm
        power_err = np.linalg.norm(grad - _reconstruct(power, grad, t)) / norm
        acp_err = np.linalg.norm(grad - _reconstruct(acp, grad, t)) / norm
        rows.append((t, svd_err, power_err, acp_err))
    return rows


def test_approximation_quality(benchmark):
    rows = run_once(benchmark, _sweep)
    sampled = [r for r in rows if r[0] in (1, 2, 5, 10, 20, 30)]
    print("\n=== Ablation: per-step approximation error at rank 4 ===")
    print(render_table(
        ["step", "SVD (optimal)", "Power-SGD", "ACP-SGD"],
        [[str(t), f"{s:.4f}", f"{p:.4f}", f"{a:.4f}"]
         for t, s, p, a in sampled],
    ))
    # After warm-up, both iterative methods sit near the SVD floor.
    late = rows[-5:]
    for _, svd_err, power_err, acp_err in late:
        assert power_err < svd_err * 1.05
        assert acp_err < svd_err * 1.10  # half-iteration tracks slightly looser
    # And at step 1 the random-query iterates are far from optimal.
    assert rows[0][2] > rows[0][1] * 1.05
