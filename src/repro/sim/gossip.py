"""Window-length and staleness pricing for the gossip mode.

The closed-world simulator prices one lockstep iteration; the gossip mode
has no lockstep to price. What matters instead is the *window economy*:

- a longer window amortizes the store round-trip (one upload plus
  ``peers - 1`` downloads, priced by the alpha-beta link model of
  :mod:`repro.comm.cost_model`) over more local steps, **but**
- under churn each extra second of window raises the chance a peer
  departs before publishing — its window's compute is wasted — and
- a longer window means every exchanged update is older when applied
  (average staleness ~ half the window in steps), discounting its value
  exactly like the scorer's staleness decay at aggregation time.

:func:`recommend_window_steps` sweeps the window length and maximizes the
expected rate of *useful, freshness-discounted* progress per wall-clock
second — the same figure of merit the paper's throughput model uses, bent
for open membership. The shapes the tests gate on: higher churn pushes
the optimum toward shorter windows, slower links push it toward longer
ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.comm.cost_model import LinkSpec, point_to_point_time

#: Steps of staleness at which an update's marginal value halves (mirror
#: of the scorer's window-denominated ``staleness_half_life``).
STALENESS_HALF_LIFE_STEPS = 8.0


@dataclass(frozen=True)
class GossipWindowSpec:
    """Inputs of the window economy.

    Attributes:
        peers: expected live peer count (each window fetches
            ``peers - 1`` foreign updates).
        update_bytes: size of one published compressed update.
        step_time_s: wall-clock cost of one local training step.
        churn_per_step: probability a given peer departs during any one
            local step (0 = closed world).
    """

    peers: int
    update_bytes: int
    step_time_s: float
    churn_per_step: float = 0.0

    def __post_init__(self) -> None:
        if self.peers < 2:
            raise ValueError(f"peers must be >= 2, got {self.peers}")
        if self.update_bytes <= 0:
            raise ValueError(
                f"update_bytes must be > 0, got {self.update_bytes}"
            )
        if self.step_time_s <= 0:
            raise ValueError(
                f"step_time_s must be > 0, got {self.step_time_s}"
            )
        if not 0.0 <= self.churn_per_step < 1.0:
            raise ValueError(
                f"churn_per_step must be in [0, 1), got {self.churn_per_step}"
            )


def window_exchange_time(spec: GossipWindowSpec, link: LinkSpec) -> float:
    """Store round-trip per window: one upload + ``peers - 1`` downloads."""
    return float(spec.peers) * point_to_point_time(spec.update_bytes, link)


def window_survival_probability(
    spec: GossipWindowSpec, local_steps: int
) -> float:
    """Chance a peer survives a whole window and its update gets published."""
    if local_steps < 1:
        raise ValueError(f"local_steps must be >= 1, got {local_steps}")
    return (1.0 - spec.churn_per_step) ** local_steps


def window_utility_rate(
    spec: GossipWindowSpec, link: LinkSpec, local_steps: int
) -> float:
    """Useful freshness-discounted steps per second at this window length.

    Per window a surviving peer contributes ``local_steps`` steps of
    progress, discounted by the average staleness of the exchanged update
    (~ ``local_steps / 2`` steps old on arrival), over the window's
    wall-clock span (compute + store round-trip). Peers that churn
    mid-window contribute nothing — their partial windows are lost.
    """
    if local_steps < 1:
        raise ValueError(f"local_steps must be >= 1, got {local_steps}")
    survival = window_survival_probability(spec, local_steps)
    freshness = 0.5 ** ((local_steps / 2.0) / STALENESS_HALF_LIFE_STEPS)
    useful = survival * freshness * local_steps
    wall = local_steps * spec.step_time_s + window_exchange_time(spec, link)
    return useful / wall


def recommend_window_steps(
    spec: GossipWindowSpec, link: LinkSpec, max_steps: int = 64
) -> int:
    """Window length (in local steps) maximizing the useful-progress rate.

    Ties break toward the *shorter* window: same throughput at lower
    staleness is strictly better for convergence.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    best_steps = 1
    best_rate = -math.inf
    for steps in range(1, max_steps + 1):
        rate = window_utility_rate(spec, link, steps)
        if rate > best_rate:
            best_rate = rate
            best_steps = steps
    return best_steps


def render_window_sweep(
    spec: GossipWindowSpec, link: LinkSpec, max_steps: int = 16
) -> str:
    """Table of the window economy for one link (CLI / docs output)."""
    lines: List[str] = [
        f"link {link.name}: alpha={link.alpha * 1e6:.0f}us "
        f"bandwidth={link.beta / 1e9:.2f}GB/s",
        f"{'steps':>5} {'exchange_s':>11} {'survival':>9} {'rate':>9}",
    ]
    for steps in range(1, max_steps + 1):
        lines.append(
            f"{steps:>5} "
            f"{window_exchange_time(spec, link):>11.4f} "
            f"{window_survival_probability(spec, steps):>9.4f} "
            f"{window_utility_rate(spec, link, steps):>9.4f}"
        )
    lines.append(
        f"recommended window: "
        f"{recommend_window_steps(spec, link, max_steps)} steps"
    )
    return "\n".join(lines)
