"""Named resources with per-pair contention.

The simulator's one interaction between resources: while both GPU
streams run FLOP-heavy work, each progresses at ``contention_rate``.
:class:`ResourceModel` states it for any set of named resources with a
rate per *pair*: while resources ``a`` and ``b`` both run tasks that
declare ``contends=True``, each runs at the pair's rate (a resource
contending with several busy partners takes the most pessimistic rate).
Resources never named in a pair — the NIC, per-node links — always run
at full speed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from repro.sched.graph import Task


class ResourceModel:
    """Pairwise-contention rate model over named resources.

    Args:
        contention: mapping of resource-name pairs (any 2-iterable) to
            the rate in ``(0, 1]`` each side runs at while both are busy
            with contending tasks.
    """

    def __init__(
        self,
        contention: Optional[Mapping[Iterable[str], float]] = None,
    ) -> None:
        self._pairs: Dict[FrozenSet[str], float] = {}
        for pair, rate in (contention or {}).items():
            key = frozenset(pair)
            if len(key) != 2:
                raise ValueError(
                    f"contention pair must name two distinct resources, got {pair!r}"
                )
            if not 0.0 < rate <= 1.0:
                raise ValueError(
                    f"contention_rate must be in (0, 1], got {rate}"
                )
            self._pairs[key] = rate

    @classmethod
    def gpu_contention(cls, contention_rate: float) -> "ResourceModel":
        """The simulator's model: ``gpu_main`` and ``gpu_side`` interfere."""
        return cls({("gpu_main", "gpu_side"): contention_rate})

    @property
    def pairs(self) -> Mapping[FrozenSet[str], float]:
        return dict(self._pairs)

    def rates(self, active: Mapping[str, Task]) -> Dict[str, float]:
        """Execution rate of each active resource given who else is busy.

        A resource's rate is the minimum over its contending partners'
        pair rates (1.0 when unpaired, idle partners, or either side's
        task opts out of contention). Iteration order of ``active`` is
        preserved so downstream float arithmetic is reproducible.
        """
        rates: Dict[str, float] = {}
        for resource, task in active.items():
            rate = 1.0
            if task.contends and self._pairs:
                for other, other_task in active.items():
                    if other == resource or not other_task.contends:
                        continue
                    pair_rate = self._pairs.get(frozenset((resource, other)))
                    if pair_rate is not None and pair_rate < rate:
                        rate = pair_rate
            rates[resource] = rate
        return rates
