"""Host-speed reference and the virtual clock built from it.

This host's 2 vCPUs are shared with other tenants: for minutes at a time
every workload runs 10-45% slower, python, BLAS and memory streaming
alike. Raw wall times therefore spread by more than any useful regression
bound between runs of the same commit. The harness times a small fixed
kernel (python dict/str work + matmuls + streaming passes over 2 MB) every
half second between operations; its duration tracks those phases (measured:
a 25 s median of conv / low-rank / planner time divided by the reference
spreads 1.5-2.5% where the raw median spreads 6-7%).

All reported times are read from a *virtual clock* that advances at
``1 / speed`` of the raw clock, where ``speed`` is the reference's duration
over ``REF_NOMINAL_S`` in the surrounding half second, and that stands
still while the reference itself runs. A reported millisecond is thus a
millisecond of a host on which the reference takes exactly
``REF_NOMINAL_S`` — this container when quiet. The kernel is harness code:
no change under ``src/`` can move it.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

#: Duration of one reference sample on this container when quiet (median
#: of the in-run samples of all four workloads); defines the unit of every
#: reported time.
REF_NOMINAL_S = 0.0105
#: Minimum raw time between two reference samples inside a window.
REF_INTERVAL_S = 0.5


class HostClock:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((256, 256))
        self._stream = rng.standard_normal(250_000)
        self._out = np.empty_like(self._stream)
        #: Raw (begin, end) of every reference sample, in time order.
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> None:
        """Time one pass of the reference kernel."""
        begin = time.perf_counter()
        table = {}
        for i in range(20000):
            table[i & 1023] = (i, str(i))
        for _ in range(6):
            self._matrix @ self._matrix
        for _ in range(12):
            np.multiply(self._stream, 0.9, out=self._out)
            np.add(self._out, self._stream, out=self._out)
        self.samples.append((begin, time.perf_counter()))

    def speeds(self) -> np.ndarray:
        """Host slowness per sample: 1.0 = nominal, 1.2 = 20% slower."""
        begin, end = np.asarray(self.samples).T
        return (end - begin) / REF_NOMINAL_S

    def virtual(self, raw):
        """Map raw ``perf_counter`` seconds (scalar or array) to virtual.

        Between two samples the virtual clock runs at the raw clock's rate
        divided by the mean of their speeds; during a sample it stands
        still. Zero is the first sample; later raw times must not exceed
        the last sample.
        """
        begin, end = np.asarray(self.samples).T
        speed = (end - begin) / REF_NOMINAL_S
        between = (begin[1:] - end[:-1]) / ((speed[:-1] + speed[1:]) / 2)
        at_sample = np.concatenate([[0.0], np.cumsum(between)])
        return np.interp(
            raw, np.column_stack([begin, end]).ravel(), np.repeat(at_sample, 2)
        )
