"""Power-SGD and ACP-SGD: one low-rank state, one or two halves per step.

**Power-SGD** [Vogels et al., NeurIPS 2019], Algorithm 1 (left function) of
the paper. For a gradient matrix ``M (n x m)`` and rank ``r``:

1. ``P <- M Q_{t-1}``        (right multiplication, n x r)
2. all-reduce(P)             (mean across workers)
3. ``P <- orthogonalize(P)``
4. ``Q <- M^T P``            (left multiplication, m x r)
5. all-reduce(Q)
6. reconstruct ``M_hat = P Q^T``; remember Q for the next step (query reuse)

Error feedback: the residual ``M - P Q_local^T`` (computed with the *local*
Q before aggregation, following Vogels' reference implementation) is added
to the next step's gradient. The blocking structure ``P -> aggregate -> Q
-> aggregate`` is exactly the property the paper's §III-C identifies as
incompatible with WFBP.

**ACP-SGD**, alternate compressed Power-SGD (the paper's contribution),
Algorithms 1 (right function) and 2. Instead of computing and aggregating
*both* low-rank factors every iteration, ACP-SGD compresses the gradient
into only one of them per step, alternating:

odd step ``t``::

    Q_t <- orthogonalize(Q_{t-1})
    P_t <- (M_t + E_{t-1}) Q_t          # compute P
    E_t <- M_t + E_{t-1} - P_t Q_t^T    # update error (local, pre-aggregate)
    P_t <- all-reduce(P_t)              # the step's single collective
    output M_hat = P_t Q_t^T

even step ``t``::

    P_t <- orthogonalize(P_{t-1})
    Q_t <- (M_t + E_{t-1})^T P_t        # compute Q
    E_t <- M_t + E_{t-1} - P_t Q_t^T
    Q_t <- all-reduce(Q_t)
    output M_hat = P_t Q_t^T

Because the single all-reduce input is computed entirely from local state,
the communication is **additive** (plain sum of dense low-rank factors) and
**non-blocking** (no further compute depends on it within the layer's
backward) — the two properties (§III-C) that let ACP-SGD use ring
all-reduce, wait-free back-propagation and tensor fusion exactly like
S-SGD. It also halves Power-SGD's compression FLOPs and communication
volume: one orthogonalization + one GEMM + one all-reduce of
``(n + m)/2 * r`` elements on average per step.

``P_0`` and ``Q_0`` are initialized i.i.d. standard normal with a seed
shared across workers; ``E_0 = 0``.

**One recurrence.** A *half* projects the matrix on a carried factor and
yields one local factor, which the workers average and adopt. Halves are
counted from 1 across steps; odd halves compute P, even halves Q. Four
rules make Power-SGD a parameter of ACP-SGD:

1. a step runs one half (ACP-SGD: P on odd steps, Q on even steps) or two
   (Power-SGD: P, then Q);
2. a half's carried factor is the stored opposite factor, orthogonalized —
   except the first half of a two-half step, which projects on the stored
   Q as it is (Power-SGD's step 1; its step 3 is the second half's
   orthogonalization of the P just adopted);
3. with query reuse off, the first half of each step draws a fresh factor
   instead (per-tensor deterministic stream);
4. only a step's last half leaves the residual: the first half of a
   two-half step only reads the accumulator.

Memory cost: the two rank-``r`` factors per compressible tensor, nothing
full-size. With error feedback the caller owns the ``n x m`` accumulator
(the trainer: the rank's arena slot); a half projects it, and the last one
leaves ``E_t`` in it, through the row-blocked kernel in
:mod:`repro.compression.lowrank_kernels`, allocating no full-size
temporary: one pass over the matrix for a P half, two for a Q half. On a
one-half step the accumulator may instead hold ``E_{t-1}`` alone with
``M_t = a b`` handed over as its factors (a ``Linear`` weight gradient
``g^T x``): then ``M_t`` is never formed, and ``E_t = E_{t-1} + [a | -P_t]
[b ; Q_t^T]`` is one rank-``(K + r)`` update — one pass on odd steps, two
on even steps, in all. Without error feedback the matrix is only read.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.compression.lowrank_kernels import BlockedProjector
from repro.compression.orthogonalize import orthogonalize


def factor_rank(rank: int, n: int, m: int) -> int:
    """Width of an ``n x m`` matrix's factors: ``rank``, capped by its dimensions."""
    return min(rank, n, m)


def init_low_rank(
    shape_matrix: Tuple[int, int], rank: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared random init of (P0, Q0) from a standard normal distribution.

    All workers must pass the same ``seed`` so their factors agree from
    step 0 (the paper initializes Q i.i.d. standard normal).
    """
    n, m = shape_matrix
    r = factor_rank(rank, n, m)
    rng = np.random.default_rng(seed)
    p0 = rng.normal(size=(n, r))
    q0 = rng.normal(size=(m, r))
    return p0, q0


class LowRankState:
    """One worker's Power-SGD or ACP-SGD state across its compressible tensors.

    Per tensor and half:

    1. ``factor = compress(name, matrix, half)`` — the local factor (P on
       odd halves, Q on even ones) to be aggregated;
    2. the caller all-reduces (averages) it across workers;
    3. ``p, q = adopt(name, aggregated, half)`` — the stored factors, whose
       product ``P Q^T`` is the step's reconstruction once the step's last
       half is adopted.

    Args:
        rank: target rank ``r``.
        seed: shared across workers for the random ``P_0``/``Q_0``.
        use_error_feedback: Algorithm 2's error feedback (Vogels' default;
            ablated in the paper's Fig. 7).
        reuse_query: warm-start each step from the previous aggregated
            factor (ablated in Fig. 7); when disabled the first half's
            carried factor is re-drawn randomly each step.
        halves_per_step: 1 for ACP-SGD, 2 for Power-SGD.
    """

    def __init__(
        self,
        rank: int,
        seed: int = 0,
        use_error_feedback: bool = True,
        reuse_query: bool = True,
        halves_per_step: int = 1,
    ):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if halves_per_step not in (1, 2):
            raise ValueError(f"a step runs 1 or 2 halves, got {halves_per_step}")
        self.rank = rank
        self.seed = seed
        self.use_error_feedback = use_error_feedback
        self.reuse_query = reuse_query
        self.halves_per_step = halves_per_step
        self._p: Dict[str, np.ndarray] = {}
        self._q: Dict[str, np.ndarray] = {}
        self._projector = BlockedProjector()
        self._fresh_rng: Dict[str, np.random.Generator] = {}
        # Between compress() and adopt(): the factor this half projected on.
        self._carried: Dict[str, np.ndarray] = {}

    def halves(self, step: int) -> range:
        """The halves step ``step`` (1-based) runs, in order."""
        per_step = self.halves_per_step
        return range(per_step * (step - 1) + 1, per_step * step + 1)

    @staticmethod
    def compresses_p(half: int) -> bool:
        """True when this half computes/aggregates P (odd halves, 1-based)."""
        return half % 2 == 1

    def _seed(self, name: str) -> int:
        return (self.seed * 1000003 + zlib.crc32(name.encode())) & 0x7FFFFFFF

    def _previous(self, name: str, matrix: np.ndarray, half: int) -> np.ndarray:
        """The factor this half projects on, before any orthogonalization,
        in ``matrix``'s dtype (a mixed-dtype product would upcast the pass)."""
        shape, dtype = matrix.shape, matrix.dtype
        if name not in self._p:
            p, q = init_low_rank(shape, self.rank, self._seed(name))
            self._p[name], self._q[name] = p.astype(dtype), q.astype(dtype)
        opens_step = (half - 1) % self.halves_per_step == 0
        if self.reuse_query or not opens_step:
            return self._q[name] if self.compresses_p(half) else self._p[name]
        rng = self._fresh_rng.get(name)
        if rng is None:
            rng = np.random.default_rng(self._seed(name))
            self._fresh_rng[name] = rng
        n, m = shape
        rows = m if self.compresses_p(half) else n
        return rng.normal(size=(rows, factor_rank(self.rank, n, m))).astype(dtype)

    def compress(
        self, name: str, matrix: np.ndarray, half: int,
        peer: Optional["LowRankState"] = None,
        factors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Run one half: project on the carried factor; returns the local factor.

        Returns P_local (odd halves) or Q_local (even halves), in
        ``matrix``'s dtype, the one the factors are kept in. With error
        feedback ``matrix`` is the rank's accumulator ``M + E``
        (C-contiguous, writable); the step's last half leaves the new
        residual in it (Algorithm 2 lines 6/11), the first half of a
        two-half step only reads it and it must stay unchanged until the
        second. Without error feedback ``matrix`` is only read (any
        strides). ``factors`` ``(a, b)`` (``n x K``, ``K x m``;
        error feedback and one-half steps only) hand over ``M = a @ b``
        instead: the accumulator then holds ``E`` alone and ``M`` is never
        formed. ``peer``, another rank's state that has run this half for
        ``name``, lends its orthonormal carried factor: the ranks of one job
        carry identical factors, so one QR per tensor serves them all.
        """
        if matrix.ndim != 2:
            raise ValueError(f"expected a matrix, got shape {matrix.shape}")
        if half < 1:
            raise ValueError(f"half counter is 1-based, got {half}")
        if factors is not None:
            if not self.use_error_feedback:
                raise ValueError("factors= needs error feedback (an accumulator)")
            if self.halves_per_step != 1:
                raise ValueError("factors= needs a one-half step")
        # Fetched beside a peer too: with ``reuse_query`` off it is a draw,
        # and every rank's stream advances in lockstep.
        previous = self._previous(name, matrix, half)
        last = half % self.halves_per_step == 0
        if not last:
            carried = previous  # Power-SGD's P half: the query as it is
        elif peer is None:
            carried = orthogonalize(previous)
        else:
            carried = peer._carried[name]
        self._carried[name] = carried
        p_half = self.compresses_p(half)
        if not self.use_error_feedback:
            return matrix @ carried if p_half else matrix.T @ carried
        projector = self._projector
        if p_half:
            # P = (M + E) Q_t;  on the last half also E <- (M + E) - P Q_t^T
            if factors is None:
                return projector.project_right(matrix, carried, subtract=last)
            return projector.project_right_factored(matrix, *factors, carried)
        # Q = (M + E)^T P_t;  E <- (M + E) - P_t Q^T
        if factors is None:
            return projector.project_left(matrix, carried)
        return projector.project_left_factored(matrix, *factors, carried)

    def adopt(
        self, name: str, factor_aggregated: np.ndarray, half: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Store the half's aggregated factor beside the carried one; returns
        ``(P, Q)``.

        After a step's last half ``P Q^T`` is the step's reconstruction,
        identical on every rank; the stored pair is what the next half
        carries (query reuse). ``factor_aggregated`` is kept, not copied —
        the ranks of one job may share one array — so it must not change
        afterwards.
        """
        carried = self._carried.pop(name, None)
        if carried is None:
            raise RuntimeError(f"adopt called before compress for {name!r}")
        if self.compresses_p(half):
            self._p[name], self._q[name] = factor_aggregated, carried
        else:
            self._p[name], self._q[name] = carried, factor_aggregated
        return self._p[name], self._q[name]

    def warm_start_from(self, donor: "LowRankState") -> None:
        """Adopt a survivor's shared carried state (elastic admission).

        After every adopted step both stored factors are functions of
        *aggregated* data — one is the all-reduced factor itself, the other
        the carried factor every worker computed identically — so copying
        the donor's ``P``/``Q`` puts the joiner in the same phase as the
        survivors: at the next step all ranks carry the same factor. The
        error-feedback residual is per-worker and not state of this class
        (the joiner's accumulator starts empty: its unsent history is); the
        no-reuse fresh streams are cloned at the donor's position so every
        worker keeps drawing the same factors.
        """
        self._p = {name: p.copy() for name, p in donor._p.items()}
        self._q = {name: q.copy() for name, q in donor._q.items()}
        self._carried.clear()
        self._fresh_rng = {}
        for name, rng in donor._fresh_rng.items():
            clone = np.random.default_rng()
            clone.bit_generator.state = rng.bit_generator.state
            self._fresh_rng[name] = clone

    def reset(self) -> None:
        """Drop all per-tensor state."""
        self._p.clear()
        self._q.clear()
        self._carried.clear()
        self._fresh_rng.clear()
