"""ACP-SGD: alternate compressed Power-SGD (the paper's contribution).

Algorithms 1 (right function) and 2 of the paper. Instead of computing and
aggregating *both* low-rank factors every iteration, ACP-SGD compresses the
gradient into only one of them per step, alternating:

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

Memory cost: the two rank-``r`` factors per compressible tensor, nothing
full-size. With error feedback the caller owns the ``n x m`` accumulator
(the trainer: the rank's arena slot); ``compress`` projects it and leaves
``E_t`` in it through the row-blocked kernel in
:mod:`repro.compression.lowrank_kernels`, allocating no full-size
temporary. Either the accumulator already holds ``M_t + E_{t-1}`` — one
pass over the matrix on odd steps, two on even steps, after the pass that
added ``M_t`` — or it holds ``E_{t-1}`` and ``M_t = a b`` comes as its
factors (a ``Linear`` weight gradient ``g^T x``): then ``M_t`` is never
formed, and ``E_t = E_{t-1} + [a | -P_t] [b ; Q_t^T]`` is one
rank-``(K + r)`` update — one pass on odd steps, two on even steps, in all.
Without error feedback the matrix is only read.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.compression.lowrank_kernels import BlockedProjector, blocked_matmul
from repro.compression.orthogonalize import orthogonalize
from repro.compression.powersgd import init_low_rank


class ACPSGDState:
    """One worker's ACP-SGD state across all of its compressible tensors.

    The staged protocol per tensor per step is:

    1. ``factor = compress(name, matrix, step)`` — the local low-rank factor
       (P on odd steps, Q on even steps) to be aggregated;
    2. caller all-reduces (averages) the factor across workers — with
       whatever batching/fusion it likes, since nothing blocks on it;
    3. ``m_hat = finalize(name, factor_aggregated, step)`` — the
       reconstructed gradient; the aggregated factor is stored for the next
       step's orthogonalization (query reuse).

    Args:
        rank: target rank ``r``.
        seed: shared across workers for the random ``P_0``/``Q_0``.
        use_error_feedback: Algorithm 2's EF (ablated in Fig. 7).
        reuse_query: warm-start from the previous aggregated factor
            (ablated in Fig. 7); when disabled the carried factor is
            re-drawn randomly each step.
        validate: check the aggregated alternating factor finite on
            arrival — because the factor is stored for next-step reuse, a
            single corrupted element would otherwise poison every later
            step through the carried state.
    """

    def __init__(
        self,
        rank: int,
        seed: int = 0,
        use_error_feedback: bool = True,
        reuse_query: bool = True,
        validate: bool = False,
    ):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self.seed = seed
        self.use_error_feedback = use_error_feedback
        self.reuse_query = reuse_query
        self.validate = validate
        self._p: Dict[str, np.ndarray] = {}
        self._q: Dict[str, np.ndarray] = {}
        self._projector = BlockedProjector()
        self._fresh_rng: Dict[str, np.random.Generator] = {}
        # Scratch between compress() and finalize(): the orthonormal carried
        # factor used for this step's projection.
        self._carried: Dict[str, np.ndarray] = {}

    def _mix_seed(self, name: str) -> int:
        return (self.seed * 1000003 + zlib.crc32(name.encode())) & 0x7FFFFFFF

    def effective_rank(self, matrix_shape: Tuple[int, int]) -> int:
        """Rank actually used for a tensor (capped by its dimensions)."""
        n, m = matrix_shape
        return min(self.rank, n, m)

    def _ensure_factors(self, name: str, matrix_shape: Tuple[int, int]) -> None:
        if name not in self._p:
            p0, q0 = init_low_rank(matrix_shape, self.rank, self._mix_seed(name))
            self._p[name] = p0
            self._q[name] = q0

    @staticmethod
    def compresses_p(step: int) -> bool:
        """True when this step computes/aggregates P (odd steps, 1-based)."""
        return step % 2 == 1

    def _carried_factor(
        self, name: str, matrix_shape: Tuple[int, int], step: int
    ) -> np.ndarray:
        """The previous-step factor to orthogonalize and project against."""
        n, m = matrix_shape
        r = self.effective_rank(matrix_shape)
        if self.reuse_query:
            return self._q[name] if self.compresses_p(step) else self._p[name]
        rng = self._fresh_rng.get(name)
        if rng is None:
            rng = np.random.default_rng(self._mix_seed(name))
            self._fresh_rng[name] = rng
        size = (m, r) if self.compresses_p(step) else (n, r)
        return rng.normal(size=size)

    # ------------------------------------------------------------------
    # Staged protocol
    # ------------------------------------------------------------------
    def compress(
        self, name: str, matrix: np.ndarray, step: int,
        peer: Optional["ACPSGDState"] = None,
        factors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Compute this step's local low-rank factor and update the error.

        Returns P_local (odd steps) or Q_local (even steps). With error
        feedback ``matrix`` is the rank's accumulator ``M + E`` (float64,
        C-contiguous, writable) and holds the new residual afterwards, per
        Algorithm 2 lines 6/11; without it ``matrix`` is only read (any
        float dtype, any strides). ``factors`` ``(a, b)`` (``n x K``,
        ``K x m``; error feedback only) hand over ``M = a @ b`` instead: the
        accumulator then holds ``E`` alone and ``M`` is never formed.
        ``peer``, another rank's state that has compressed ``name`` this
        step, lends its orthonormal carried factor: the ranks of one job
        carry identical factors, so one QR per tensor serves them all.
        """
        if matrix.ndim != 2:
            raise ValueError(f"expected a matrix, got shape {matrix.shape}")
        if step < 1:
            raise ValueError(f"step counter is 1-based, got {step}")
        if factors is not None and not self.use_error_feedback:
            raise ValueError("factors= needs error feedback (an accumulator)")
        self._ensure_factors(name, matrix.shape)
        # Fetched beside a peer too: with ``reuse_query`` off it is a draw,
        # and every rank's stream advances in lockstep.
        previous = self._carried_factor(name, matrix.shape, step)
        carried = orthogonalize(previous) if peer is None else peer._carried[name]
        self._carried[name] = carried
        if not self.use_error_feedback:
            matrix = np.asarray(matrix, dtype=np.float64)
            return matrix @ carried if self.compresses_p(step) else matrix.T @ carried
        projector = self._projector
        if self.compresses_p(step):
            # P = (M + E) Q_t;  E <- (M + E) - P Q_t^T
            if factors is None:
                return projector.project_right(matrix, carried, subtract=True)
            return projector.project_right_factored(matrix, *factors, carried)
        # Q = (M + E)^T P_t;  E <- (M + E) - P_t Q^T
        if factors is None:
            return projector.project_left(matrix, carried)
        return projector.project_left_factored(matrix, *factors, carried)

    def store_factor(
        self, name: str, factor_aggregated: np.ndarray, step: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Adopt the aggregated factor for next-step reuse; returns ``(P_t, Q_t)``.

        Everything :meth:`finalize` does except forming ``P_t Q_t^T`` — what
        a rank needs when another rank's reconstruction is the one used.
        """
        carried = self._carried.pop(name, None)
        if carried is None:
            raise RuntimeError(f"finalize called before compress for {name!r}")
        if self.validate:
            from repro.utils.validation import assert_finite

            assert_finite(factor_aggregated, f"aggregated factor for {name!r}")
        if self.compresses_p(step):
            self._p[name], self._q[name] = factor_aggregated.copy(), carried
        else:
            self._p[name], self._q[name] = carried, factor_aggregated.copy()
        return self._p[name], self._q[name]

    def finalize(
        self, name: str, factor_aggregated: np.ndarray, step: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Reconstruct ``M_hat`` from the aggregated factor; store for reuse.

        ``out`` (``n x m`` float64, C-contiguous) receives the product
        instead of a new matrix.
        """
        p, q = self.store_factor(name, factor_aggregated, step)
        return blocked_matmul(p, q.T, out=out)  # P_t Q_t^T

    def warm_start_from(self, donor: "ACPSGDState") -> None:
        """Adopt a survivor's shared carried state (elastic admission).

        After every ``finalize`` both stored factors are functions of
        *aggregated* data — one is the all-reduced factor itself, the other
        the orthogonalized carried factor every worker computed identically
        — so copying the donor's ``P``/``Q`` puts the joiner in the same
        alternation phase as the survivors: at the next step all ranks
        orthogonalize the same carried factor and compress the same side of
        the factorization. The EF residual is per-worker and not state of
        this class (the joiner's accumulator starts empty); the no-reuse
        fresh streams are cloned at the donor's position so the shared
        random carried factors stay in lockstep.
        """
        from repro.compression.powersgd import clone_rng

        self._p = {name: p.copy() for name, p in donor._p.items()}
        self._q = {name: q.copy() for name, q in donor._q.items()}
        self._carried.clear()
        self._fresh_rng = {
            name: clone_rng(rng) for name, rng in donor._fresh_rng.items()
        }

    def reset(self) -> None:
        """Drop all per-tensor state."""
        self._p.clear()
        self._q.clear()
        self._carried.clear()
        self._fresh_rng.clear()
