"""Power-SGD low-rank compression [Vogels et al., NeurIPS 2019].

Algorithm 1 (left function) of the paper. For a gradient matrix
``M (n x m)`` and rank ``r``:

1. ``P <- M Q_{t-1}``        (right multiplication, n x r)
2. all-reduce(P)             (mean across workers)
3. ``P <- orthogonalize(P)``
4. ``Q <- M^T P``            (left multiplication, m x r)
5. all-reduce(Q)
6. reconstruct ``M_hat = P Q^T``; remember Q for the next step (query reuse)

Error feedback: the residual ``M - P Q_local^T`` (computed with the *local*
Q before aggregation, following Vogels' reference implementation) is added
to the next step's gradient.

Memory cost: the rank-``r`` query per compressible tensor, nothing
full-size. With error feedback the caller owns the ``n x m`` accumulator
``M + E`` (the trainer: the rank's arena slot, into which backward adds the
gradient on top of the residual); it is the work matrix between the two
stages and ``compute_q`` leaves the new residual in it, through the
row-blocked kernel in :mod:`repro.compression.lowrank_kernels` (one pass in
``compute_p``, two in ``compute_q``). No full-size temporary is allocated;
without error feedback the matrix is only read.

The class below holds one worker's state. Communication is done by the
caller between the staged methods — the blocking structure
``compute_p -> aggregate -> compute_q -> aggregate`` is exactly the property
the paper's §III-C identifies as incompatible with WFBP.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.compression.lowrank_kernels import BlockedProjector, blocked_matmul
from repro.compression.orthogonalize import orthogonalize


def init_low_rank(
    shape_matrix: Tuple[int, int], rank: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared random init of (P0, Q0) from a standard normal distribution.

    All workers must pass the same ``seed`` so their query matrices agree
    from step 0 (the paper initializes Q i.i.d. standard normal).
    """
    n, m = shape_matrix
    effective_rank = min(rank, n, m)
    rng = np.random.default_rng(seed)
    p0 = rng.normal(size=(n, effective_rank))
    q0 = rng.normal(size=(m, effective_rank))
    return p0, q0


class PowerSGDState:
    """One worker's Power-SGD state across all of its compressible tensors.

    Args:
        rank: target rank ``r``.
        seed: shared seed for the initial query matrices (must agree across
            workers).
        use_error_feedback: enable the EF residual (Vogels' default; the
            paper's Fig. 7 ablates it).
        reuse_query: warm-start each step's power iteration from the
            previous aggregated Q (the paper's "query reuse"); when False, Q
            is re-drawn randomly each step (per-tensor deterministic stream).
        validate: check the aggregated P/Q factors finite on arrival —
            a corrupted factor would otherwise contaminate both the
            reconstruction and the carried query for every later step.
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
        self._query: Dict[str, np.ndarray] = {}
        self._projector = BlockedProjector()
        self._fresh_rng: Dict[str, np.random.Generator] = {}
        # Between compute_p and compute_q: the work matrix (the caller's
        # accumulator M + E with EF on, the gradient without); between
        # compute_q and reconstruct: P_hat.
        self._pending: Dict[str, np.ndarray] = {}

    def _ensure_query(self, name: str, matrix_shape: Tuple[int, int]) -> np.ndarray:
        """Fetch (or initialize) the query matrix Q for a tensor."""
        n, m = matrix_shape
        if self.reuse_query:
            query = self._query.get(name)
            if query is None:
                _, query = init_low_rank(matrix_shape, self.rank, self._mix_seed(name))
                self._query[name] = query
            return query
        rng = self._fresh_rng.get(name)
        if rng is None:
            rng = np.random.default_rng(self._mix_seed(name))
            self._fresh_rng[name] = rng
        return rng.normal(size=(m, min(self.rank, n, m)))

    def _mix_seed(self, name: str) -> int:
        return (self.seed * 1000003 + zlib.crc32(name.encode())) & 0x7FFFFFFF

    def effective_rank(self, matrix_shape: Tuple[int, int]) -> int:
        """Rank actually used for a tensor (capped by its dimensions)."""
        n, m = matrix_shape
        return min(self.rank, n, m)

    # ------------------------------------------------------------------
    # Staged compression protocol
    # ------------------------------------------------------------------
    def compute_p(self, name: str, matrix: np.ndarray) -> np.ndarray:
        """Stage 1: ``P = (M + E) Q_{t-1}``; caller must all-reduce the result.

        With error feedback ``matrix`` is the rank's accumulator ``M + E``
        (float64, C-contiguous, writable), the work matrix until
        :meth:`compute_q` corrects it in place; without it the work matrix
        is ``matrix`` itself (a float64 view when it already is float64),
        only read. Either way it must stay unchanged until then.
        """
        if matrix.ndim != 2:
            raise ValueError(f"expected a matrix, got shape {matrix.shape}")
        query = self._ensure_query(name, matrix.shape)
        if not self.use_error_feedback:
            matrix = np.asarray(matrix, dtype=np.float64)
            self._pending[name] = matrix
            return matrix @ query
        self._pending[name] = matrix
        return self._projector.project_right(matrix, query, subtract=False)

    def compute_q(
        self, name: str, p_aggregated: np.ndarray,
        peer: Optional["PowerSGDState"] = None,
    ) -> np.ndarray:
        """Stage 2: orthogonalize aggregated P, then ``Q = (M + E)^T P_hat``.

        Also updates the EF residual with the local Q (before aggregation).
        Caller must all-reduce the returned Q. ``peer``, another rank's
        state past this stage for ``name`` on the same aggregated P, lends
        its ``P_hat`` instead of the QR being repeated.
        """
        work = self._pending.get(name)
        if work is None:
            raise RuntimeError(f"compute_q called before compute_p for {name!r}")
        if self.validate:
            from repro.utils.validation import assert_finite

            assert_finite(p_aggregated, f"aggregated P factor for {name!r}")
        p_hat = orthogonalize(p_aggregated) if peer is None else peer._pending[name]
        if self.use_error_feedback:
            # ``work`` holds M + E: corrected in place to
            # E' = (M + E) - P_hat Q_local^T.
            q_local = self._projector.project_left(work, p_hat)
        else:
            q_local = work.T @ p_hat
        self._pending[name] = p_hat  # stash for reconstruct
        return q_local

    def store_query(self, name: str, q_aggregated: np.ndarray) -> np.ndarray:
        """Adopt the aggregated Q for next-step reuse; returns ``P_hat``.

        Everything :meth:`reconstruct` does except forming ``P_hat Q^T`` —
        what a rank needs when another rank's reconstruction is the one used.
        """
        p_hat = self._pending.pop(name, None)
        if p_hat is None:
            raise RuntimeError(f"reconstruct called before compute_q for {name!r}")
        if self.validate:
            from repro.utils.validation import assert_finite

            assert_finite(q_aggregated, f"aggregated Q factor for {name!r}")
        if self.reuse_query:
            self._query[name] = q_aggregated.copy()
        return p_hat

    def reconstruct(
        self, name: str, q_aggregated: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Stage 3: ``M_hat = P_hat Q^T`` (into ``out`` when given: ``n x m``
        float64, C-contiguous); stores Q for next-step reuse."""
        p_hat = self.store_query(name, q_aggregated)
        return blocked_matmul(p_hat, q_aggregated.T, out=out)

    def warm_start_from(self, donor: "PowerSGDState") -> None:
        """Adopt a survivor's shared carried state (elastic admission).

        The reused query ``Q`` is an *aggregated* factor, identical on every
        survivor, so copying the donor's queries is exactly the broadcast a
        real elastic runtime would perform. The error-feedback residual is
        per-worker and not state of this class (a joiner's accumulator
        starts empty: its unsent history is). The no-reuse fresh-query
        streams are cloned at the donor's position so every worker keeps
        drawing the same query sequence.
        """
        self._query = {name: q.copy() for name, q in donor._query.items()}
        self._pending.clear()
        self._fresh_rng = {
            name: clone_rng(rng) for name, rng in donor._fresh_rng.items()
        }

    def reset(self) -> None:
        """Drop all per-tensor state."""
        self._query.clear()
        self._pending.clear()
        self._fresh_rng.clear()


def clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator positioned exactly where ``rng`` is."""
    clone = np.random.default_rng()
    clone.bit_generator.state = rng.bit_generator.state
    return clone
